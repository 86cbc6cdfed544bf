(* Horizontal sharding of the query database (DESIGN.md §14). See the
   interface for the invariants; everything here is deliberately a pure
   re-arrangement of already-computed state — the split never re-mines
   features or recomputes a bound, which is precisely why per-shard
   answers can be bit-identical to monolithic ones. *)

module Store = Psst_store

type entry = {
  sid : int;
  base : int;
  count : int;
  path : string;
  fingerprint : int32;
}

type manifest = {
  total : int;
  corpus_fingerprint : int32;
  entries : entry list;
}

let m_splits = Psst_obs.counter "shard.splits"
let m_shard_loads = Psst_obs.counter "shard.loads"

(* --- split planning --- *)

type budget = { max_graphs : int; max_cost : float }

let column_cost (db : Query.database) gi =
  let filled = ref 0 in
  for fi = 0 to Pmi.num_features db.pmi - 1 do
    match Pmi.lookup db.pmi ~feature:fi ~graph:gi with
    | Some _ -> incr filled
    | None -> ()
  done;
  1. +. float_of_int !filled

let plan_budget (db : Query.database) budget =
  if budget.max_graphs < 1 then
    invalid_arg "Psst_shard.plan_budget: max_graphs must be >= 1";
  let n = Corpus.length db.graphs in
  let ranges = ref [] in
  let base = ref 0 and count = ref 0 and cost = ref 0. in
  let close () =
    if !count > 0 then begin
      ranges := (!base, !count) :: !ranges;
      base := !base + !count;
      count := 0;
      cost := 0.
    end
  in
  for gi = 0 to n - 1 do
    let c = column_cost db gi in
    (* A shard never exceeds the budget unless a single graph does. *)
    if !count > 0 && (!count >= budget.max_graphs || !cost +. c > budget.max_cost)
    then close ();
    incr count;
    cost := !cost +. c
  done;
  close ();
  List.rev !ranges

let plan_even ~parts ~total =
  if parts < 1 then invalid_arg "Psst_shard.plan_even: parts must be >= 1";
  if total < 0 then invalid_arg "Psst_shard.plan_even: negative total";
  let q = total / parts and r = total mod parts in
  let ranges = ref [] and base = ref 0 in
  for p = 0 to parts - 1 do
    let count = q + if p < r then 1 else 0 in
    if count > 0 then ranges := (!base, count) :: !ranges;
    base := !base + count
  done;
  List.rev !ranges

(* --- in-memory slicing and merging --- *)

let sub_database (db : Query.database) ~base ~count =
  let n = Corpus.length db.graphs in
  if base < 0 || count < 0 || base + count > n then
    invalid_arg
      (Printf.sprintf "Psst_shard.sub_database: range %d..%d outside 0..%d" base
         (base + count) n);
  let pmi = Pmi.sub db.pmi ~base ~len:count in
  {
    Query.graphs = Corpus.sub db.graphs ~base ~count;
    features = Array.to_list (Pmi.features pmi);
    structural = Pmi.structural pmi;
    pmi;
    base = db.base + base;
    lineage = Qcache.lineage ~count;
  }

let merge (parts : Query.database list) =
  match parts with
  | [] -> invalid_arg "Psst_shard.merge: empty list"
  | first :: _ ->
    let _ =
      List.fold_left
        (fun expected_base (p : Query.database) ->
          if p.Query.base <> expected_base then
            invalid_arg
              (Printf.sprintf
                 "Psst_shard.merge: part at base %d where %d was expected \
                  (parts must be consecutive and ordered)"
                 p.Query.base expected_base);
          expected_base + Corpus.length p.Query.graphs)
        first.Query.base parts
    in
    let pmi = Pmi.concat (List.map (fun (p : Query.database) -> p.Query.pmi) parts) in
    let graphs =
      Array.concat
        (List.map (fun (p : Query.database) -> Corpus.to_array p.Query.graphs) parts)
    in
    {
      Query.graphs = Corpus.of_array graphs;
      features = Array.to_list (Pmi.features pmi);
      structural = Pmi.structural pmi;
      pmi;
      base = first.Query.base;
      lineage = Qcache.lineage ~count:(Array.length graphs);
    }

(* --- answer merging --- *)

let merge_answers per_shard = List.sort compare (List.concat per_shard)

let merge_stats (parts : Query.stats list) =
  match parts with
  | [] -> invalid_arg "Psst_shard.merge_stats: empty list"
  | first :: rest ->
    List.fold_left
      (fun (acc : Query.stats) (s : Query.stats) ->
        {
          Query.relaxed_count = max acc.Query.relaxed_count s.Query.relaxed_count;
          relaxed_truncated = acc.relaxed_truncated || s.relaxed_truncated;
          structural_candidates =
            acc.structural_candidates + s.structural_candidates;
          prob_candidates = acc.prob_candidates + s.prob_candidates;
          accepted_by_bounds = acc.accepted_by_bounds + s.accepted_by_bounds;
          pruned_by_bounds = acc.pruned_by_bounds + s.pruned_by_bounds;
          degraded_candidates = acc.degraded_candidates + s.degraded_candidates;
          t_relax = Float.max acc.t_relax s.t_relax;
          t_structural = Float.max acc.t_structural s.t_structural;
          t_probabilistic = Float.max acc.t_probabilistic s.t_probabilistic;
          t_verification = Float.max acc.t_verification s.t_verification;
          t_verification_cpu = acc.t_verification_cpu +. s.t_verification_cpu;
          verify_domains = max acc.verify_domains s.verify_domains;
        })
      first rest

let merge_topk ~k per_shard =
  if k <= 0 then invalid_arg "Psst_shard.merge_topk: k must be positive";
  List.concat per_shard
  |> List.sort (fun (a : Topk.hit) (b : Topk.hit) ->
         match compare b.Topk.ssp a.Topk.ssp with
         | 0 -> compare a.Topk.graph b.Topk.graph
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* --- persistence --- *)

let manifest_sections m =
  let e = Store.encoder () in
  Store.put_i64 e m.total;
  Store.put_i32 e m.corpus_fingerprint;
  Store.put_list e
    (fun e (s : entry) ->
      Store.put_i64 e s.sid;
      Store.put_i64 e s.base;
      Store.put_i64 e s.count;
      Store.put_string e s.path;
      Store.put_i32 e s.fingerprint)
    m.entries;
  [ Store.section "manifest" e ]

let validate_manifest m =
  let _ =
    List.fold_left
      (fun (sid, base) (s : entry) ->
        if s.sid <> sid then
          Store.error "manifest: shard ids not dense (found %d, expected %d)"
            s.sid sid;
        if s.base <> base then
          Store.error
            "manifest: shard %d starts at %d where %d was expected (ranges \
             must tile the corpus)"
            s.sid s.base base;
        if s.count < 1 then
          Store.error "manifest: shard %d holds %d graphs" s.sid s.count;
        if s.path = "" || Filename.is_relative s.path = false then
          Store.error "manifest: shard %d path %S must be relative" s.sid s.path;
        (sid + 1, base + s.count))
      (0, 0) m.entries
  in
  let sum = List.fold_left (fun a (s : entry) -> a + s.count) 0 m.entries in
  if sum <> m.total then
    Store.error "manifest: shard counts sum to %d, total says %d" sum m.total

let write_manifest path m =
  validate_manifest m;
  Store.write_file path ~kind:Store.Manifest (manifest_sections m)

let load_manifest path =
  let sections = Store.read_file path ~kind:Store.Manifest in
  let m =
    Store.decode_section sections "manifest" (fun d ->
        let total = Store.get_nat d in
        let corpus_fingerprint = Store.get_i32 d in
        let entries =
          Store.get_list d (fun d ->
              let sid = Store.get_nat d in
              let base = Store.get_nat d in
              let count = Store.get_nat d in
              let path = Store.get_string d in
              let fingerprint = Store.get_i32 d in
              { sid; base; count; path; fingerprint })
        in
        { total; corpus_fingerprint; entries })
  in
  validate_manifest m;
  m

let shard_file_name ~manifest_path sid =
  let stem = Filename.remove_extension (Filename.basename manifest_path) in
  Printf.sprintf "%s.shard%d" stem sid

let split_to_files ~manifest_path (db : Query.database) plan =
  if db.Query.base <> 0 then
    invalid_arg "Psst_shard.split_to_files: database must be monolithic (base 0)";
  if plan = [] then invalid_arg "Psst_shard.split_to_files: empty plan";
  Psst_obs.incr m_splits;
  let dir = Filename.dirname manifest_path in
  let entries =
    List.mapi
      (fun sid (base, count) ->
        let shard = sub_database db ~base ~count in
        let path = shard_file_name ~manifest_path sid in
        (* Each shard file is written atomically (tmp + rename); the
           manifest below goes last, so a crash at any point leaves the
           previous deployment — or no deployment — fully intact. *)
        Query.save_database (Filename.concat dir path) shard;
        (* The save memoised the shard corpus's fingerprint from the
           payload it wrote, so the entry reads it without hashing. *)
        {
          sid;
          base;
          count;
          path;
          fingerprint = Corpus.fingerprint shard.Query.graphs;
        })
      plan
  in
  let m =
    {
      total = Corpus.length db.Query.graphs;
      corpus_fingerprint = Corpus.fingerprint db.Query.graphs;
      entries;
    }
  in
  write_manifest manifest_path m;
  m

let find_entry m sid =
  match List.find_opt (fun (s : entry) -> s.sid = sid) m.entries with
  | Some s -> s
  | None -> Store.error "manifest names no shard %d (%d shards)" sid
              (List.length m.entries)

let load_shard ?(salvage = false) ?(mmap = false) ~manifest_path m sid =
  let s = find_entry m sid in
  let path = Filename.concat (Filename.dirname manifest_path) s.path in
  let db = Query.load_database ~salvage ~mmap path in
  Psst_obs.incr m_shard_loads;
  let n = Corpus.length db.Query.graphs in
  if n <> s.count then
    Store.error "shard %d file %s holds %d graphs, manifest says %d" sid s.path
      n s.count;
  if db.Query.base <> s.base then
    Store.error "shard %d file %s starts at global id %d, manifest says %d" sid
      s.path db.Query.base s.base;
  let fp = Corpus.fingerprint db.Query.graphs in
  if fp <> s.fingerprint then
    Store.error
      "shard %d file %s fingerprint %08lx does not match the manifest's %08lx \
       — stale or foreign shard file"
      sid s.path fp s.fingerprint;
  db

let load_all ?salvage ?mmap ~manifest_path m =
  List.map
    (fun (s : entry) -> load_shard ?salvage ?mmap ~manifest_path m s.sid)
    m.entries
