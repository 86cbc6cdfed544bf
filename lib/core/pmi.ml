type entry = Bounds.t

(* The flat backing (DESIGN.md §15): per-feature delta-coded postings plus
   a fixed-width IEEE-754 bounds array, both read zero-copy out of a
   memory-mapped store file. [d_rank] is the cumulative filled-entry count
   before the feature — the feature's first bounds record lives at float
   index [6 * d_rank]. *)
type flat_dir = { d_count : int; d_off : int; d_len : int; d_rank : int }

type flat = {
  f_dir : flat_dir array; (* per feature *)
  f_postings : Psst_store.bigbytes;
  f_bounds : Psst_store.floats;
  f_block : int;
  f_filled : int;
}

type backing =
  | Heap of entry option array array (* feature -> graph *)
  | Flat of flat

type t = {
  config : Bounds.config;
  features : Selection.feature array;
  backing : backing;
  num_graphs : int;
  build_seconds : float;
}

module S = Psst_store

let log_src = Logs.Src.create "psst.pmi" ~doc:"PMI index construction"

module Log = (val Logs.src_log log_src)

(* The matrix is computed column-by-column (per graph) so that what the
   bounds of a graph share (its world pool and exact probabilities, one
   [Bounds.column]) is built once and the columns can be distributed
   over domains: every column touches exactly one Pgraph, so the lazily
   built junction trees never contend. Columns land at their graph index,
   hence the build is independent of how the pool schedules them. *)
let m_columns = Psst_obs.counter "pmi.columns_built"
let h_column = Psst_obs.histogram "pmi.column_build_s"

(* The column of graph [g]: an entry for every feature [fi] with
   [occurs fi], none elsewhere. *)
let column_of config features g ~occurs =
  Psst_obs.incr m_columns;
  Psst_obs.span h_column (fun () ->
      let column = Bounds.column config g in
      Array.mapi
        (fun fi (f : Selection.feature) ->
          if occurs fi then Some (Bounds.compute config ~column g f.graph)
          else None)
        features)

let build_column config db features gi =
  column_of config features db.(gi) ~occurs:(fun fi ->
      List.mem gi features.(fi).Selection.support)

let build ?(config = Bounds.default_config) ?(domains = 1) db features =
  let features = Array.of_list features in
  let ng = Array.length db in
  let nf = Array.length features in
  let result, build_seconds =
    Psst_util.Timer.time (fun () ->
        let d = max 1 (min domains ng) in
        if d > 1 then Log.debug (fun m -> m "building %d columns on %d domains" ng d);
        let columns =
          Psst_util.Pool.with_pool ~domains:d (fun pool ->
              Psst_util.Pool.map_array pool ~chunk:1
                (build_column config db features)
                (Array.init ng Fun.id))
        in
        (* Transpose columns into the feature-major layout. *)
        Array.init nf (fun fi -> Array.init ng (fun gi -> columns.(gi).(fi))))
  in
  Log.info (fun m ->
      m "PMI built: %d features x %d graphs in %.2fs" nf ng build_seconds);
  { config; features; backing = Heap result; num_graphs = ng; build_seconds }

(* --- flat-backing primitives ---

   Shared by the zero-copy lookup path, the eager decoder and the open-time
   validator. Postings region layout per feature (byte offsets relative to
   the postings payload):

     u32 n_blocks
     n_blocks x { u32 first_gid; u32 body_off }      skip entries
     block bodies: LEB128 deltas (>= 1) between consecutive graph ids

   Block k covers within-feature ranks [k*block .. min((k+1)*block, count)-1];
   its first graph id sits in the skip entry, the remaining ids are deltas in
   the body at [body_off] (relative to the start of the bodies area). *)

let flat_block = 128

let flat_u32 (b : S.bigbytes) at =
  let g i = Char.code (Bigarray.Array1.get b (at + i)) in
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24)

(* Unchecked varint over validated postings: [Bigarray] still bounds-checks,
   so even hostile bytes cannot read outside the mapping. *)
let flat_varint (b : S.bigbytes) pos =
  let acc = ref 0 and shift = ref 0 and p = ref pos and cont = ref true in
  while !cont do
    let c = Char.code (Bigarray.Array1.get b !p) in
    incr p;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := c land 0x80 <> 0
  done;
  (!acc, !p)

let flat_varint_checked (b : S.bigbytes) pos stop fi =
  let acc = ref 0 and shift = ref 0 and p = ref pos and cont = ref true in
  while !cont do
    if !p >= stop then S.error "flat postings: feature %d region overrun" fi;
    if !shift > 56 then S.error "flat postings: feature %d varint overflow" fi;
    let c = Char.code (Bigarray.Array1.get b !p) in
    incr p;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    shift := !shift + 7;
    cont := c land 0x80 <> 0
  done;
  if !acc < 0 then S.error "flat postings: feature %d varint overflow" fi;
  (!acc, !p)

(* Full validating walk over every posting; [emit fi rank gid] is called for
   each, with [rank] the within-feature rank. Both the eager decoder and the
   mmap open-time validator use this, so the two paths accept exactly the
   same byte strings. *)
let scan_postings (p : S.bigbytes) (dir : flat_dir array) ~block ~ng emit =
  Array.iteri
    (fun fi de ->
      let stop = de.d_off + de.d_len in
      let u32 at =
        if at < de.d_off || at + 4 > stop then
          S.error "flat postings: feature %d region overrun" fi;
        flat_u32 p at
      in
      let nb = u32 de.d_off in
      let expect_nb = if de.d_count = 0 then 0 else ((de.d_count - 1) / block) + 1 in
      if nb <> expect_nb then
        S.error "flat postings: feature %d has %d skip blocks, expected %d" fi
          nb expect_nb;
      let bodies = de.d_off + 4 + (8 * nb) in
      if bodies > stop then S.error "flat postings: feature %d region overrun" fi;
      let pos = ref bodies in
      let prev = ref (-1) in
      for k = 0 to nb - 1 do
        let g0 = u32 (de.d_off + 4 + (8 * k)) in
        let boff = u32 (de.d_off + 4 + (8 * k) + 4) in
        if bodies + boff <> !pos then
          S.error "flat postings: feature %d block %d body offset mismatch" fi k;
        if g0 <= !prev then
          S.error "flat postings: feature %d graph ids not strictly increasing"
            fi;
        if g0 >= ng then
          S.error "flat postings: feature %d mentions graph %d of a %d-graph \
                   database"
            fi g0 ng;
        let lo = k * block in
        let hi = min de.d_count ((k + 1) * block) in
        emit fi lo g0;
        let cur = ref g0 in
        for i = lo + 1 to hi - 1 do
          let v, p' = flat_varint_checked p !pos stop fi in
          pos := p';
          if v < 1 then
            S.error "flat postings: feature %d non-positive delta" fi;
          cur := !cur + v;
          if !cur >= ng then
            S.error "flat postings: feature %d mentions graph %d of a \
                     %d-graph database"
              fi !cur ng;
          emit fi i !cur
        done;
        prev := !cur
      done;
      if !pos <> stop then
        S.error "flat postings: feature %d region has %d trailing bytes" fi
          (stop - !pos))
    dir

(* Count fields are validated here, on materialisation, not at open time:
   the bounds payload is the bulk of the image and a streaming scan of it
   at open would defeat the O(mmap) cold start. A corrupted count still
   surfaces as a clean [Store_error], just at first lookup. *)
let flat_count what v =
  if not (Float.is_integer v) || v < 0. || v > 9.0e15 then
    S.error "flat bounds: invalid %s %g" what v;
  int_of_float v

let flat_entry fl idx : entry =
  let b i = Bigarray.Array1.get fl.f_bounds ((idx * 6) + i) in
  {
    Bounds.lower = b 0;
    upper = b 1;
    lower_safe = b 2;
    upper_safe = b 3;
    embeddings = flat_count "embedding count" (b 4);
    cuts = flat_count "cut count" (b 5);
  }

let flat_lookup fl ~feature ~graph =
  let de = fl.f_dir.(feature) in
  if de.d_count = 0 then None
  else begin
    let p = fl.f_postings in
    let base = de.d_off in
    let nb = flat_u32 p base in
    let first k = flat_u32 p (base + 4 + (8 * k)) in
    if graph < first 0 then None
    else begin
      (* greatest block whose first id is <= graph *)
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if first mid <= graph then lo := mid else hi := mid - 1
      done;
      let k = !lo in
      let g0 = first k in
      let start_rank = k * fl.f_block in
      if g0 = graph then Some (flat_entry fl (de.d_rank + start_rank))
      else begin
        let blk_n = min fl.f_block (de.d_count - start_rank) in
        let bodies = base + 4 + (8 * nb) in
        let pos = ref (bodies + flat_u32 p (base + 4 + (8 * k) + 4)) in
        let cur = ref g0 in
        let found = ref (-1) in
        let i = ref 1 in
        while !found < 0 && !i < blk_n && !cur < graph do
          let v, p' = flat_varint p !pos in
          pos := p';
          cur := !cur + v;
          if !cur = graph then found := de.d_rank + start_rank + !i;
          incr i
        done;
        if !found < 0 then None else Some (flat_entry fl !found)
      end
    end
  end

(* Offline operations ([sub], [concat], [add_graphs], re-encoding) work on
   the heap matrix; a flat-backed index materialises one first. The floats
   come straight off the bounds array, so the materialised matrix is
   bit-identical to what the eager loader would have produced. *)
let entries_matrix t =
  match t.backing with
  | Heap e -> e
  | Flat fl ->
    let nf = Array.length t.features and ng = t.num_graphs in
    let entries = Array.init nf (fun _ -> Array.make ng None) in
    scan_postings fl.f_postings fl.f_dir ~block:fl.f_block ~ng
      (fun fi rank gid ->
        entries.(fi).(gid) <- Some (flat_entry fl (fl.f_dir.(fi).d_rank + rank)));
    entries

(* Incremental insertion. Alongside the new bound columns, the mined
   features' support lists must absorb the new graph ids: supports drive
   [build_column] on a reload and the structural filter's count rows, so a
   stale support would silently drop the graph from both after a
   save/load round trip. Supports stay sorted because new ids are the
   largest in the database. One [Array.append] per row per batch keeps a
   bulk load of k graphs at O(nf * (ng + k)) instead of O(nf * ng * k). *)
let add_graphs t gs =
  let k = Array.length gs in
  if k = 0 then t
  else begin
    let base = t.num_graphs in
    let skels = Array.map Pgraph.skeleton gs in
    (* occurs.(i).(fi): does feature fi occur in the skeleton of gs.(i)? *)
    let occurs =
      Array.map
        (fun gc ->
          Array.map
            (fun (f : Selection.feature) -> Vf2.exists f.graph gc)
            t.features)
        skels
    in
    (* Entries exactly where the extended supports below list the new
       graph, so the result equals a [build] over the extended database. *)
    let columns =
      Array.mapi
        (fun i g -> column_of t.config t.features g ~occurs:(fun fi -> occurs.(i).(fi)))
        gs
    in
    let entries =
      Array.mapi
        (fun fi row -> Array.append row (Array.init k (fun i -> columns.(i).(fi))))
        (entries_matrix t)
    in
    let features =
      Array.mapi
        (fun fi (f : Selection.feature) ->
          let extra = ref [] in
          for i = k - 1 downto 0 do
            if occurs.(i).(fi) then extra := (base + i) :: !extra
          done;
          if !extra = [] then f
          else { f with Selection.support = f.support @ !extra })
        t.features
    in
    { t with features; backing = Heap entries; num_graphs = base + k }
  end

(* Slicing and concatenation back the shard store (lib/shard). Both are
   pure re-arrangements of already-computed state: [sub] never recomputes
   a bound (which would be sound — [build_column] is content-deterministic
   — but would defeat the point of splitting an indexed database), and
   [concat (sub ..)] pieces round-trip the original matrix bit-exactly,
   support lists included. Features are rebased to local ids so a shard
   is a fully self-contained database over its own [0 .. len-1] range. *)

let rebase_support ~base ~len l =
  List.filter_map
    (fun gi -> if gi >= base && gi < base + len then Some (gi - base) else None)
    l

let sub t ~base ~len =
  if base < 0 || len < 0 || base + len > t.num_graphs then
    invalid_arg
      (Printf.sprintf "Pmi.sub: range %d..%d outside 0..%d" base (base + len)
         t.num_graphs);
  let features =
    Array.map
      (fun (f : Selection.feature) ->
        {
          f with
          Selection.support = rebase_support ~base ~len f.support;
          strong_support = rebase_support ~base ~len f.strong_support;
        })
      t.features
  in
  let entries = Array.map (fun row -> Array.sub row base len) (entries_matrix t) in
  { t with features; backing = Heap entries; num_graphs = len }

let concat = function
  | [] -> invalid_arg "Pmi.concat: empty list"
  | first :: _ as parts ->
    let nf = Array.length first.features in
    List.iteri
      (fun i p ->
        if p.config <> first.config then
          invalid_arg "Pmi.concat: parts built with different bound configs";
        if Array.length p.features <> nf then
          invalid_arg "Pmi.concat: parts mined different feature sets";
        Array.iteri
          (fun fi (f : Selection.feature) ->
            if f.key <> first.features.(fi).Selection.key then
              invalid_arg
                (Printf.sprintf
                   "Pmi.concat: part %d feature %d is %s, expected %s" i fi
                   f.key first.features.(fi).Selection.key))
          p.features)
      parts;
    let offsets =
      let acc = ref 0 in
      List.map
        (fun p ->
          let o = !acc in
          acc := o + p.num_graphs;
          o)
        parts
    in
    let num_graphs = List.fold_left (fun a p -> a + p.num_graphs) 0 parts in
    let features =
      Array.init nf (fun fi ->
          let f = first.features.(fi) in
          let gather proj =
            List.concat
              (List.map2
                 (fun p off -> List.map (fun gi -> gi + off) (proj p.features.(fi)))
                 parts offsets)
          in
          {
            f with
            Selection.support = gather (fun f -> f.Selection.support);
            strong_support = gather (fun f -> f.Selection.strong_support);
          })
    in
    let mats = List.map entries_matrix parts in
    let entries =
      Array.init nf (fun fi -> Array.concat (List.map (fun m -> m.(fi)) mats))
    in
    let build_seconds =
      List.fold_left (fun a p -> Float.max a p.build_seconds) 0. parts
    in
    {
      config = first.config;
      features;
      backing = Heap entries;
      num_graphs;
      build_seconds;
    }

let config t = t.config
let features t = Array.copy t.features
let num_features t = Array.length t.features
let num_graphs t = t.num_graphs

let lookup t ~feature ~graph =
  match t.backing with
  | Heap e -> e.(feature).(graph)
  | Flat fl -> flat_lookup fl ~feature ~graph

let column t ~graph =
  match t.backing with
  | Heap e ->
    let out = ref [] in
    for fi = Array.length t.features - 1 downto 0 do
      match e.(fi).(graph) with
      | Some e -> out := (fi, e) :: !out
      | None -> ()
    done;
    !out
  | Flat fl ->
    let out = ref [] in
    for fi = Array.length t.features - 1 downto 0 do
      match flat_lookup fl ~feature:fi ~graph with
      | Some e -> out := (fi, e) :: !out
      | None -> ()
    done;
    !out

let filled_entries t =
  match t.backing with
  | Heap entries ->
    Array.fold_left
      (fun acc row ->
        acc
        + Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 row)
      0 entries
  | Flat fl -> fl.f_filled

let backing t = match t.backing with Heap _ -> `Heap | Flat _ -> `Flat
let build_seconds t = t.build_seconds

(* --- persistence (DESIGN.md §9, §15) --- *)

let m_salvaged = Psst_obs.counter "store.salvaged_columns"

(* The small metadata sections, decoded and validated identically by the
   eager and the mapped load paths. *)
let small_sections ~db t =
  let config = S.encoder () in
  S.put_i64 config t.config.Bounds.emb_cap;
  S.put_i64 config t.config.cut_cap;
  S.put_i64 config t.config.mc_samples;
  S.put_i64 config t.config.clique_budget;
  S.put_bool config t.config.tightest;
  S.put_i64 config t.config.seed;
  let dbsec = S.encoder () in
  S.put_i64 dbsec (Array.length db);
  S.put_i32 dbsec (Pgraph_io.db_fingerprint db);
  let features = S.encoder () in
  S.put_array features Selection.encode_feature t.features;
  let meta = S.encoder () in
  S.put_f64 meta t.build_seconds;
  ( S.section "pmi.config" config,
    S.section "pmi.db" dbsec,
    S.section "pmi.features" features,
    S.section "pmi.meta" meta )

(* --- flat image codec (DESIGN.md §15) --- *)

let flat_dir_name = "pmi.flat.dir"
let flat_postings_name = "pmi.flat.postings"
let flat_bounds_name = "pmi.flat.bounds"

let count_as_float what v =
  let f = Float.of_int v in
  if v < 0 || Float.to_int f <> v then
    S.error "flat bounds: %s %d is not exactly representable" what v;
  f

let to_sections ~db t =
  let config, dbsec, features, meta = small_sections ~db t in
  let nf = num_features t and ng = t.num_graphs in
  let block = flat_block in
  (* Posting rows via [lookup], so any backing can be re-encoded. *)
  let rows =
    Array.init nf (fun fi ->
        let acc = ref [] in
        for gi = ng - 1 downto 0 do
          match lookup t ~feature:fi ~graph:gi with
          | Some e -> acc := (gi, e) :: !acc
          | None -> ()
        done;
        Array.of_list !acc)
  in
  let filled = Array.fold_left (fun a r -> a + Array.length r) 0 rows in
  let dir = S.encoder () in
  S.put_i64 dir nf;
  S.put_i64 dir ng;
  S.put_i64 dir block;
  S.put_i64 dir filled;
  let postings = S.encoder () in
  let bounds = S.encoder () in
  let put_u32 e v = S.put_i32 e (Int32.of_int v) in
  let off = ref 0 in
  Array.iter
    (fun row ->
      let n = Array.length row in
      let nb = if n = 0 then 0 else ((n - 1) / block) + 1 in
      let bodies = S.encoder () in
      let skips = Array.make nb (0, 0) in
      for k = 0 to nb - 1 do
        let lo = k * block and hi = min n ((k + 1) * block) in
        skips.(k) <- (fst row.(lo), S.enc_length bodies);
        for i = lo + 1 to hi - 1 do
          S.put_varint bodies (fst row.(i) - fst row.(i - 1))
        done
      done;
      put_u32 postings nb;
      Array.iter
        (fun (g, o) ->
          put_u32 postings g;
          put_u32 postings o)
        skips;
      let body = S.contents bodies in
      S.put_raw postings body;
      let len = 4 + (8 * nb) + String.length body in
      S.put_i64 dir n;
      S.put_i64 dir !off;
      S.put_i64 dir len;
      off := !off + len;
      Array.iter
        (fun (_, (e : entry)) ->
          S.put_f64 bounds e.Bounds.lower;
          S.put_f64 bounds e.upper;
          S.put_f64 bounds e.lower_safe;
          S.put_f64 bounds e.upper_safe;
          S.put_f64 bounds (count_as_float "embedding count" e.embeddings);
          S.put_f64 bounds (count_as_float "cut count" e.cuts))
        row)
    rows;
  [
    config;
    dbsec;
    features;
    S.section flat_dir_name dir;
    S.section flat_postings_name postings;
    S.section flat_bounds_name bounds;
    meta;
  ]

let decode_flat_dir payload ~nf ~ng ~postings_len ~bounds_len =
  let d = S.decoder ~name:flat_dir_name payload in
  let snf = S.get_nat d in
  let sng = S.get_nat d in
  let block = S.get_nat d in
  let filled = S.get_nat d in
  if snf <> nf then S.error "flat directory has %d rows for %d features" snf nf;
  if sng <> ng then S.error "flat directory has %d columns for %d graphs" sng ng;
  if block < 1 then S.error "flat directory block size %d must be >= 1" block;
  if bounds_len <> filled * 48 then
    S.error "flat bounds payload is %d bytes for %d filled entries" bounds_len
      filled;
  let run_off = ref 0 and run_rank = ref 0 in
  let dir =
    Array.init nf (fun fi ->
        let count = S.get_nat d in
        let off = S.get_nat d in
        let len = S.get_nat d in
        if count > ng then
          S.error "flat directory: feature %d has %d postings for %d graphs" fi
            count ng;
        if off <> !run_off then
          S.error "flat directory: feature %d region at offset %d, expected %d"
            fi off !run_off;
        if len < 4 || off + len > postings_len then
          S.error "flat directory: feature %d region %d+%d outside %d-byte \
                   postings payload"
            fi off len postings_len;
        let rank = !run_rank in
        run_off := off + len;
        run_rank := rank + count;
        { d_count = count; d_off = off; d_len = len; d_rank = rank })
  in
  S.expect_end d;
  if !run_off <> postings_len then
    S.error "flat directory: regions cover %d of %d postings bytes" !run_off
      postings_len;
  if !run_rank <> filled then
    S.error "flat directory: feature counts sum to %d, filled total is %d"
      !run_rank filled;
  (dir, filled, block)

(* The flat backing over a directory payload and the postings and bounds
   views; both load paths build it here. The postings are not walked yet:
   the mapped path walks them once at open ([scan_postings]), the eager
   path as it materialises the matrix ([entries_matrix]) — the same
   validating walk either way. *)
let flat_backing ~nf ~ng ~dir ~postings ~bounds ~bounds_len =
  let f_dir, f_filled, f_block =
    decode_flat_dir dir ~nf ~ng
      ~postings_len:(Bigarray.Array1.dim postings)
      ~bounds_len
  in
  { f_dir; f_postings = postings; f_bounds = bounds; f_block; f_filled }

let bigbytes_of_string s : S.bigbytes =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (Bigarray.Array1.unsafe_set b) s;
  b

let floats_of_string s : S.floats =
  Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout (String.length s / 8)
    (fun i -> Int64.float_of_bits (String.get_int64_le s (8 * i)))

(* Decode + validate the small metadata sections, shared by both load
   paths. [fp] recomputes the database fingerprint when identity must be
   re-proven — the eager path always does; the zero-copy query path skips
   it (its graphs live in the same atomically-written container as the
   index, so identity is intrinsic, and re-fingerprinting would force the
   decode the mapping exists to avoid). *)
let decode_small_sections ~ng ~fp sections =
  let config =
    S.decode_section sections "pmi.config" (fun d ->
        let emb_cap = S.get_nat d in
        let cut_cap = S.get_nat d in
        let mc_samples = S.get_nat d in
        let clique_budget = S.get_nat d in
        let tightest = S.get_bool d in
        let seed = S.get_i64 d in
        { Bounds.emb_cap; cut_cap; mc_samples; clique_budget; tightest; seed })
  in
  S.decode_section sections "pmi.db" (fun d ->
      let stored_ng = S.get_nat d in
      let stored_fp = S.get_i32 d in
      if stored_ng <> ng then
        S.error
          "database mismatch: index was built over %d graphs, this database \
           has %d — rebuild the index"
          stored_ng ng;
      match fp with
      | None -> ()
      | Some recompute ->
        let actual = recompute () in
        if stored_fp <> actual then
          S.error
            "database fingerprint mismatch (stored %08lx, actual %08lx): the \
             index was built for a different database — rebuild the index"
            stored_fp actual);
  let features =
    S.decode_section sections "pmi.features" (fun d ->
        S.get_array d Selection.decode_feature)
  in
  Array.iter
    (fun (f : Selection.feature) ->
      List.iter
        (fun gi ->
          if gi >= ng then
            S.error "feature support mentions graph %d of a %d-graph database"
              gi ng)
        f.support)
    features;
  (config, features)

let of_sections ?(salvage = false) ~db sections =
  let ng = Array.length db in
  let config, features =
    decode_small_sections ~ng
      ~fp:(Some (fun () -> Pgraph_io.db_fingerprint db))
      sections
  in
  let nf = Array.length features in
  let has name = List.exists (fun (s : S.section) -> s.S.name = name) sections in
  let entries =
    if
      salvage
      && not (List.for_all has [ flat_dir_name; flat_postings_name; flat_bounds_name ])
    then begin
      (* Self-healing (DESIGN.md §12): a bulk section failed its checksum
         (or never reached the disk). The image has no finer grain, so every
         column is rebuilt from the graphs and the intact features; the
         build is deterministic, so the result is bit-identical. *)
      let rebuilt = build ~config db (Array.to_list features) in
      Psst_obs.add m_salvaged ng;
      Psst_obs.warn ~code:"store.salvaged"
        (Printf.sprintf
           "PMI salvage: rebuilt all %d columns (damaged PMI image section)" ng);
      entries_matrix rebuilt
    end
    else begin
      let bounds = S.find_section sections flat_bounds_name in
      let flat =
        flat_backing ~nf ~ng
          ~dir:(S.find_section sections flat_dir_name)
          ~postings:(bigbytes_of_string (S.find_section sections flat_postings_name))
          ~bounds:(floats_of_string bounds) ~bounds_len:(String.length bounds)
      in
      entries_matrix
        { config; features; backing = Flat flat; num_graphs = ng; build_seconds = 0. }
    end
  in
  let build_seconds =
    if salvage && not (has "pmi.meta") then 0.
    else S.decode_section sections "pmi.meta" S.get_f64
  in
  { config; features; backing = Heap entries; num_graphs = ng; build_seconds }

(* Zero-copy attach: the small sections are decoded (and CRC-checked)
   exactly like [of_sections]; the postings stay in the mapping after a
   full validating scan, so query-time binary searches never have to
   re-check structure. The bounds payload — the bulk of the image — is
   not scanned at open: its floats are read straight off the mapping and
   its count fields validated on materialisation ([flat_entry]), which is
   what keeps attach time independent of the index size. The graphs share
   the container, so the fingerprint is not re-proven
   ([decode_small_sections]). *)
let of_mapped_lazy m ~ng =
  let small =
    List.filter_map
      (fun name ->
        if S.mapped_has m name then
          Some { S.name; payload = S.mapped_section_string m name }
        else None)
      [ "pmi.config"; "pmi.db"; "pmi.features"; "pmi.meta"; flat_dir_name ]
  in
  let config, features = decode_small_sections ~ng ~fp:None small in
  let bounds = S.mapped_f64 m flat_bounds_name in
  let flat =
    flat_backing ~nf:(Array.length features) ~ng
      ~dir:(S.find_section small flat_dir_name)
      ~postings:(S.mapped_bytes m flat_postings_name)
      ~bounds ~bounds_len:(8 * Bigarray.Array1.dim bounds)
  in
  scan_postings flat.f_postings flat.f_dir ~block:flat.f_block ~ng (fun _ _ _ -> ());
  let build_seconds = S.decode_section small "pmi.meta" S.get_f64 in
  { config; features; backing = Flat flat; num_graphs = ng; build_seconds }
