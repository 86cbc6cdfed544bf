module Prng = Psst_util.Prng
module Timer = Psst_util.Timer
module Pool = Psst_util.Pool

type database = {
  graphs : Corpus.t;
  features : Selection.feature list;
  structural : Structural.t;
  pmi : Pmi.t;
  base : int;
}

(* Graph ids in answers, hits and PRNG-stream derivations are global:
   local index [gi] names graph [base + gi] of the full corpus. A
   monolithic database has [base = 0], so nothing changes for it; a shard
   cut out by [Psst_shard.sub_database] carries its offset here, which is
   what makes per-candidate draws — and therefore answers — independent
   of how the corpus is partitioned. *)
let global db gi = db.base + gi

let log_src = Logs.Src.create "psst.query" ~doc:"T-PS query pipeline"

module Log = (val Logs.src_log log_src)

(* The structural filter is a view over the PMI image (Pmi.structural),
   so every constructor of a database takes it from the PMI it holds. *)
let index_database ?(mining = Selection.default_params)
    ?(bounds = Bounds.default_config) ?(domains = 1) graphs =
  let mined = Selection.select (Array.map Pgraph.skeleton graphs) mining in
  Log.info (fun m ->
      m "mined %d features over %d graphs" (List.length mined)
        (Array.length graphs));
  let pmi = Pmi.build ~config:bounds ~domains graphs mined in
  {
    graphs = Corpus.of_array graphs;
    features = List.map (fun (m : Selection.mined) -> m.feature) mined;
    structural = Pmi.structural pmi;
    pmi;
    base = 0;
  }

let m_runs = Psst_obs.counter "query.runs"
let m_answers = Psst_obs.counter "query.answers"
let m_exact_scans = Psst_obs.counter "query.exact_scans"
let m_graphs_added = Psst_obs.counter "query.graphs_added"

let add_graphs db gs =
  if Array.length gs = 0 then db
  else begin
    (* The features are patterns and stay as they are; the new graphs
       enter the PMI postings, the one record of where each occurs. *)
    let pmi = Pmi.add_graphs db.pmi gs in
    Psst_obs.add m_graphs_added (Array.length gs);
    {
      graphs = Corpus.append db.graphs gs;
      features = db.features;
      structural = Pmi.structural pmi;
      pmi;
      base = db.base;
    }
  end

let add_graph db g = add_graphs db [| g |]

type config = {
  epsilon : float;
  delta : int;
  mode : Pruning.mode;
  certified : bool;
  verifier : [ `Smp of Verify.config | `Exact ];
  relax_cap : int;
  seed : int;
}

let default_config =
  {
    epsilon = 0.5;
    delta = 2;
    mode = Pruning.Optimized;
    certified = true;
    verifier = `Smp Verify.default_config;
    relax_cap = 4096;
    seed = 7;
  }

type stats = {
  relaxed_count : int;
  relaxed_truncated : bool;
  structural_candidates : int;
  prob_candidates : int;
  accepted_by_bounds : int;
  pruned_by_bounds : int;
  degraded_candidates : int;
  t_relax : float;
  t_structural : float;
  t_probabilistic : float;
  t_verification : float;
  t_verification_cpu : float;
  verify_domains : int;
}

type outcome = { answers : int list; stats : stats; trace : Psst_obs.Trace.t }

(* Per-query trace assembled from the phase timings already measured for
   [stats]: no extra clock reads on the hot path. *)
let trace_of ~label ~answers stats =
  let tr = Psst_obs.Trace.create label in
  Psst_obs.Trace.set_time tr "relax" stats.t_relax;
  Psst_obs.Trace.set_time tr "structural" stats.t_structural;
  Psst_obs.Trace.set_time tr "probabilistic" stats.t_probabilistic;
  Psst_obs.Trace.set_time tr "verification" stats.t_verification;
  Psst_obs.Trace.set_time tr "verification_cpu" stats.t_verification_cpu;
  Psst_obs.Trace.set_count tr "relaxed" stats.relaxed_count;
  Psst_obs.Trace.set_count tr "structural_candidates" stats.structural_candidates;
  Psst_obs.Trace.set_count tr "prob_candidates" stats.prob_candidates;
  Psst_obs.Trace.set_count tr "accepted_by_bounds" stats.accepted_by_bounds;
  Psst_obs.Trace.set_count tr "pruned_by_bounds" stats.pruned_by_bounds;
  Psst_obs.Trace.set_count tr "degraded_candidates" stats.degraded_candidates;
  Psst_obs.Trace.set_count tr "answers" (List.length answers);
  Psst_obs.Trace.set_count tr "verify_domains" stats.verify_domains;
  Psst_obs.Trace.set_flag tr "relaxed_truncated" stats.relaxed_truncated;
  tr

(* The relaxation parameters every pipeline entry point shares, checked
   before any work: a cap of 0 would relax to an empty set. *)
let check_relaxation config =
  if config.delta < 0 then invalid_arg "Query: delta must be non-negative";
  if config.relax_cap <= 0 then invalid_arg "Query: relax_cap must be positive"

let validate_config config =
  if not (config.epsilon > 0. && config.epsilon <= 1.) then
    invalid_arg "Query: epsilon must be in (0, 1]";
  check_relaxation config

type front = {
  scope : Qcache.scope;
  relaxed : Lgraph.t list;
  truncated : bool;
  survivors : int list;
  prepared : Pruning.prepared;
  relax_s : float;
  structural_s : float;
  prepare_s : float;
}

(* Relaxation, structural pruning over the certain skeletons (Thm 1) and
   the PMI memberships of the relaxed set, each memoised through the
   query's cache scope when a cache is armed. *)
let front ~cache db q config =
  check_relaxation config;
  let scope =
    Qcache.scope cache ~graphs:db.graphs ~pmi:db.pmi ~q ~delta:config.delta
      ~relax_cap:config.relax_cap
  in
  let (relaxed, status), relax_s =
    Timer.time (fun () ->
        Qcache.relaxed scope ~compute:(fun () ->
            Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta))
  in
  let survivors, structural_s =
    Timer.time (fun () ->
        Structural.candidates db.structural
          ~skeleton:(Corpus.skeleton db.graphs)
          q ~delta:config.delta)
  in
  let prepared, prepare_s =
    Timer.time (fun () ->
        Qcache.prepared scope ~compute:(fun () -> Pruning.prepare db.pmi ~relaxed))
  in
  {
    scope;
    relaxed;
    truncated = status = `Truncated;
    survivors;
    prepared;
    relax_s;
    structural_s;
    prepare_s;
  }

(* One candidate's SSP, drawn from the verification stream of its global
   id. Every staged artifact (embedding sets, Karp–Luby preparation,
   final SSP) is a deterministic function of its key, so the cached and
   cold paths return bit-identical values (DESIGN.md §13). [stop] is the
   threshold an adaptive verifier may stop at once its CI clears it. *)
let candidate_ssp f ~stop db config gi =
  let g = Corpus.get db.graphs gi in
  let embeddings ?config emb_cap =
    Qcache.embeddings f.scope ~graph:gi ~emb_cap ~compute:(fun () ->
        Verify.embedding_sets ?config g f.relaxed)
  in
  Qcache.ssp f.scope ~graph:gi ~stop ~seed:config.seed config.verifier
    ~compute:(fun () ->
      match config.verifier with
      | `Exact -> Verify.exact_with_sets g (embeddings Verify.default_config.emb_cap)
      | `Smp vc ->
        let prep =
          Qcache.smp_prep f.scope ~graph:gi ~emb_cap:vc.emb_cap ~compute:(fun () ->
              Verify.smp_prepare g (embeddings ~config:vc vc.emb_cap))
        in
        let rng = Prng.stream ~seed:config.seed (global db gi) in
        (Verify.smp_run ~config:vc ?stop_epsilon:stop rng prep).value)

(* The pruning phase draws from a stream family disjoint from the
   verification one: verification streams use the (non-negative) global
   graph id as the stream index, pruning uses its one's complement
   (strictly negative), so the two phases never consume correlated
   randomness for the same candidate. *)
let prune_stream ~seed gid = Prng.stream ~seed (lnot gid)

(* The front end and phase 2, shared by [run_on] and [run_bounds_only].
   They are sequential (they are cheap); each candidate's bound
   evaluation draws from its own PRNG stream, so a candidate's decision
   depends only on (query, global graph id, config) — never on which
   other graphs share the database. That is what keeps pruning counters
   and answers bit-identical between a monolithic run and a union of
   shard runs. [candidates] is in reverse structural order, exactly as
   the fold accumulates it. *)
type pruned = {
  front : front;
  accepted : int list;
  candidates : int list;
  rejected : int list;
  probabilistic_s : float;
}

let prune_phases ?cache db q config =
  let f = front ~cache db q config in
  (* Phase 2: probabilistic pruning through the PMI bounds. *)
  let (accepted, candidates, rejected), evaluate_s =
    Timer.time (fun () ->
        List.fold_left
          (fun (acc, cand, rej) gi ->
            let rng = prune_stream ~seed:config.seed (global db gi) in
            let r =
              Pruning.evaluate ~certified:config.certified rng db.pmi f.prepared
                ~graph:gi ~epsilon:config.epsilon ~mode:config.mode
            in
            match r.Pruning.decision with
            | `Accepted -> (gi :: acc, cand, rej)
            | `Candidate -> (acc, gi :: cand, rej)
            | `Pruned -> (acc, cand, gi :: rej))
          ([], [], []) f.survivors)
  in
  {
    front = f;
    accepted;
    candidates;
    rejected;
    probabilistic_s = f.prepare_s +. evaluate_s;
  }

(* The one place an outcome is assembled: [verified] are the candidates
   kept after phase 3 (all of them for the bounds-only path). *)
let outcome ~label db p ~verified ~degraded ~t_verification ~t_verification_cpu
    ~verify_domains =
  let answers = List.sort compare (List.map (global db) (p.accepted @ verified)) in
  Psst_obs.add m_answers (List.length answers);
  let stats =
    {
      relaxed_count = List.length p.front.relaxed;
      relaxed_truncated = p.front.truncated;
      structural_candidates = List.length p.front.survivors;
      prob_candidates = List.length p.candidates;
      accepted_by_bounds = List.length p.accepted;
      pruned_by_bounds = List.length p.rejected;
      degraded_candidates = degraded;
      t_relax = p.front.relax_s;
      t_structural = p.front.structural_s;
      t_probabilistic = p.probabilistic_s;
      t_verification;
      t_verification_cpu;
      verify_domains;
    }
  in
  { answers; stats; trace = trace_of ~label ~answers stats }

(* The pipeline on an existing pool, so that [run_batch] can interleave
   the verification tasks of many queries on one set of domains. Phase 3
   fans out over the surviving candidates; each one verifies under its
   own PRNG stream derived from [config.seed] and the graph id alone, so
   the answer set is bit-identical for every pool size — including the
   sequential one.

   [?deadline] (absolute, seconds) is the graceful-degradation path
   (DESIGN.md §12): a candidate whose verification would start past the
   deadline — or whose verification is cut down by an injected fault —
   is answered from its PMI bounds instead. Every such candidate already
   passed the Usim >= ε screening of phase 2, so including it can only
   over-approximate, never drop a true answer (the paper's anytime bound
   semantics); the count surfaces as [stats.degraded_candidates] so the
   caller can flag the reply. With [deadline = None] and no armed faults
   this path is byte-for-byte the exact pipeline.

   [?cache] arms the cross-query cache: each candidate verifies under its
   own seed-derived PRNG stream, so its SSP is a pure function of
   (query, graph, verifier config, seed) and safe to memoise — cached
   answers are bit-identical to cold ones (DESIGN.md §13). The deadline
   check stays ahead of the cache lookup: a late candidate degrades to
   its bounds whether or not a cached value exists, preserving the
   budget semantics. Adaptive verifiers stop at the query's epsilon. *)
let run_on ?deadline ?cache pool db q config =
  validate_config config;
  Psst_obs.incr m_runs;
  let p = prune_phases ?cache db q config in
  let stop =
    match config.verifier with
    | `Smp vc when vc.adaptive -> Some config.epsilon
    | _ -> None
  in
  (* Phase 3: verification of the undecided candidates. *)
  let results, t_verification =
    Timer.time (fun () ->
        Pool.map_array pool ~chunk:1
          (fun gi ->
            let late =
              match deadline with
              | None -> false
              | Some dl -> Unix.gettimeofday () > dl
            in
            if late then (gi, true, 0., true)
            else
              match Timer.time (fun () -> candidate_ssp p.front ~stop db config gi) with
              | v, t -> (gi, v >= config.epsilon, t, false)
              | exception Psst_fault.Injected _ -> (gi, true, 0., true))
          (Array.of_list (List.rev p.candidates)))
  in
  let verified =
    Array.to_list results
    |> List.filter_map (fun (gi, keep, _, _) -> if keep then Some gi else None)
  in
  let t_verification_cpu =
    Array.fold_left (fun acc (_, _, t, _) -> acc +. t) 0. results
  in
  let degraded =
    Array.fold_left (fun acc (_, _, _, d) -> if d then acc + 1 else acc) 0 results
  in
  Log.debug (fun m ->
      m "query: %d structural, %d pruned, %d accepted, %d verified, %d degraded"
        (List.length p.front.survivors) (List.length p.rejected)
        (List.length p.accepted) (List.length p.candidates) degraded);
  outcome ~label:"query" db p ~verified ~degraded ~t_verification
    ~t_verification_cpu ~verify_domains:(Pool.size pool)

(* Bounds-only fallback: phases 1–2 alone, every undecided candidate
   included. The all-degraded limit of [run_on ?deadline] — used when the
   verification stage itself is unavailable, so the server can still give
   a correct-to-bounds, flagged answer instead of an error. *)
let run_bounds_only ?cache db q config =
  validate_config config;
  Psst_obs.incr m_runs;
  let p = prune_phases ?cache db q config in
  outcome ~label:"bounds-only" db p ~verified:(List.rev p.candidates)
    ~degraded:(List.length p.candidates) ~t_verification:0.
    ~t_verification_cpu:0. ~verify_domains:0

let deadline_of_budget = function
  | Some ms when ms > 0. -> Some (Unix.gettimeofday () +. (ms /. 1000.))
  | _ -> None

let run ?(domains = 1) ?budget_ms ?cache db q config =
  let deadline = deadline_of_budget budget_ms in
  Pool.with_pool ~domains (fun pool -> run_on ?deadline ?cache pool db q config)

let run_batch ?budget_ms ?cache pool db queries config =
  validate_config config;
  (* One absolute deadline for the whole batch, fixed before the fan-out:
     however the pool schedules the queries, they degrade against the
     same wall-clock instant. *)
  let deadline = deadline_of_budget budget_ms in
  Pool.map_array pool ~chunk:1
    (fun q -> run_on ?deadline ?cache pool db q config)
    (Array.of_list queries)
  |> Array.to_list

let run_exact_scan db q config =
  validate_config config;
  Psst_obs.incr m_exact_scans;
  let (relaxed, status), t_relax =
    Timer.time (fun () ->
        Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta)
  in
  let answers, t =
    Timer.time (fun () ->
        List.init (Corpus.length db.graphs) (fun gi -> gi)
        |> List.filter (fun gi ->
               Verify.exact (Corpus.get db.graphs gi) relaxed >= config.epsilon)
        |> List.map (global db))
  in
  let stats =
    {
      relaxed_count = List.length relaxed;
      relaxed_truncated = status = `Truncated;
      structural_candidates = Corpus.length db.graphs;
      prob_candidates = Corpus.length db.graphs;
      accepted_by_bounds = 0;
      pruned_by_bounds = 0;
      degraded_candidates = 0;
      t_relax;
      t_structural = 0.;
      t_probabilistic = 0.;
      t_verification = t;
      t_verification_cpu = t;
      verify_domains = 1;
    }
  in
  { answers; stats; trace = trace_of ~label:"exact-scan" ~answers stats }

let ground_truth db q config =
  let relaxed, _ = Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta in
  List.init (Corpus.length db.graphs) (fun gi -> gi)
  |> List.filter (fun gi ->
         Distance.within q (Corpus.skeleton db.graphs gi) ~delta:config.delta
         && Verify.exact (Corpus.get db.graphs gi) relaxed >= config.epsilon)
  |> List.map (global db)

(* --- persistence (DESIGN.md §9) --- *)

module Store = Psst_store

(* Wire codec for [config], shared by the RPC protocol (lib/server) and any
   future persisted query plans. Decoding validates the variant tags and the
   same numeric ranges as [validate_config], so a corrupted or adversarial
   payload surfaces as [Store_error], never as a bogus query. *)
let put_config e (c : config) =
  Store.put_f64 e c.epsilon;
  Store.put_i64 e c.delta;
  Store.put_i64 e (match c.mode with Pruning.Random_pick -> 0 | Optimized -> 1);
  Store.put_bool e c.certified;
  (match c.verifier with
  | `Exact -> Store.put_i64 e 0
  | `Smp (vc : Verify.config) ->
    Store.put_i64 e 1;
    Store.put_f64 e vc.tau;
    Store.put_f64 e vc.xi;
    Store.put_i64 e vc.emb_cap;
    Store.put_bool e vc.adaptive);
  Store.put_i64 e c.relax_cap;
  Store.put_i64 e c.seed

let get_config d =
  let epsilon = Store.get_f64 d in
  let delta = Store.get_i64 d in
  let mode =
    match Store.get_i64 d with
    | 0 -> Pruning.Random_pick
    | 1 -> Pruning.Optimized
    | t -> Store.error "config: unknown pruning mode tag %d" t
  in
  let certified = Store.get_bool d in
  let verifier =
    match Store.get_i64 d with
    | 0 -> `Exact
    | 1 ->
      let tau = Store.get_f64 d in
      let xi = Store.get_f64 d in
      let emb_cap = Store.get_i64 d in
      let adaptive = Store.get_bool d in
      if not (tau > 0. && xi > 0. && xi < 1. && emb_cap > 0) then
        Store.error "config: invalid verifier parameters (tau %g, xi %g, emb_cap %d)"
          tau xi emb_cap;
      `Smp { Verify.tau; xi; emb_cap; adaptive }
    | t -> Store.error "config: unknown verifier tag %d" t
  in
  let relax_cap = Store.get_i64 d in
  let seed = Store.get_i64 d in
  let c = { epsilon; delta; mode; certified; verifier; relax_cap; seed } in
  (match validate_config c with
  | () -> ()
  | exception Invalid_argument msg -> Store.error "config: %s" msg);
  c

(* --- the database image (DESIGN.md §9, §15) ---

   One layout: the graphs with an offset table, so a mapped corpus can
   decode one graph without scanning its predecessors, and the PMI as
   delta-coded postings and a fixed-width bounds array
   ([Pmi.to_sections]), which the structural filter also reads. The
   "db.base" section carries the global-id offset of a shard and is
   written only when non-zero. The eager and the mapped loaders read the
   PMI and "db.base" through the same validators. An image written when
   the structural counts had sections of their own still loads: its
   "structural.flat.*" sections are ignored. *)

let database_sections db =
  let garr = Corpus.to_array db.graphs in
  let graphs = Store.encoder () in
  let n = Array.length garr in
  Store.put_i64 graphs n;
  let offsets = Array.make (n + 1) 0 in
  offsets.(0) <- Store.enc_length graphs;
  Array.iteri
    (fun i g ->
      Pgraph_io.encode_binary graphs g;
      offsets.(i + 1) <- Store.enc_length graphs)
    garr;
  let offs = Store.encoder () in
  Store.put_array offs Store.put_i64 offsets;
  let base =
    if db.base = 0 then []
    else begin
      let e = Store.encoder () in
      Store.put_i64 e db.base;
      [ Store.section "db.base" e ]
    end
  in
  (Store.section "graphs" graphs :: Store.section "graphs.offsets" offs
   :: Pmi.to_sections ~db:garr db.pmi)
  @ base

(* [small name] is the payload of a small section, [None] when the image
   lacks it. *)
let read_base small =
  match small "db.base" with
  | None -> 0
  | Some payload ->
    let d = Store.decoder ~name:"db.base" payload in
    let b = Store.get_nat d in
    Store.expect_end d;
    b

(* Files of the retired classic layout carry a "structural" section; they
   are refused as a whole, so a caller that can rebuild the index does. *)
let reject_retired_layout path has =
  if has "structural" then
    Store.error
      "store %s is in the retired classic index layout — re-index it" path

let database_of_sections ~path ~salvage sections =
  let small name =
    List.find_opt (fun (s : Store.section) -> s.Store.name = name) sections
    |> Option.map (fun (s : Store.section) -> s.Store.payload)
  in
  reject_retired_layout path (fun name -> small name <> None);
  (* The graphs are the source of truth — nothing to rebuild them from, so
     even a salvage load requires them intact; the PMI sections are
     self-healing, and the structural filter reads the PMI.
     [Pmi.of_sections] re-fingerprints the graphs against the stored
     fingerprint, so a file stitched together from two different stores
     is rejected. *)
  let graphs =
    Store.decode_section sections "graphs" (fun d ->
        Store.get_array d Pgraph_io.decode_binary)
  in
  let pmi = Pmi.of_sections ~salvage ~db:graphs sections in
  {
    graphs = Corpus.of_array graphs;
    features = Array.to_list (Pmi.features pmi);
    structural = Pmi.structural pmi;
    pmi;
    base = read_base small;
  }

let save_database ?(flat = true) path db =
  if not flat then
    invalid_arg "Query.save_database: the classic layout is retired (~flat:false)";
  Store.write_file path ~kind:Store.Database
    (Store.align_payloads ~targets:[ "pmi.flat.bounds" ] (database_sections db))

(* Zero-copy load: only the small metadata sections (directories,
   features, config) are decoded at open. The graphs stay in the mapping
   behind a lazily-decoding {!Corpus}, and the PMI postings and bounds —
   the bulk, which the structural filter reads too — are read in place,
   so time-to-first-query does not scale with database size. *)
let load_database_mapped path =
  let m = Store.map_file path ~kind:Store.Database in
  Fun.protect
    ~finally:(fun () -> Store.mapped_release m)
    (fun () ->
      reject_retired_layout path (Store.mapped_has m);
      let small name =
        if Store.mapped_has m name then Some (Store.mapped_section_string m name)
        else None
      in
      let offsets =
        let d =
          Store.decoder ~name:"graphs.offsets"
            (Store.mapped_section_string m "graphs.offsets")
        in
        let v = Store.get_array d Store.get_i64 in
        Store.expect_end d;
        v
      in
      let graphs = Corpus.of_mapped m ~section:"graphs" ~offsets in
      let pmi = Pmi.of_mapped_lazy m ~ng:(Corpus.length graphs) in
      {
        graphs;
        features = Array.to_list (Pmi.features pmi);
        structural = Pmi.structural pmi;
        pmi;
        base = read_base small;
      })

let load_database ?(salvage = false) ?(mmap = false) path =
  let eager () =
    let sections =
      if salvage then
        (Store.read_file_salvage path ~kind:Store.Database).Store.intact
      else Store.read_file path ~kind:Store.Database
    in
    database_of_sections ~path ~salvage sections
  in
  if not mmap then eager ()
  else
    match load_database_mapped path with
    | db -> db
    | exception Store.Store_error _ when salvage ->
      (* No partial salvage on a mapping — fall back to the eager salvage
         loader, which can rebuild damaged PMI columns. *)
      eager ()
