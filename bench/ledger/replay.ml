(* The traced replay: a workload's read requests re-executed in-process
   on one domain through each layer's public functions, in the order
   [Query.run] calls them —

     relax -> structural -> Pruning.prepare -> Pruning.evaluate per
     structural survivor -> for each undecided candidate:
     Verify.embedding_sets -> smp_prepare -> smp_run

   — with a span around every call and counts taken at the same
   boundaries. With [~memo:true] the replay keeps what the server's
   Qcache keeps (relaxed set, prepared memberships, final SSP per graph)
   so repeated pool queries cost what they cost when served warm.

   Each replayed request runs back to back with an untraced [Query.run]
   of the same request (through a fresh Qcache when memoising), in
   alternating order; the reference outcome is both the correctness
   oracle for the replay and the baseline of the tracing overhead. For
   the overhead, the requests then run in more rounds of such pairs,
   traced into throwaway spans, and each side keeps its fastest time per
   request: the machine's speed changes within seconds by far more than
   the overhead being measured, and the fastest runs of both sides see
   the same speed. There are at least [min_rounds] more rounds, and more
   while the pairs have taken less than [overhead_budget] CPU seconds in
   all, up to [max_rounds]: a minimum over three runs of a short replay
   still varies by several percent. *)

let min_rounds = 2
let max_rounds = 16
let overhead_budget = 8.

type counts = {
  mutable requests : int;
  mutable patterns : int;
  mutable survivors : int;
  mutable decided : int;
  mutable smp_calls : int;
  mutable samples : int;
  mutable minor_words : float;
}

type memo_entry = {
  relaxed : Lgraph.t list * [ `Complete | `Truncated ];
  prepared : Pruning.prepared;
  ssp : (int, float) Hashtbl.t;
}

type result = {
  spans : Spans.t;
  counts : counts;
  outcomes : (int list * Psst_proto.query_stats) array;  (** replay, per request *)
  reference : Query.outcome array;  (** untraced [Query.run], per request *)
  cpu : (float * float) array;
      (** (traced, untraced) CPU seconds per request, each the fastest of
          its side's runs *)
  graphs : int;
}

let traced_request spans counts memo (db : Query.database) (config : Query.config) ~req q =
  let vc =
    match config.verifier with
    | `Smp vc -> vc
    | `Exact -> invalid_arg "Replay: the ledger replays the sampling verifier only"
  in
  let key = Lgraph.to_string q in
  let cached = Option.bind memo (fun m -> Hashtbl.find_opt m key) in
  Spans.span spans ~req ~parent:(-1) "request" (fun root ->
      let relaxed, status =
        Spans.span spans ~req ~parent:root "relax" (fun _ ->
            match cached with
            | Some e -> e.relaxed
            | None -> Relax.relaxed_set ~cap:config.relax_cap q ~delta:config.delta)
      in
      let structural =
        Spans.span spans ~req ~parent:root "structural" (fun _ ->
            Structural.candidates db.structural ~skeleton:(Corpus.skeleton db.graphs) q
              ~delta:config.delta)
      in
      let prepared =
        Spans.span spans ~req ~parent:root "pruning.prepare" (fun _ ->
            match cached with Some e -> e.prepared | None -> Pruning.prepare db.pmi ~relaxed)
      in
      let entry =
        match (memo, cached) with
        | _, Some e -> Some e
        | Some m, None ->
          let e = { relaxed = (relaxed, status); prepared; ssp = Hashtbl.create 64 } in
          Hashtbl.replace m key e;
          Some e
        | None, None -> None
      in
      let accepted, candidates, pruned =
        List.fold_left
          (fun (acc, cand, pr) gi ->
            let r =
              Spans.span spans ~req ~parent:root "pruning.evaluate" (fun _ ->
                  let rng = Query.prune_stream ~seed:config.seed (Query.global db gi) in
                  Pruning.evaluate ~certified:config.certified rng db.pmi prepared ~graph:gi
                    ~epsilon:config.epsilon ~mode:config.mode)
            in
            match r.Pruning.decision with
            | `Accepted -> (gi :: acc, cand, pr)
            | `Candidate -> (acc, gi :: cand, pr)
            | `Pruned -> (acc, cand, gi :: pr))
          ([], [], []) structural
      in
      let verify gi =
        Spans.span spans ~req ~parent:root "verify" (fun vid ->
            match Option.bind entry (fun e -> Hashtbl.find_opt e.ssp gi) with
            | Some v -> v
            | None ->
              let g = Corpus.get db.graphs gi in
              let sets =
                Spans.span spans ~req ~parent:vid "verify.embedding_sets" (fun _ ->
                    Verify.embedding_sets ~config:vc g relaxed)
              in
              let prep =
                Spans.span spans ~req ~parent:vid "verify.smp_prepare" (fun _ ->
                    Verify.smp_prepare g sets)
              in
              let rng = Psst_util.Prng.stream ~seed:config.seed (Query.global db gi) in
              let stop_epsilon = if vc.adaptive then Some config.epsilon else None in
              let r =
                Spans.span spans ~req ~parent:vid "verify.smp_run" (fun _ ->
                    let w0 = Gc.minor_words () in
                    let r = Verify.smp_run ~config:vc ?stop_epsilon rng prep in
                    counts.minor_words <- counts.minor_words +. (Gc.minor_words () -. w0);
                    r)
              in
              counts.smp_calls <- counts.smp_calls + 1;
              counts.samples <- counts.samples + r.samples;
              Option.iter (fun e -> Hashtbl.replace e.ssp gi r.value) entry;
              r.value)
      in
      let verified = List.filter (fun gi -> verify gi >= config.epsilon) (List.rev candidates) in
      counts.requests <- counts.requests + 1;
      counts.patterns <- counts.patterns + List.length relaxed;
      counts.survivors <- counts.survivors + List.length structural;
      counts.decided <- counts.decided + List.length accepted + List.length pruned;
      let answers = List.sort compare (List.map (Query.global db) (accepted @ verified)) in
      ( answers,
        {
          Psst_proto.relaxed_truncated = status = `Truncated;
          structural_candidates = List.length structural;
          prob_candidates = List.length candidates;
          accepted_by_bounds = List.length accepted;
          pruned_by_bounds = List.length pruned;
          degraded = false;
        } ))

let fresh_counts () =
  { requests = 0; patterns = 0; survivors = 0; decided = 0; smp_calls = 0; samples = 0; minor_words = 0. }

let run ~memo (db : Query.database) config queries =
  let spans = Spans.create () in
  let counts = fresh_counts () in
  let memo_tbl = if memo then Some (Hashtbl.create 16) else None in
  let cache = if memo then Some (Qcache.create ()) else None in
  (* The two sides are compared in process CPU time (the replay runs on
     this process's only busy thread), so load from other processes on
     the machine does not enter the overhead. *)
  let cpu f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  let pair ~traced_first replay offline =
    if traced_first then
      let o = replay () in
      (o, offline ())
    else
      let r = offline () in
      (replay (), r)
  in
  let offline q () = cpu (fun () -> Query.run ?cache db q config) in
  let runs =
    Array.mapi
      (fun i q ->
        let replay () = cpu (fun () -> traced_request spans counts memo_tbl db config ~req:i q) in
        pair ~traced_first:(i mod 2 = 1) replay (offline q))
      queries
  in
  let best = Array.map (fun ((_, t), (_, u)) -> (t, u)) runs in
  let spent = ref (Array.fold_left (fun acc (t, u) -> acc +. t +. u) 0. best) in
  let round = ref 0 in
  while !round < min_rounds || (!spent < overhead_budget && !round < max_rounds) do
    incr round;
    Array.iteri
      (fun i q ->
        let replay () =
          cpu (fun () -> traced_request (Spans.create ()) (fresh_counts ()) memo_tbl db config ~req:i q)
        in
        let (_, t), (_, u) = pair ~traced_first:((i + !round) mod 2 = 1) replay (offline q) in
        let bt, bu = best.(i) in
        best.(i) <- (Float.min t bt, Float.min u bu);
        spent := !spent +. t +. u)
      queries
  done;
  {
    spans;
    counts;
    outcomes = Array.map (fun ((o, _), _) -> o) runs;
    reference = Array.map (fun (_, (r, _)) -> r) runs;
    cpu = best;
    graphs = Corpus.length db.graphs;
  }

let ratio a b = if b = 0. then 0. else a /. b

let per_call h layer =
  match Hashtbl.find_opt h layer with
  | Some (calls, self) when calls > 0 -> (calls, self /. float_of_int calls)
  | _ -> (0, 0.)

(* The replay's per-layer metrics, named as in [Spec.per_layer]. *)
let metrics r =
  let h = Spans.self_times r.spans in
  let c = r.counts in
  let req = float_of_int c.requests in
  let total layer = snd (Option.value (Hashtbl.find_opt h layer) ~default:(0, 0.)) in
  let calls layer = float_of_int (fst (per_call h layer)) in
  let mean layer = snd (per_call h layer) in
  let covered = Hashtbl.fold (fun l (_, s) acc -> if l = "request" then acc else acc +. s) h 0. in
  [
    ("relax.ms", 1e3 *. ratio (total "relax") req);
    ("relax.patterns", ratio (float_of_int c.patterns) req);
    ("structural.ms", 1e3 *. ratio (total "structural") req);
    ( "structural.survivor_ratio",
      ratio (float_of_int c.survivors) (req *. float_of_int r.graphs) );
    ("pruning.prepare_ms", 1e3 *. mean "pruning.prepare");
    ("pruning.evaluate_us", 1e6 *. mean "pruning.evaluate");
    ("pruning.evaluate_calls", ratio (calls "pruning.evaluate") req);
    ("pruning.decided_ratio", ratio (float_of_int c.decided) (float_of_int c.survivors));
    ("verify.calls", ratio (float_of_int c.smp_calls) req);
    ("verify.embedding_sets_ms", 1e3 *. mean "verify.embedding_sets");
    ("verify.smp_prepare_ms", 1e3 *. mean "verify.smp_prepare");
    ("verify.smp_run_ms", 1e3 *. mean "verify.smp_run");
    ("verify.samples", ratio (float_of_int c.samples) (float_of_int c.smp_calls));
    ("verify.ns_per_sample", 1e9 *. ratio (total "verify.smp_run") (float_of_int c.samples));
    ("verify.minor_words_per_sample", ratio c.minor_words (float_of_int c.samples));
    ("trace.coverage", ratio covered (Spans.root_time r.spans));
    ( "trace.overhead_pct",
      let sum side = Array.fold_left (fun acc c -> acc +. side c) 0. r.cpu in
      100. *. (ratio (sum fst) (sum snd) -. 1.) );
  ]
