type hit = { graph : int; ssp : float }

type stats = {
  structural_candidates : int;
  verified : int;
  bound_skipped : int;
  relaxed_truncated : bool;
}

let m_runs = Psst_obs.counter "topk.runs"

type outcome = { hits : hit list; stats : stats }

(* Like [Query.run], every candidate draws from its own PRNG stream
   keyed on (seed, global graph id): the Usim ranking bound uses the
   pruning-stream family, verification the verification-stream family.
   A candidate's (upper, ssp) pair is therefore a pure function of the
   query and the graph — independent of ranking order, of which other
   graphs share the database, and of how many competitors were verified
   before it. That is what makes the per-shard top-k lists of a
   partitioned corpus mergeable into exactly the monolithic answer
   ([Psst_shard.merge_topk]), and what lets [cache] memoise final SSPs
   as [Query.run] does. *)
let run ?cache (db : Query.database) q ~k (config : Query.config) =
  if k <= 0 then invalid_arg "Topk.run: k must be positive";
  Psst_obs.incr m_runs;
  let f = Query.front ~cache db q config in
  (* Candidates ordered by decreasing upper bound. *)
  let ranked =
    List.map
      (fun gi ->
        let rng = Query.prune_stream ~seed:config.seed (Query.global db gi) in
        let u =
          Pruning.usim ~certified:config.certified rng db.pmi f.prepared
            ~graph:gi ~mode:config.mode
        in
        (gi, u))
      f.survivors
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  (* Best-first: verify until the k-th best verified SSP dominates every
     remaining upper bound. The verified set is kept as a sorted list
     (k is small). Reported SSPs are clamped to the candidate's upper
     bound: the sampled estimate can exceed it, and without the clamp a
     skipped candidate (upper < kth best) could still have out-sampled
     the k-th hit — the clamp is what makes the skip rule lossless, and
     with it the best-first result provably equals the full ranking by
     clamped SSP (hence also the threshold-aware merge of per-shard
     top-k lists). *)
  let hits = ref [] in
  let kth_best () =
    if List.length !hits < k then 0.
    else match List.nth_opt !hits (k - 1) with Some h -> h.ssp | None -> 0.
  in
  let verified = ref 0 and skipped = ref 0 in
  List.iter
    (fun (gi, upper) ->
      if upper < kth_best () || (List.length !hits >= k && upper = 0.) then
        incr skipped
      else begin
        incr verified;
        (* No [stop]: top-k ignores [config.epsilon] (a ranking query has
           no decision threshold), so an adaptive verifier stops on its
           precision test alone. *)
        let ssp = Float.min upper (Query.candidate_ssp f ~stop:None db config gi) in
        if ssp > 0. then begin
          hits := { graph = Query.global db gi; ssp } :: !hits;
          hits :=
            List.sort
              (fun a b ->
                match compare b.ssp a.ssp with
                | 0 -> compare a.graph b.graph
                | c -> c)
              !hits
        end
      end)
    ranked;
  let top = List.filteri (fun i _ -> i < k) !hits in
  {
    hits = top;
    stats =
      {
        structural_candidates = List.length f.survivors;
        verified = !verified;
        bound_skipped = !skipped;
        relaxed_truncated = f.truncated;
      };
  }
