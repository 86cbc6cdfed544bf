(** Top-k probabilistic subgraph similarity search.

    A natural companion to the paper's threshold queries: return the [k]
    database graphs with the highest subgraph-similarity probability
    Pr(q ⊆sim g). The PMI bounds drive a best-first search — candidates
    are verified in decreasing order of their Usim upper bound, and the
    search stops as soon as the k-th best verified probability dominates
    every unverified candidate's upper bound, so most candidates are never
    verified. *)

type hit = { graph : int; ssp : float }
(** [graph] is a global id ({!Query.database}[.base] [+] local index);
    [ssp] is clamped to the candidate's Usim upper bound, which is what
    makes the best-first skip rule lossless and per-shard top-k lists
    mergeable into exactly the monolithic ranking. *)

type stats = {
  structural_candidates : int;
  verified : int;  (** candidates whose SSP was actually computed *)
  bound_skipped : int;  (** candidates dismissed by the upper bound *)
  relaxed_truncated : bool;
      (** the relaxed set was sampled ([relax_cap] hit): reported SSPs
          are lower bounds, so the ranking may under-rank some graphs *)
}

type outcome = { hits : hit list; stats : stats }

(** [run ?cache db q ~k config] — [config.epsilon] is ignored (top-k has
    no threshold; an adaptive SMP verifier therefore stops on its
    precision test alone, never on a decision threshold); [delta],
    [mode], [certified] and [verifier] apply. Hits are sorted by
    decreasing SSP; fewer than [k] hits are returned when fewer graphs
    have positive SSP.

    Every candidate ranks and verifies under its own PRNG streams keyed
    on (seed, global graph id), so its (upper bound, SSP) pair never
    depends on ranking order or on which other graphs share the
    database — per-shard top-k lists of a partitioned corpus merge into
    exactly the monolithic answer ({!Psst_shard.merge_topk}).

    The relaxed set, structural candidates and PMI memberships come from
    {!Query.front} and each SSP from {!Query.candidate_ssp} — the phases
    and verifier {!Query.run} uses — so [cache] memoises the same
    artifacts, final SSPs included, and a fixed-budget or exact SSP that
    {!Query.run} stored is read back here (before clamping). Cached runs
    stay bit-identical to cold ones. *)
val run :
  ?cache:Qcache.t -> Query.database -> Lgraph.t -> k:int -> Query.config -> outcome
