(** Exact probability computations on probabilistic graphs — the paper's
    [Exact] competitor and the ground truth for tests.

    All of these are exponential in the worst case (the problems are
    #P-complete, paper Thm 2); they are meant for small graphs / features. *)

(** [minimal_antichain sets] keeps the inclusion-minimal sets of [sets]
    (smallest first): the event "some set is fully present" is unchanged,
    and fewer sets keep the exact and sampled estimators tractable. *)
val minimal_antichain : Psst_util.Bitset.t list -> Psst_util.Bitset.t list

(** [prob_any_present t sets] is the probability that at least one of the
    given edge sets (bitsets over the skeleton's edge ids) is fully present
    in a random possible world — the DNF probability behind Lemma 1 and
    Eq 10. Computed over the marginal of the union scope when eliminating
    onto it never needs a table wider than a factor
    ({!Velim.marginal_width} at most {!Factor.max_vars}), falling back to
    inclusion-exclusion with memoised conjunction probabilities. Raises
    [Failure] when the fallback would need more than 22 minimal sets. *)
val prob_any_present : Pgraph.t -> Psst_util.Bitset.t list -> float

(** [prob_any_present_naive t sets] — same value as {!prob_any_present},
    computed by brute-force enumeration of {e every} possible world over
    all uncertain edges, i.e. with the cost profile of the paper's
    index-free Exact competitor (exponential in the number of uncertain
    edges; guard at 26). The enumeration runs even when [sets] is empty —
    an index-free scan cannot know the answer is 0 without looking at the
    worlds. Used by the Fig 9/13 experiment arms. *)
val prob_any_present_naive : Pgraph.t -> Psst_util.Bitset.t list -> float

(** [sip t f] is the exact subgraph-isomorphism probability Pr(f ⊆iso t)
    (Def 6): the probability that some embedding of [f] in the skeleton
    survives. [cap] bounds the number of distinct embeddings collected
    (default 512; raising [Failure] if exceeded, since dropping embeddings
    would silently under-estimate). *)
val sip : ?cap:int -> Pgraph.t -> Lgraph.t -> float

(** [ssp t q ~delta] is the exact subgraph-similarity probability
    Pr(q ⊆sim t) (Def 9) by brute-force possible-world enumeration;
    exponential in the number of uncertain edges. *)
val ssp : Pgraph.t -> Lgraph.t -> delta:int -> float

