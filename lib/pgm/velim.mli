(** Exact inference over a set of factors by variable elimination.

    This is the engine behind exact subgraph-isomorphism / similarity
    probabilities and the Pr(Bf) terms of the paper's verification sampler
    (the paper uses a junction tree, ref [17]; variable elimination with a
    min-degree order computes the same exact marginals). *)

(** [elimination_order factors vars] is the order in which {!marginal}
    eliminates [vars]: min-degree, i.e. each step takes the variable whose
    bucket product (the union of the current scopes mentioning it) is
    smallest, the lowest id winning ties; the bucket's merged scope,
    without the variable, then replaces it. *)
val elimination_order : Factor.t list -> int list -> int list

(** [marginal factors keep] eliminates every variable outside [keep] and
    returns the (unnormalised) joint factor over [keep]. *)
val marginal : Factor.t list -> int list -> Factor.t

(** [partition_value factors] is the total mass of the product (1.0 for a
    consistent chain factorisation). *)
val partition_value : Factor.t list -> float

(** [prob ?z ~evidence factors] is the probability of the partial
    assignment [evidence = [(var, value); ...]], normalised by the partition
    value. [z], when given, must be [partition_value factors]: callers that
    ask many questions of one factor list pass it to skip recomputing it
    (the result is the same float). Raises [Invalid_argument] when the
    partition value is not positive. *)
val prob : ?z:float -> evidence:(int * bool) list -> Factor.t list -> float

(** [prob_all_present factors vars] is [prob] with every var set to true —
    the probability that a set of edges co-exists. *)
val prob_all_present : ?z:float -> Factor.t list -> int list -> float
