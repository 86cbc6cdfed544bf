(** Exact inference over a set of factors by variable elimination.

    This is the engine behind exact subgraph-isomorphism / similarity
    probabilities and the Pr(Bf) terms of the paper's verification sampler
    (the paper uses a junction tree, ref [17]; variable elimination with a
    min-degree order computes the same exact marginals).

    {b One kernel.} Every function below runs the same elimination: the
    evidence is read in place, the free variables are eliminated in
    {!elimination_order}, and each bucket is fused: an entry of the table
    that eliminating [v] creates is [P(m, v=0) +. P(m, v=1)], where [P]
    multiplies, left to right, the entries of the current tables
    mentioning [v] — the most recently created first, then the inputs in
    input order. That is exactly what conditioning copies of the factors,
    multiplying each bucket pairwise ({!Factor.multiply_all}) and summing
    out ({!Factor.sum_out}) gives, so every result is that loop's float,
    bit for bit, at any number of variables.

    {b Evidence.} An evidence list may repeat a variable: its first
    occurrence wins. Evidence on a variable no factor mentions (a negative
    id, say) is ignored. Evidence is read in place: a conditioned factor
    is its own table plus the index bits of its evidence-true variables,
    never a copy.

    {b Errors.} [Invalid_argument] with the message of the [Factor]
    operation the loop would have failed in: ["Factor.multiply: scope too
    large"] when a bucket of two or more tables spans more than
    {!Factor.max_vars} variables (see {!marginal_width}), and ["Factor.create:
    negative or NaN entry"] when a product is NaN (an infinite entry meets
    a zero one). A bucket that is both too wide and NaN reports the width.

    {b Domains.} Each call allocates its own working state, sized to the
    problem; there is no shared mutable state, so calls may run on several
    domains at once. *)

(** [elimination_order factors vars] is the order in which {!marginal}
    eliminates [vars]: min-degree, i.e. each step takes the variable whose
    bucket product (the union of the current scopes mentioning it) is
    smallest, the lowest id winning ties; the bucket's merged scope,
    without the variable, then replaces it. *)
val elimination_order : Factor.t list -> int list -> int list

(** [marginal factors keep] eliminates every variable outside [keep] and
    returns the (unnormalised) joint factor over the variables of [keep]
    that some factor mentions. *)
val marginal : Factor.t list -> int list -> Factor.t

(** [marginal_width factors keep] is the widest scope {!marginal}
    [factors keep] multiplies over: its largest bucket, or the final
    product over [keep]. [marginal] raises ["Factor.multiply: scope too
    large"] exactly when this exceeds {!Factor.max_vars}; it is computed
    without eliminating anything. *)
val marginal_width : Factor.t list -> int list -> int

(** [partition_value factors] is the total mass of the product (1.0 for a
    consistent chain factorisation). *)
val partition_value : Factor.t list -> float

(** [prob ?z ~evidence factors] is the probability of the partial
    assignment [evidence = [(var, value); ...]], normalised by the partition
    value. [z], when given, must be [partition_value factors]: callers that
    ask many questions of one factor list pass it to skip recomputing it
    (the result is the same float). Raises
    [Invalid_argument "Velim.prob: zero partition value"] when the
    partition value is not positive, before eliminating anything else. *)
val prob : ?z:float -> evidence:(int * bool) list -> Factor.t list -> float

(** [prob_all_present factors vars] is [prob] with every var set to true —
    the probability that a set of edges co-exists. *)
val prob_all_present : ?z:float -> Factor.t list -> int list -> float

(** {1 Evidence-local probabilities}

    A plan answers the questions whose evidence sets a group of variables
    to one value, as the PMI's bounds ask them: Pr(every edge of a set
    present), or Pr(every edge absent), for each embedding and cut of a
    graph. *)

(** A factor list split into the connected components of its factor
    graph (inputs sharing a variable belong to one component), each with
    the pick stream of its own free elimination (the (bucket size,
    variable id) of every step) and its final entry or the error it
    raised. Scope-0 inputs belong to no component. A plan is immutable
    once built: one plan may serve calls on several domains at once. *)
type plan

(** [plan factors] builds the plan of [factors]. It never raises: a
    component that cannot be eliminated on its own (too wide, or NaN)
    keeps its error for the calls that leave it untouched. *)
val plan : Factor.t list -> plan

(** [plan_partition_value (plan factors)] is [partition_value factors],
    bit for bit and errors included: the merge of the components'
    recorded free eliminations (see {!prob_set}), made once when the plan
    is built. *)
val plan_partition_value : plan -> float

(** [prob_set ?z plan set] is [(present, absent)]: [prob ~evidence
    factors] with every member of [set] set to [true], and with every
    member set to [false], where [plan = plan factors], bit for bit,
    without building an evidence list. Each side is [Ok p] with that
    call's float, or [Error e] with the exception ([Invalid_argument]) it
    would raise; the sides fail independently, so a NaN or negative
    product under one polarity leaves the other's float as it is. [z] is
    as for {!prob}; without it the partition value is
    {!plan_partition_value}, and its error, or
    ["Velim.prob: zero partition value"] when it is not positive, is
    both sides' error.

    A variable is fixed whichever value fixes it, so both polarities
    eliminate the same free variables in the same order through the same
    buckets: the touched components are posed and ordered once, and only
    the numeric elimination runs twice, with the evidence-true bits of
    each polarity.

    Only the components [set] touches are eliminated, by the kernel, on
    their inputs in input order; every untouched component reuses its
    recorded entry. The parts are then multiplied as the whole-list
    kernel multiplies them. Eliminating one variable changes the costs of
    that variable's component only, ties go to the lowest id inside every
    component as in the whole list, and a component's tables keep their
    relative work-list order whatever the other components do. So each
    component runs the same steps and products alone as in the whole
    list, and the whole list's min-degree sequence is the {e merge} of
    the components' pick streams: at each step, the least (bucket size,
    variable id) among the components' next picks. The merge gives the
    step at which each component leaves its one-entry tables; the final
    product multiplies them newest step first, then the fully fixed
    inputs (scope-0 ones included) in input order, exactly as the
    whole-list kernel's final work list does. An error is the one the
    first failing step in the merged order raises. Hence every float,
    and every error, is the whole-list kernel's. *)
val prob_set :
  ?z:float -> plan -> Psst_util.Bitset.t -> (float, exn) result * (float, exn) result
