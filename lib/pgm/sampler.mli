(** Forward sampling over an ordered, chain-consistent factor list.

    Probabilistic graphs in this library (see [Psst_pgraph.Pgraph]) carry
    their JPTs as an ordered list where each factor is the conditional
    distribution of its new variables given the variables already covered by
    earlier factors (the root factor is a plain distribution). The product
    of such a list is a normalised joint — the paper's Eq 1 — and sampling
    is a single forward pass. *)

(** A factor list compiled for repeated forward sampling: for every factor,
    one normalised table per assignment of its already-covered variables,
    with the cumulative sums the categorical draw scans. Compiling costs
    one pass over the tables; each draw is then one
    [Random.State.float] per factor that introduces a variable. Draws
    consume the generator exactly as conditioning and normalising each
    factor on the fly would, and pick the same entries. Immutable, so one
    compiled sampler may be drawn from by several domains at once. *)
type compiled

(** [compile factors] prepares [factors] (in order) for {!draw}. Raises
    [Invalid_argument] on a negative variable id. A slice that cannot be
    normalised is reported only when a draw reaches it, with the
    [Invalid_argument] that {!Factor.normalize} or
    {!Psst_util.Prng.categorical} raises. *)
val compile : Factor.t list -> compiled

(** [draw c rng mask] draws a full assignment and adds every variable
    drawn true to [mask]; variables drawn false are left as they are. The
    factors' variables must be absent from [mask] on entry and below its
    capacity. *)
val draw : compiled -> Psst_util.Prng.t -> Psst_util.Bitset.t -> unit

(** [sample rng factors] is {!compile} then one {!draw}: a full assignment
    as a lookup function (false for variables no factor mentions) and the
    [(var, value)] pairs in increasing variable order.

    Exact for chain-consistent lists; for arbitrary factor lists the result
    is biased (use {!Velim} to calibrate first). *)
val sample : Psst_util.Prng.t -> Factor.t list -> (int -> bool) * (int * bool) list

(** [is_chain_consistent ~eps factors] checks that, processed in order, each
    factor is a proper conditional of its new variables given its already
    covered ones (all conditional slices sum to 1). *)
val is_chain_consistent : eps:float -> Factor.t list -> bool
