(** Probabilistic graphs (paper Def 2) and their possible-world semantics
    (Def 3, Eq 1).

    A probabilistic graph couples a deterministic skeleton [gc] with an
    ordered list of JPT factors over edge-id variables. The factor list is
    {e chain-consistent}: processed in order, every factor is the
    conditional distribution of its new edges given already covered ones, so
    the product of the factors is a normalised joint over all uncertain
    edges and Eq 1 holds verbatim (see DESIGN.md §3). Edges not mentioned
    by any factor are certain (present with probability 1). *)

type t

(** [make skeleton factors] validates scopes (edge ids in range) and chain
    consistency; raises [Invalid_argument] on violation. *)
val make : Lgraph.t -> Factor.t list -> t

(** [independent skeleton probs] builds the classical independent-edge model:
    one single-edge factor per (edge id, probability) pair. *)
val independent : Lgraph.t -> (int * float) list -> t

(** The certain graph [gc] — all uncertainty removed, every edge present. *)
val skeleton : t -> Lgraph.t

(** Ordered JPT factors (chain-consistent conditionals). *)
val factors : t -> Factor.t list

(** Junction tree over the factors, built lazily and cached. Raises
    [Invalid_argument] if the factor list violates the running-intersection
    requirement of {!Jtree.build} (graphs built by this library's
    constructors and generators always satisfy it). *)
val jtree : t -> Jtree.t

(** Edge ids that appear in some factor, sorted. *)
val uncertain_edges : t -> int list

(** Edge ids never mentioned by a factor, hence present in every world. *)
val certain_edges : t -> int list

(** [jpt t scope] is the user-facing joint probability table of the given
    neighbor-edge set: the normalised marginal over [scope]. *)
val jpt : t -> int list -> Factor.t

(** Marginal existence probability of one edge. *)
val edge_marginal : t -> int -> float

(** [world_prob t present] is Pr(g => g') for the world whose present edge
    set is [present] (certain edges must be present, else 0). *)
val world_prob : t -> Psst_util.Bitset.t -> float

(** [plan t] is [Velim.plan (factors t)], built on first use under the
    graph's lock and kept: every exact probability of the graph's bounds
    is asked of it. It does not compile the world sampler, which
    {!sample_mask} builds on its own first use. *)
val plan : t -> Velim.plan

(** Partition value Z of the factor product (1 up to rounding for a
    chain-consistent list), read from {!plan}: exactly
    [Velim.partition_value (factors t)], bit for bit and errors included,
    for [Velim.prob ~z]. *)
val partition_value : t -> float

(** [sample_mask rng t] draws a possible world as its present-edge mask.
    The sampler is compiled on first use and kept (counted by the
    [pgraph.sampler_compiles] metric); draws consume [rng] exactly as
    forward sampling factor by factor does. *)
val sample_mask : Psst_util.Prng.t -> t -> Psst_util.Bitset.t

(** [sample_world rng t] draws a possible world; returns the present-edge
    mask ({!sample_mask} with the same [rng] gives the same one) and the
    world graph (all vertices kept, edge ids renumbered; the
    int array maps new edge id -> original edge id). *)
val sample_world :
  Psst_util.Prng.t -> t -> Psst_util.Bitset.t * Lgraph.t * int array

(** [iter_worlds t f] enumerates every possible world (mask, probability).
    Raises [Invalid_argument] when there are more than [30] uncertain
    edges. Zero-probability worlds are skipped. *)
val iter_worlds : t -> (Psst_util.Bitset.t -> float -> unit) -> unit

(** [to_independent t] rebuilds the graph under the independence assumption,
    keeping each edge's marginal (paper §6's IND competitor). *)
val to_independent : t -> t

(** Number of JPT table entries stored — the "index size" unit used when
    reporting PMI sizes. *)
val table_entries : t -> int

val pp : Format.formatter -> t -> unit
