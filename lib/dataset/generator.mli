(** Synthetic STRING-like probabilistic PPI corpus (paper §6; see
    DESIGN.md §4 for the substitution rationale).

    Each graph belongs to an {e organism}; organisms share a structural
    motif and a biased label distribution, so a query extracted from one
    organism's graph preferentially matches that organism — the basis of
    the Fig 14 classification experiment. Graphs may additionally carry a
    grafted copy of a {e foreign} organism's motif: structural noise whose
    edges are negatively correlated, the probabilistic analogue of
    spurious interactions.

    Edge existence probabilities are Beta-distributed; neighbor-edge JPTs
    tilt the independent product with an Ising-style agreement coupling
    (positive inside the own motif, negative in foreign grafts — see
    DESIGN.md §4 for why this replaces the paper's max-of-neighbors
    normalisation) and are folded into the chain-consistent factorisation
    required by {!Pgraph.make} (running-intersection order: one factor per
    vertex of a BFS traversal, conditioned on the parent's attachment
    edge). *)

type params = {
  num_graphs : int;
  num_organisms : int;
  min_vertices : int;
  max_vertices : int;
  extra_edge_ratio : float;  (** extra edges per vertex beyond the tree *)
  num_vertex_labels : int;  (** COG-category stand-ins *)
  num_edge_labels : int;
  mean_edge_prob : float;  (** paper: 0.383 *)
  motif_edges : int;  (** organism motif size *)
  max_new_edges_per_factor : int;  (** JPT scope control *)
  coupling_motif : float;  (** Ising tilt inside the own motif (> 0) *)
  coupling_noise : float;  (** Ising tilt inside foreign grafts (< 0) *)
  foreign_motif_prob : float;  (** chance of grafting a foreign motif *)
  seed : int;
}

val default_params : params

type t = {
  graphs : Pgraph.t array;
  organisms : int array;  (** graph id -> organism id *)
  motifs : Lgraph.t array;  (** organism id -> its motif *)
  grafts : int option array;
      (** graph id -> organism whose motif was grafted in, if any *)
  params : params;
}

val generate : params -> t

(** [extract_query rng t ~edges] grows a random connected edge-subgraph of
    that size from a random skeleton; returns it with the source graph's
    organism. With [from_motif] the walk is confined to the source graph's
    motif copy, so the query probes structure shared by every member of
    the organism (the Fig 14 setting). Raises [Invalid_argument] when
    [edges] exceeds every eligible graph. *)
val extract_query :
  ?from_motif:bool -> Psst_util.Prng.t -> t -> edges:int -> Lgraph.t * int

(** All graph ids of one organism (the Fig 14 ground truth). *)
val organism_members : t -> int -> int list

(** [independent_db t] — every graph converted to the independent-edge
    model with identical marginals (the IND competitor). *)
val independent_db : t -> Pgraph.t array
