(** The paper's parallel graph [cG] (§4.1.2, Fig 8, Thm 6, ref [22]).

    Each embedding of a feature becomes a "line" of labelled edges between
    two terminals [s] and [t]; edge labels are the {e original} edge ids, so
    the same label may appear on several lines. Theorem 6: the minimal
    embedding cuts of the feature are the minimal s-t cuts of [cG] that use
    no terminal-incident edge, read as label sets.

    The production path for cuts is {!Transversal.minimal_hitting_sets};
    this module exists to realise the paper's construction literally and to
    cross-check the two in tests. *)

type t

(** [build embeddings] — one line per embedding (its set of original edge
    ids). Raises [Invalid_argument] on an embedding with no edges. *)
val build : Embedding.t list -> t

val num_lines : t -> int

(** [disconnects t labels] removes every cG edge whose label is in [labels]
    and tests, by BFS over the explicit parallel-graph structure, whether
    [s] and [t] are separated. *)
val disconnects : t -> Psst_util.Bitset.t -> bool

(** [min_label_cuts ?cap t] enumerates the minimal label cuts of the
    parallel graph: minimal label sets whose removal separates s from t
    (never using the unlabelled terminal edges). Result truncated at [cap]
    (default 256). *)
val min_label_cuts : ?cap:int -> t -> Psst_util.Bitset.t list
