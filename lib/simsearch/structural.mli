(** Structural pruning over the certain graphs — the paper's "Structure"
    phase (Thm 1), in the style of Yan et al.'s Grafil (ref [38]).

    A feature-count index over [Dc]: for each indexed feature we store the
    number of distinct embeddings in every database graph. At query time a
    graph [g] survives when, for every feature [f],

      count_g(f)  >=  count_q(f) - delta * maxPerEdge_q(f)

    where [maxPerEdge_q(f)] is the largest number of [f]-embeddings of [q]
    sharing one edge: deleting an edge of [q] destroys at most that many
    embeddings, so a graph within distance [delta] must still carry the
    right-hand side. A label-multiset distance bound is applied first.
    Graphs pruned here have [Pr(q ⊆sim g) = 0] only if the filter is
    exact; like Grafil, the filter is {e conservative} (no false
    dismissals) and its survivors are the candidate set [SCq]. *)

type t

(** [build db features ~emb_cap] counts feature embeddings in every graph
    (capped per pair at [emb_cap]; counts at the cap are treated as
    "at least", keeping the filter conservative). *)
val build : Lgraph.t array -> Selection.feature list -> emb_cap:int -> t

(** [add_graphs t gs] appends one column per new graph with a single
    row reallocation per feature, avoiding quadratic repeated appends.
    The feature set is left as mined (a graph added later never causes
    false dismissals — at worst the filter is less selective on it). *)
val add_graphs : t -> Lgraph.t array -> t

(** [of_parts ~features ~counts ~emb_cap] rebuilds the index from its raw
    state (one count row per feature) — the load path of the persistent
    store, which skips re-running VF2 over the whole database. Raises
    [Invalid_argument] on dimension mismatches or negative counts. *)
val of_parts :
  features:Selection.feature list ->
  counts:int array array ->
  emb_cap:int ->
  t

(** Zero-copy cells for the flat image load path (DESIGN.md §15). *)
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [of_cells ~features ~cells ~num_graphs ~emb_cap] wraps a feature-major
    u16 count matrix (typically a view over a memory-mapped flat store
    image) without copying it: [candidates] reads cells straight out of
    [cells]. Counts are capped at [emb_cap] by construction, so u16 range
    suffices whenever [emb_cap < 65536] (the flat encoder enforces this).
    Raises [Invalid_argument] when [Bigarray.Array1.dim cells] does not
    equal [features x num_graphs]. *)
val of_cells :
  features:Selection.feature list ->
  cells:u16s ->
  num_graphs:int ->
  emb_cap:int ->
  t

(** Raw capped embedding-count matrix, feature-major (a copy). *)
val counts : t -> int array array

val emb_cap : t -> int

val num_features : t -> int
val num_graphs : t -> int

(** Total count-matrix cells (features x graphs) — reported as index size. *)
val size_cells : t -> int

(** [candidates t ~skeleton q ~delta] — indices of surviving graphs.
    [skeleton gi] supplies graph [gi]'s skeleton; it is only consulted
    for graphs that pass the feature-count requirements (which read index
    cells alone), so a lazily-decoded corpus ({!Corpus}) pays decode cost
    for the near-survivors only. *)
val candidates : t -> skeleton:(int -> Lgraph.t) -> Lgraph.t -> delta:int -> int list

(** [verify_candidate ~skeleton q ~delta gi] — exact check
    [dis(q, gc) <= delta]; exposed for building ground truths in tests
    and experiments. *)
val verify_candidate : skeleton:(int -> Lgraph.t) -> Lgraph.t -> delta:int -> int -> bool
