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
    "at least", keeping the filter conservative). The counts are held as
    u16 cells, so [emb_cap] must lie in [1 .. 65535]
    ([Invalid_argument] otherwise). *)
val build : Lgraph.t array -> Selection.feature list -> emb_cap:int -> t

(** [add_graphs t gs] appends one column per new graph, copying each
    existing row once for the whole batch. The feature set is left as
    mined (a graph added later never causes false dismissals — at worst
    the filter is less selective on it). *)
val add_graphs : t -> Lgraph.t array -> t

(** [sub t ~base ~len] — the counts of graphs [base .. base+len-1] as an
    index of their own, as {!Pmi.sub} slices the PMI ([Invalid_argument]
    when the range is out of bounds). *)
val sub : t -> base:int -> len:int -> t

(** [concat parts] — the parts' columns side by side, in order: the
    inverse of {!sub}. [Invalid_argument] when the parts disagree on
    [emb_cap] or the number of features. *)
val concat : t list -> t

(** The count matrix: u16 cells, feature-major (feature [fi], graph [gi]
    at [fi * num_graphs + gi]) — the payload layout of the flat image
    (DESIGN.md §15). *)
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [of_cells ~features ~cells ~num_graphs ~emb_cap] wraps a count
    matrix without copying it — a loader's checked copy of the image
    payload, or a view over a memory-mapped image. Raises
    [Invalid_argument] when [emb_cap] is outside [1 .. 65535] or
    [Bigarray.Array1.dim cells] does not equal [features x num_graphs]. *)
val of_cells :
  features:Selection.feature list ->
  cells:u16s ->
  num_graphs:int ->
  emb_cap:int ->
  t

(** The cells themselves, not a copy: callers must not write them. *)
val cells : t -> u16s

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
