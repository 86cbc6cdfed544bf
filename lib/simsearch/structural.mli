(** Structural pruning over the certain graphs — the paper's "Structure"
    phase (Thm 1), in the style of Yan et al.'s Grafil (ref [38]).

    A feature-count index over [Dc]: for each indexed feature [f], the
    graphs [f] occurs in, each with the number of distinct embeddings of
    [f] there. At query time a graph [g] survives when, for every feature
    [f],

      count_g(f)  >=  count_q(f) - delta * maxPerEdge_q(f)

    where [maxPerEdge_q(f)] is the largest number of [f]-embeddings of [q]
    sharing one edge: deleting an edge of [q] destroys at most that many
    embeddings, so a graph within distance [delta] must still carry the
    right-hand side. The graphs that pass every feature are then checked
    against label-multiset distance bounds. Like Grafil, the filter is
    {e conservative} (no false dismissals) and its survivors are the
    candidate set [SCq].

    The index is a postings walk per feature: the (graph, count) pairs of
    the graphs the feature occurs in. The database's index is a view over
    its PMI ({!Pmi.structural}), whose bound records already carry the
    embedding counts; {!build} counts them itself, for the standalone
    index the experiments time against the PMI. *)

type t

(** [of_postings ~features ~num_graphs ~emb_cap ~entries ~postings] — the
    index over [postings fi emit], which calls [emit graph count] for
    every graph feature [fi] occurs in, in increasing graph order, with
    its embedding count capped at [emb_cap] (a count at the cap reads as
    "at least"). [entries] is the number of pairs the walks yield, the
    index size. Vertex features (no edges) are never walked. *)
val of_postings :
  features:Selection.feature array ->
  num_graphs:int ->
  emb_cap:int ->
  entries:int ->
  postings:(int -> (int -> int -> unit) -> unit) ->
  t

(** [build db mined ~emb_cap] counts the embeddings of every edge
    feature in the graphs of its mined support with VF2, capped at
    [emb_cap] ([Invalid_argument] when [emb_cap < 1]), and holds them
    sparsely. *)
val build : Lgraph.t array -> Selection.mined list -> emb_cap:int -> t

(** Number of (feature, graph) counts the index holds — its size in
    Fig 12(d). *)
val entries : t -> int

(** [candidates t ~skeleton q ~delta] — indices of surviving graphs, in
    increasing order. Only the postings of features with a positive
    requirement are walked; [skeleton gi] supplies graph [gi]'s skeleton
    and is only consulted for graphs that pass them all, so a
    lazily-decoded corpus ({!Corpus}) pays decode cost for the
    near-survivors only. *)
val candidates : t -> skeleton:(int -> Lgraph.t) -> Lgraph.t -> delta:int -> int list

(** [verify_candidate ~skeleton q ~delta gi] — exact check
    [dis(q, gc) <= delta]; exposed for building ground truths in tests
    and experiments. *)
val verify_candidate : skeleton:(int -> Lgraph.t) -> Lgraph.t -> delta:int -> int -> bool
