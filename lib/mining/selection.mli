(** Feature generation for the probabilistic matrix index — paper §4.2,
    Algorithm 4.

    Features are small connected labelled graphs mined from the certain
    database [Dc] by level-wise pattern growth with canonical-form
    deduplication (refs [36, 37]). A feature is kept when it is

    - {e frequent}: [frq f = |{g : f ⊆iso gc ∧ |IN|/|Ef| >= alpha}| / |D|
      >= beta], where [Ef] is the feature's distinct-embedding set in [gc]
      and [IN] a maximum edge-disjoint subset of it (Rule 1 — many disjoint
      embeddings make the SIP bounds tight);
    - {e discriminative}: [dis f = |∩ Df'| / |Df| >= 1 + gamma] over the
      one-edge-smaller subfeatures [f'] already selected (the paper states
      [dis f > gamma]; since [dis f >= 1] whenever [Df] is non-empty we add
      the [1 +] offset so the knob actually bites — see DESIGN.md);
    - {e small}: at most [max_edges] edges (Rule 2).

    Single-vertex and single-edge features are always included (Algorithm 4
    lines 1-4); they guarantee that every relaxed query is covered by some
    feature during pruning. *)

type params = {
  alpha : float;  (** disjoint-embedding ratio threshold *)
  beta : float;  (** frequency threshold *)
  gamma : float;  (** discriminative margin *)
  max_edges : int;  (** maximum feature size in edges (the paper's maxL) *)
  emb_cap : int;  (** cap on embeddings enumerated per (feature, graph) *)
}

(** alpha = beta = gamma = 0.15, max_edges = 3, emb_cap = 64. *)
val default_params : params

(** A feature is its pattern alone: which graphs it occurs in is held by
    the PMI's postings ({!Pmi}), the one record of feature occurrence. *)
type feature = {
  graph : Lgraph.t;  (** the feature pattern *)
  key : string;  (** canonical code *)
}

(** A feature as the miner found it, with the graph sets its selection
    rested on. *)
type mined = {
  feature : feature;
  support : int list;  (** [Df]: indices of graphs with [f ⊆iso gc] *)
  strong_support : int list;
      (** support graphs whose disjoint-embedding ratio reaches [alpha] *)
}

(** [select db params] mines and filters features over the certain graphs.

    Before a grown candidate is built or given a canonical code, it is
    checked against an exact pre-filter: its parent's support intersected
    with the support of each of its edges' label triples
    [(min vl, max vl, el)]. Support is anti-monotone (a graph holding the
    candidate holds its parent and every one of its edges), so the strong
    support is a subset of that intersection. When the intersection is
    already below [beta] the candidate can never be frequent and is
    dropped without being marked seen; an isomorphic copy reached later
    has the same support and is rejected too. A candidate that passes is
    evaluated as before, with its support scan limited to the
    intersection, so the features, their order and their lists are those
    of the unfiltered miner. The same argument makes each [support]
    exactly [{g : Vf2.exists f gc}], which is how an index rebuilds a
    feature's occurrences without the list.

    Mining runs on the calling domain only (DESIGN.md §8). The first two
    levels come from one scan of each graph's vertex and edge labels, not
    from VF2: a graph holds a one-vertex pattern exactly when it has a
    vertex of that label, and a one-edge pattern exactly when it has an
    edge with that label triple (graphs have no self-loops or duplicate
    edges). A one-edge pattern's distinct embeddings are distinct single
    edges, pairwise edge-disjoint, so its strong support is its support
    whenever [alpha <= 1]; for a larger [alpha] it is computed with VF2
    as for every grown level. The same scan gives the two-edge supports:
    a connected two-edge pattern is a path, matching is not induced, and
    there are no duplicate edges, so a graph holds it exactly when some
    vertex of the centre's label has two distinct incident edges with
    the path's two (edge label, end label) arms. Levels from three edges
    on keep VF2.

    A grown candidate that passes the pre-filter is tested in order:
    [beta] on its support, the discriminative test (which reads the
    support alone), and only then its strong support (VF2 embeddings and
    a clique search per support graph) and [beta] on that. Strong support
    is a subset of the support, so the order drops no feature and keeps
    every list. The pre-filter and the discriminative
    check intersect graph sets as bitsets over the database (each label
    triple's support and each selected feature's), and test [beta] by
    the intersection's cardinality. *)
val select : Lgraph.t array -> params -> mined list

(** [max_disjoint_embeddings embs] — size of a maximum edge-disjoint subset
    (exact max-weight clique on the disjointness graph with unit weights,
    greedy beyond the node budget). *)
val max_disjoint_embeddings : Embedding.t list -> int

(** {1 Binary codec} — feature patterns are part of the persisted index
    (DESIGN.md §9), so queries on a loaded index skip re-mining. A feature
    is written as its pattern and canonical code. *)

val encode_feature : Psst_store.enc -> feature -> unit

(** Raises [Psst_store.Store_error] on malformed data. *)
val decode_feature : Psst_store.dec -> feature
