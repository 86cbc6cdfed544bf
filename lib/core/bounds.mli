(** Lower and upper bounds on the subgraph-isomorphism probability
    Pr(f ⊆iso g) — paper §4.1, the payload of the PMI index.

    - [LowerB] (Eq 10-17): pick a maximum-weight clique of pairwise
      edge-disjoint embeddings in the disjointness graph [fG], with node
      weights [-ln (1 - Pr(Bfi | COR))]; then
      [LowerB = 1 - exp (-clique weight)]. [Pr(Bfi | COR)] — the chance
      embedding [i] survives given that all embeddings overlapping it fail —
      is estimated by the paper's Monte-Carlo ratio (Algorithm 3), or
      computed exactly when the embedding overlaps nothing.
    - [UpperB] (Eq 18-20): same construction over minimal embedding cuts
      (computed by {!Transversal.minimal_hitting_sets}); node weights
      [-ln (1 - Pr(Bci | COM))]; [UpperB = exp (-clique weight)].

    Alongside the paper's bounds we compute {e certified} variants that
    hold without any independence assumption (used for accept decisions,
    see DESIGN.md §3):

    - [lower_safe = max_i Pr(Bfi)] (exact, one conjunction per embedding);
    - [upper_safe = min_i (1 - Pr(Bci))] (exact, one negated conjunction
      per cut). *)

type config = {
  emb_cap : int;  (** distinct embeddings enumerated per (f, g) *)
  cut_cap : int;  (** minimal cuts enumerated per (f, g) *)
  mc_samples : int;  (** Monte-Carlo samples for Algorithm 3 *)
  clique_budget : int;  (** branch-and-bound node budget for fG *)
  tightest : bool;
      (** true (default): maximum-weight-clique selection of the disjoint
          embedding / cut family — the paper's OPT-SIPBound. false: plain
          first-fit maximal family — the paper's SIPBound baseline. *)
  seed : int;  (** PRNG seed: bound computation is deterministic *)
}

val default_config : config

type t = {
  lower : float;  (** the paper's LowerB(f) *)
  upper : float;  (** the paper's UpperB(f) *)
  lower_safe : float;  (** certified lower bound *)
  upper_safe : float;  (** certified upper bound *)
  embeddings : int;  (** |Ef| found (capped) *)
  cuts : int;  (** |Ec| found (capped) *)
}

(** What the bounds of one graph share across features: its Monte-Carlo
    world pool (sampled on first use), its uncertain-edge set,
    and a memo of every exact probability already computed, keyed by
    polarity and edge set. A memo hit returns the float an evaluation would, so bounds
    are the same with or without a column. Every exact probability is
    asked of the graph's own {!Pgraph.plan} (built once per graph, so
    each one eliminates only the factor components its edge set
    touches), with or without a column. {!Pmi} makes one per matrix
    column and drops it afterwards. A column is used by one domain at a
    time. *)
type column

(** [column config g] — an empty column for graph [g]; [config] fixes the
    pool's size and seed. *)
val column : config -> Pgraph.t -> column

(** [compute config ?column g f] — both bound pairs for feature [f] against
    probabilistic graph [g]. Exact short-circuits: no embedding -> all 0;
    some embedding made only of certain edges -> all 1.

    [column] must come from [column config g] with the same [config] and
    graph ([Invalid_argument] for another graph); without it a fresh one
    is used for this call only. *)
val compute : config -> ?column:column -> Pgraph.t -> Lgraph.t -> t

(** [estimate_conditional rng g ~num ~den ~samples] — Algorithm 3's ratio
    estimator: sample possible worlds and return [#num / #den] where the
    predicates receive the world's present-edge mask. Returns [None] when
    the denominator never fires. Exposed for tests. *)
val estimate_conditional :
  Psst_util.Prng.t ->
  Pgraph.t ->
  num:(Psst_util.Bitset.t -> bool) ->
  den:(Psst_util.Bitset.t -> bool) ->
  samples:int ->
  float option
