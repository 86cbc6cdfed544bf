(** Reproduction harness for every figure of the paper's evaluation (§6).

    Each [figN] function regenerates the corresponding figure's series at a
    configurable scale and prints the same rows the paper plots. The
    defaults are CI-friendly scaled-down versions of the paper's setup
    (see DESIGN.md §4/§5 for the mapping); [scale] multiplies the database
    and workload sizes.

    Paper parameter grid: probability threshold ε in 0.3..0.7 (default
    0.5), subgraph distance δ in 2..6 scaled to 1..4 here (default 2),
    query size q50..q250 scaled to 4..12 edges (default 8), feature
    parameters maxL / α / β / γ defaulting to 0.15 (maxL scaled to edges).

    Every figure queries through the pipeline the system serves
    ({!Query}), with the paper's (uncertified) bounds: the candidate
    counts and pruning times of Figs 10–12(b) are the stats of
    {!Query.run_bounds_only}, each bound arm being a database indexed
    with that arm's {!Bounds.config} or {!Selection.params}; Fig 9 and
    ablations A2/A3 take their candidates from {!Query.front} and verify
    through {!Query.candidate_ssp}, so every graph draws from its own
    pruning and verification streams. Only Fig 12(c)/(d) build the
    standalone {!Structural} index, to time and size the structural
    comparator. *)

type scale = {
  db_size : int;  (** graphs in the corpus *)
  queries_per_point : int;  (** queries averaged per x-value *)
  seed : int;
}

val default_scale : scale

(** The corpus parameters behind Fig 9-14 at the given scale, and the
    feature-mining parameters every figure indexes with — exposed so
    external harnesses (e.g. the ledger in [bench/ledger]) can reproduce
    the exact Fig 9 workload. *)
val dataset_params : scale -> Generator.params

val mining_params : Selection.params

(** Fig 9: verification time (a) and SMP quality (b) vs query size. *)
val fig9 : ?scale:scale -> Format.formatter -> unit

(** Fig 10: candidate size (a) and pruning time (b) vs probability
    threshold ε — Structure / SSPBound / OPT-SSPBound. *)
val fig10 : ?scale:scale -> Format.formatter -> unit

(** Fig 11: candidate size (a) and pruning time (b) vs distance threshold
    δ — Structure / SIPBound / OPT-SIPBound. *)
val fig11 : ?scale:scale -> Format.formatter -> unit

(** Fig 12: feature-generation parameters — (a) candidates vs maxL,
    (b) candidates vs α, (c) index build time vs β, (d) index size vs γ. *)
val fig12 : ?scale:scale -> Format.formatter -> unit

(** Fig 13: total query processing time vs database size — PMI vs Exact. *)
val fig13 : ?scale:scale -> Format.formatter -> unit

(** Fig 14: answer quality, correlated vs independent model, vs ε. *)
val fig14 : ?scale:scale -> Format.formatter -> unit

(** Ablations of the design choices DESIGN.md calls out:

    - A1 {b SIP bound quality} — mean interval width and soundness-violation
      rate against the exact SIP, for the paper's bounds with the tightest
      (max-weight-clique) family, the paper's bounds with a first-fit
      family, and the certified bounds;
    - A2 {b Usim assembly} — greedy set cover vs the random pick, mean
      upper-bound value and prune rate;
    - A3 {b SMP accuracy/time vs tau} — estimator error against exact SSP
      as the Monte-Carlo accuracy knob moves;
    - A4 {b VF2 vs Ullmann} — matcher running times on the query workload. *)
val ablations : ?scale:scale -> Format.formatter -> unit

(** Run every figure in order. *)
val all : ?scale:scale -> Format.formatter -> unit
