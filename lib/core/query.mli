(** The end-to-end T-PS query processor (paper §1.2): structural pruning →
    probabilistic pruning → verification. *)

(** A database with its PMI and the structural feature-count index, which
    is a view over the PMI ({!Pmi.structural}). [base] is the global-id offset of local graph 0: answers, top-k
    hits and per-candidate PRNG streams all use global ids [base + gi],
    so a shard of a larger corpus ([Psst_shard.sub_database]) answers
    with corpus-wide ids and draws the same randomness per graph as the
    monolithic database — the invariant behind scatter-gather serving.
    A monolithic database has [base = 0].

    [graphs] is a {!Corpus}: eagerly built databases hold plain arrays,
    while the [--mmap] load path decodes graphs lazily out of the mapped
    store image (memoised per graph), so constructing the database does
    not touch the graph payload at all. Skeletons come from
    {!Corpus.skeleton} (a field read on the decoded graph). *)
type database = {
  graphs : Corpus.t;
  features : Selection.feature list;
  structural : Structural.t;
  pmi : Pmi.t;
  base : int;  (** global id of local graph 0 *)
  lineage : Qcache.lineage;
      (** kept by {!add_graphs} on the lineage's newest database
          ({!Qcache.extend}), so a grown database shares its parent's
          {!Qcache} entries; every other constructor mints a fresh one *)
}

(** [global db gi] = [db.base + gi], the corpus-wide id of local graph
    [gi]. *)
val global : database -> int -> int

(** [index_database ?mining ?bounds ?domains graphs] mines features over
    the skeletons and builds the PMI; [domains] parallelises the bound
    computation (see {!Pmi.build}). The structural filter reads its
    embedding counts, capped at [bounds.emb_cap], from the PMI. *)
val index_database :
  ?mining:Selection.params ->
  ?bounds:Bounds.config ->
  ?domains:int ->
  Pgraph.t array ->
  database

(** [add_graph db g] appends one graph to the database, extending the PMI
    (and so the structural view over it) incrementally: its postings, the
    one record of which graphs hold each feature, name the new graph
    wherever a feature occurs in it, so a subsequent
    {!save_database}/{!load_database} round trip reproduces the same
    index. Features are {e not} re-mined: pruning on the new
    graph uses the existing feature set, which keeps every decision
    sound but may be less selective than a full re-index. *)
val add_graph : database -> Pgraph.t -> database

(** [add_graphs db gs] bulk insertion: equivalent to folding
    {!add_graph} over [gs] but with one pass over the PMI image per
    batch, so loading k graphs costs O(k) appends instead of O(k²). *)
val add_graphs : database -> Pgraph.t array -> database

type config = {
  epsilon : float;  (** probability threshold ε *)
  delta : int;  (** subgraph distance threshold δ *)
  mode : Pruning.mode;  (** SSPBound vs OPT-SSPBound assembly *)
  certified : bool;  (** certified bounds (no false dismissals) vs paper's *)
  verifier : [ `Smp of Verify.config | `Exact ];
  relax_cap : int;  (** cap on relaxation enumeration *)
  seed : int;
}

val default_config : config

type stats = {
  relaxed_count : int;
  relaxed_truncated : bool;
      (** the relaxation enumeration hit [relax_cap]: the relaxed set is
          a sample, so reported SSPs are lower bounds and the answer set
          may under-approximate (a warning event with code
          ["relax.truncated"] is emitted alongside) *)
  structural_candidates : int;
  prob_candidates : int;  (** survivors needing verification *)
  accepted_by_bounds : int;  (** graphs accepted by Pruning 2 *)
  pruned_by_bounds : int;  (** graphs discarded by Pruning 1 *)
  degraded_candidates : int;
      (** candidates answered from their PMI bounds instead of verified —
          because the verification budget ran out or an injected fault cut
          verification short. Each was included (it passed the Usim ≥ ε
          screening), so a degraded answer set is a superset of the exact
          one and never drops a true answer; [> 0] flags the reply as
          degraded (DESIGN.md §12) *)
  t_relax : float;
  t_structural : float;
  t_probabilistic : float;
  t_verification : float;  (** wall-clock seconds of the verification phase *)
  t_verification_cpu : float;
      (** per-candidate verification time summed across domains; the
          phase's parallel speedup is [t_verification_cpu /.
          t_verification] *)
  verify_domains : int;  (** pool size the verification fan-out ran on *)
}

(** [trace] is the machine-readable end-to-end record of the query
    (phase times, candidate counts, flags) for [--stats-json]; it carries
    the same numbers as [stats]. *)
type outcome = { answers : int list; stats : stats; trace : Psst_obs.Trace.t }

(** [run ?domains db q config] executes the pipeline and returns the ids
    of the graphs with [Pr(q ⊆sim g) >= epsilon] (estimated by the
    configured verifier for graphs the bounds cannot decide).

    [domains] (default 1) fans the verification phase out over that many
    OCaml 5 domains. Every candidate verifies under its own PRNG stream
    [Prng.stream ~seed:config.seed (base + gi)] — and prunes under an
    independent per-candidate stream keyed the same way — so the answer
    set and every pruning counter are identical for all values of
    [domains], and identical between a monolithic database and any
    sharding of it (the per-graph verdicts never depend on which other
    graphs share the database).

    [budget_ms] (default none) bounds the verification phase: candidates
    whose verification would start after the budget elapses are answered
    from their PMI bounds and counted in [stats.degraded_candidates]
    (see its documentation for why that is superset-safe). Without a
    budget and without armed faults the result is bit-identical to
    previous releases.

    [cache] arms the cross-query verification cache ({!Qcache}): relaxed
    sets, prepared memberships, embedding sets, Karp–Luby preparations
    and final SSP values memoise across repeated and related queries.
    Because every cached artifact is a deterministic function of its key
    — per-candidate PRNG streams make even the sampled SSP one — answers
    with a cache (cold or warm) are bit-identical to answers without
    one. The cache self-invalidates when the database changes
    ({!add_graphs}, {!load_database}). *)
val run :
  ?domains:int ->
  ?budget_ms:float ->
  ?cache:Qcache.t ->
  database ->
  Lgraph.t ->
  config ->
  outcome

(** [run_on ?deadline ?cache pool db q config] is {!run} on a
    caller-owned domain pool — the serving path, where a resident process
    pays domain spawning once at startup and maps many queries over one
    pool, each fanning its verification out on the same pool (nested
    calls are safe, see {!Psst_util.Pool}). The outcome is bit-identical
    to [run ~domains:(Pool.size pool) db q config]. [deadline] is an
    absolute [Unix.gettimeofday] instant playing the role of [run]'s
    [budget_ms]: candidates whose verification would start after it are
    answered from their bounds, so queries mapped together under one
    deadline degrade against the same wall-clock instant. *)
val run_on :
  ?deadline:float ->
  ?cache:Qcache.t ->
  Psst_util.Pool.t ->
  database ->
  Lgraph.t ->
  config ->
  outcome

(** [run_bounds_only db q config] — phases 1–2 alone: every candidate the
    bounds cannot decide is included and counted degraded. The fallback
    the server uses when the verification stage itself is unavailable
    (DESIGN.md §12); the answer set is a superset of {!run}'s. *)
val run_bounds_only : ?cache:Qcache.t -> database -> Lgraph.t -> config -> outcome

(** Wire codec for {!config} (used by the RPC protocol of [Psst_server]).
    [get_config] validates variant tags and numeric ranges, raising
    [Psst_store.Store_error] on anything invalid. *)
val put_config : Psst_store.enc -> config -> unit

val get_config : Psst_store.dec -> config

(** {1 Pipeline phases shared with {!Topk}} *)

(** The pruning-phase PRNG stream of global graph id [gid]: stream index
    [lnot gid], disjoint from the verification streams (which use the
    non-negative [gid] itself), so the two phases never consume
    correlated randomness. *)
val prune_stream : seed:int -> int -> Psst_util.Prng.t

(** The query-dependent state every pipeline builds before it ranks or
    prunes a single graph, with the wall-clock seconds of each step. *)
type front = {
  scope : Qcache.scope;  (** the query's cache scope (unarmed without a cache) *)
  relaxed : Lgraph.t list;  (** the relaxed query set *)
  truncated : bool;  (** [relax_cap] cut the relaxed set short *)
  survivors : int list;  (** local ids passing structural pruning *)
  prepared : Pruning.prepared;  (** PMI memberships of [relaxed] *)
  relax_s : float;
  structural_s : float;
  prepare_s : float;
}

(** [front ~cache db q config] relaxes [q], prunes structurally and
    prepares the PMI memberships, memoising through [cache] when it is
    [Some]. Raises
    [Invalid_argument] on a negative [delta] or a non-positive
    [relax_cap] before doing any work ([epsilon] is not checked: top-k
    ignores it). *)
val front : cache:Qcache.t option -> database -> Lgraph.t -> config -> front

(** [candidate_ssp f ~stop db config gi] — the verifier's SSP estimate for
    local graph [gi], drawn from the verification stream of its global
    id and memoised through [f.scope]. An adaptive verifier may stop once
    its confidence interval clears [stop]. *)
val candidate_ssp : front -> stop:float option -> database -> config -> int -> float

(** {1 Persistence (DESIGN.md §9)}

    The whole query-time state — probabilistic graphs with their JPTs,
    mined features and the PMI bound matrix, which the structural filter
    reads too — as one {!Psst_store} file, so a process answers queries without paying
    mining or {!Pmi.build} again. *)

(** [save_database path db] writes a [Database]-kind store file: the
    succinct image of DESIGN.md §15 (the graphs with an offset table,
    delta-coded PMI postings, a fixed-width bounds array, directory
    sections), which {!load_database} reads eagerly or memory-maps. A
    non-zero [base] is carried in an extra ["db.base"] section.

    [?flat] is accepted for compatibility only: [true] (the default) is
    the one layout, and [~flat:false] raises [Invalid_argument]. *)
val save_database : ?flat:bool -> string -> database -> unit

(** [load_database path] — raises [Psst_store.Store_error] on corruption,
    truncation, version skew, a file in the retired classic layout, or
    when the embedded PMI's fingerprint does not match the embedded
    graphs. Queries on the result are bit-identical to queries on the
    database that was saved. [~salvage:true] applies {!Pmi.of_sections}'
    self-healing to the embedded PMI: a damaged PMI bulk section rebuilds
    all columns. The graphs have no rebuild source and must be intact
    either way. The ["structural.flat.*"] sections of an image written
    when the structural counts were stored apart are ignored.

    [~mmap:true] memory-maps the image instead of decoding it: PMI
    lookups and the structural filter's postings walks read zero-copy out
    of the mapping,
    so cold start skips the O(features x graphs) decode entirely (the
    small sections and the postings are still integrity-checked at open).
    Queries are bit-identical to the eager load of the same file.
    Combined with [~salvage:true], any mmap failure falls back to the
    eager salvage loader.

    [~verify:true] with [~mmap:true] checks every section's CRC at open,
    as the eager load does, in one pass over the image that decodes no
    graph. A caller that copies the mapping into new files ([psst shard]
    splitting a reused index) passes it, so a damaged image is rejected
    instead of being copied under fresh CRCs. The eager load checks every
    section anyway. *)
val load_database :
  ?salvage:bool -> ?mmap:bool -> ?verify:bool -> string -> database

(** [run_exact_scan db q config] — the paper's Exact competitor: no
    indexes, exact SSP on every graph. *)
val run_exact_scan : database -> Lgraph.t -> config -> outcome

(** Ground-truth answer set via exact SSP on every structurally plausible
    graph (used for precision/recall experiments; exponential). *)
val ground_truth : database -> Lgraph.t -> config -> int list
