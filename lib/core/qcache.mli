(** Cross-query verification cache (DESIGN.md §13).

    Memoises the deterministic, PRNG-free artifacts of the T-PS pipeline
    — relaxed query sets, {!Pruning.prepared} memberships, VF2 embedding
    sets, calibrated Karp–Luby preparations — plus final SSP values,
    which under the per-candidate PRNG streams of {!Query.run} and
    {!Topk.run} are themselves pure functions of (query presentation,
    graph, verifier config, seed, stop threshold).
    A hit therefore returns exactly what a cold run would recompute:
    cached answers are bit-identical to uncached ones at fixed seeds.

    Keys start with the database's {!lineage}. {!Query.add_graphs} only
    appends, so a database and the databases grown from it share
    entries, and no entry is ever flushed; every other database gets a
    fresh lineage and shares nothing. The query's canonical code
    ({!Canon.code}) and its exact textual presentation follow: capped
    embedding enumeration is presentation-dependent, so
    isomorphic-but-renumbered queries never share entries.

    Tables are FIFO-bounded; hits, misses and evictions surface as the
    [cache.{hit,miss,evict}] counters in {!Psst_obs}. All
    operations are safe from every domain of a [Psst_util.Pool]; compute
    callbacks run outside the cache lock. *)

type t

(** [create ?query_cap ?value_cap ()] — [query_cap] bounds the per-query
    tables (relaxed sets, prepared memberships; defaults 128),
    [value_cap] the per-(query, graph) tables (embeddings, preparations,
    SSP values; default 16384). Both caps must be [>= 1]
    ([Invalid_argument] otherwise). *)
val create : ?query_cap:int -> ?value_cap:int -> unit -> t

(** Total cached entries across all tables. *)
val entries : t -> int

(** The identity of a chain of databases, each grown from the one
    before by appending graphs. Graph [i] is the same graph in every
    database of a lineage, so cached entries are keyed by it. *)
type lineage

(** [lineage ~count] is a fresh lineage whose newest database holds
    [count] graphs. *)
val lineage : count:int -> lineage

(** [extend l ~parent ~grown] is the lineage of a database of [grown]
    graphs made by appending to a database of [parent] graphs in [l]. It
    is [l] when the parent is the newest database of [l] (one atomic
    compare-and-set on its graph count), and a fresh lineage otherwise:
    a second extension of one parent is a fork, whose graph [parent]
    differs from the first extension's. *)
val extend : lineage -> parent:int -> grown:int -> lineage

(** A cache armed for one (lineage, query, relaxation parameters)
    triple, or the unarmed scope of a run without a cache. *)
type scope

(** [scope cache ...] arms [cache]; [None] gives the unarmed scope, on
    which every accessor below just runs its [compute]. *)
val scope :
  t option -> lineage:lineage -> q:Lgraph.t -> delta:int -> relax_cap:int -> scope

(** Each accessor returns the cached artifact or runs [compute], stores
    and returns its result. Exceptions from [compute] propagate and cache
    nothing. *)

val relaxed :
  scope ->
  compute:(unit -> Lgraph.t list * [ `Complete | `Truncated ]) ->
  Lgraph.t list * [ `Complete | `Truncated ]

val prepared : scope -> compute:(unit -> Pruning.prepared) -> Pruning.prepared

val embeddings :
  scope ->
  graph:int ->
  emb_cap:int ->
  compute:(unit -> Psst_util.Bitset.t list) ->
  Psst_util.Bitset.t list

val smp_prep :
  scope ->
  graph:int ->
  emb_cap:int ->
  compute:(unit -> Verify.smp_prep) ->
  Verify.smp_prep

(** [ssp scope ~graph ~stop ~seed verifier ~compute] — final SSP values,
    keyed by everything the estimate depends on beyond (query, graph):
    the verifier's parameters, the seed and, for an adaptive verifier,
    the stop threshold [stop] (the decision threshold shapes an adaptive
    estimate). {!Query.run} and {!Topk.run} therefore share fixed-budget
    and exact values but not adaptive ones. Entries are validated on
    read: NaN or out-of-[0,1] values (a poisoned cache) are evicted with
    a ["cache.poisoned"] warning and recomputed, never served. *)
val ssp :
  scope ->
  graph:int ->
  stop:float option ->
  seed:int ->
  [ `Exact | `Smp of Verify.config ] ->
  compute:(unit -> float) ->
  float

(** Test hook: overwrite every cached SSP value with [v] (e.g. [nan]),
    returning how many entries were poisoned. Exercised by the chaos
    suite to pin the eviction path. *)
val poison_ssp : t -> float -> int
