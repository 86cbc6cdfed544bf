(** Horizontal sharding of the query database (DESIGN.md §14).

    A corpus of [n] graphs is split into contiguous shards, each an
    independently stored and independently servable {!Query.database}
    whose [base] offset maps its local graph ids back to corpus-global
    ones. Because every per-graph verdict of the query pipeline draws
    from PRNG streams keyed on the {e global} id, the union of per-shard
    T-PS answers — and the threshold-aware merge of per-shard top-k
    lists — is bit-identical to the monolithic answer; the test suite
    pins that invariant differentially and property-based.

    On disk a deployment is one {e manifest} file (kind [Manifest],
    written last, atomically — an interrupted split leaves either the
    complete new deployment or no manifest at all) plus one
    [Database]-kind store file per shard, each carrying its range and
    fingerprint so a mismatched or stale file is rejected at load. *)

(** One shard's slot in the manifest. [path] is relative to the manifest
    file's directory. *)
type entry = {
  sid : int;  (** shard index, dense from 0 *)
  base : int;  (** global id of the shard's first graph *)
  count : int;
  path : string;
  fingerprint : int32;  (** {!Pgraph_io.db_fingerprint} of the shard's graphs *)
}

type manifest = {
  total : int;  (** corpus size: sum of the entry counts *)
  corpus_fingerprint : int32;  (** fingerprint of the whole corpus *)
  entries : entry list;  (** ordered by [sid]; ranges tile [0 .. total-1] *)
}

(** {1 Split planning} *)

(** A shard closes when it would exceed [max_graphs] graphs {e or}
    [max_cost] estimated PMI build cost (whichever comes first); both
    bounds are per shard. *)
type budget = { max_graphs : int; max_cost : float }

(** Estimated PMI build cost of one graph's column: 1 + the number of
    filled PMI entries in it (each filled entry was one SIP bound
    computation — the dominant offline cost). Deterministic in the
    database contents. *)
val column_cost : Query.database -> int -> float

(** [plan_budget db budget] — contiguous [(base, count)] ranges packed
    greedily left to right under [budget]. Deterministic in [db].
    [Invalid_argument] unless [max_graphs >= 1]. *)
val plan_budget : Query.database -> budget -> (int * int) list

(** [plan_even ~parts ~total] — [parts] contiguous ranges of as-equal-as-
    possible sizes (the first [total mod parts] ranges are one longer).
    Empty ranges are dropped when [parts > total]. *)
val plan_even : parts:int -> total:int -> (int * int) list

(** {1 In-memory slicing and merging} *)

(** [sub_database db ~base ~count] — the contiguous slice as a
    self-contained database: graphs, skeletons and index columns sliced,
    postings rebased to local ids, [base] offset composed with
    [db.base]. Nothing is recomputed, so every per-graph bound and count
    is bit-identical to the monolithic one. *)
val sub_database : Query.database -> base:int -> count:int -> Query.database

(** [merge parts] reassembles consecutive slices (ordered, ranges
    tiling their union) into one database with the first part's [base].
    [merge (List.map (sub_database db) plan)] reproduces [db]'s graphs
    and indexes bit-exactly. [Invalid_argument] on gaps, overlaps, or
    parts with mismatched index parameters. *)
val merge : Query.database list -> Query.database

(** {1 Answer merging (scatter-gather)} *)

(** [merge_answers per_shard] — the T-PS union: shards are disjoint, so
    this is a sort of the concatenation (global ids). *)
val merge_answers : int list list -> int list

(** [merge_stats per_shard] — corpus-level {!Query.stats}: candidate and
    degraded counters sum; [relaxed_count] (query-side, equal across
    shards) takes the max, as do the truncation flag, wall-clock phase
    times and [verify_domains]; CPU verification time sums. The summed
    counters equal the monolithic run's bit-for-bit (per-candidate
    verdicts are shard-independent). *)
val merge_stats : Query.stats list -> Query.stats

(** [merge_topk ~k per_shard] — threshold-aware merge of per-shard top-k
    hit lists: sort the union by (ssp desc, graph asc), keep [k]. With
    {!Topk}'s clamped SSPs this equals the monolithic [Topk.run] hit
    list exactly, ties broken deterministically by global id. *)
val merge_topk : k:int -> Topk.hit list list -> Topk.hit list

(** {1 Persistence} *)

(** [split_to_files ~manifest_path db plan] writes one shard store file
    per range — [<manifest basename without extension>.shard<k>] next to
    the manifest — then the manifest itself, last and atomically: a
    crash anywhere mid-split leaves the previous deployment's manifest
    (or none) intact and never a manifest naming half-written shards.
    Returns the manifest. Each shard file is a {!Query.save_database}
    image, so workers can cold-start with {!load_shard}'s [~mmap:true]. *)
val split_to_files :
  manifest_path:string ->
  Query.database ->
  (int * int) list ->
  manifest

val write_manifest : string -> manifest -> unit

(** [load_manifest path] — validates ranges are dense, tiling and
    consistent with [total]; raises [Psst_store.Store_error] on any
    anomaly. *)
val load_manifest : string -> manifest

(** [load_shard ~manifest_path m sid] — loads the shard's database file
    (resolving its relative path against the manifest's directory) and
    validates its range and fingerprint against the manifest entry, so a
    stale or foreign shard file is rejected, never silently served.
    [~salvage:true] applies {!Query.load_database}'s PMI self-healing;
    [~mmap:true] memory-maps the shard image zero-copy (see
    {!Query.load_database}) — the manifest validation runs either way. *)
val load_shard :
  ?salvage:bool ->
  ?mmap:bool ->
  manifest_path:string ->
  manifest ->
  int ->
  Query.database

(** [load_all ~manifest_path m] — every shard, in [sid] order. *)
val load_all :
  ?salvage:bool ->
  ?mmap:bool ->
  manifest_path:string ->
  manifest ->
  Query.database list
