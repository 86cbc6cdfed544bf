(** A random-access collection of probabilistic graphs — the graph side
    of a {!Query.database} (DESIGN.md §15).

    Two backings answer the same interface: an eager array (built
    in-memory or decoded by the classic loader) and a zero-copy view over
    the ["graphs"] payload of a memory-mapped flat store image, which
    decodes graphs {e lazily, on first access}, so loading a database
    does O(1) work per graph and a query only pays decode cost for the
    graphs it actually touches (structural survivors and verification
    candidates). Decoded graphs are memoized under a mutex, so concurrent
    readers are safe and every access after the first is a plain array
    read.

    Skeletons are projections of the decoded graph ([Pgraph.skeleton] is
    a field read), so they share the same laziness and cache. *)

type t

(** {1 Construction} *)

(** [of_array ?fingerprint graphs] — an eager corpus. [fingerprint], when
    given, is taken as the corpus's {!fingerprint} instead of being
    computed: a loader passes the CRC of the payload it decoded [graphs]
    from. *)
val of_array : ?fingerprint:int32 -> Pgraph.t array -> t

(** [of_mapped m ~section ~offsets] — lazy view over section [section] of
    the mapping [m]. [offsets] holds [n + 1] boundaries into the payload:
    graph [i] occupies bytes [offsets.(i) .. offsets.(i+1) - 1], and the
    prefix [0 .. offsets.(0) - 1] must decode as the element count [n]
    (the payload is byte-identical to the classic
    [put_array encode_binary] encoding — same fingerprint, same eager
    decode). Validates the boundary monotonicity and the count prefix
    eagerly ({!Psst_store.Store_error} on any anomaly); the per-graph
    payloads are validated when first decoded. *)
val of_mapped : Psst_store.mapped -> section:string -> offsets:int array -> t

(** {1 Access} *)

val length : t -> int

(** [get t i] — graph [i], decoding and caching it first if the backing
    is mapped. Raises [Psst_store.Store_error] if the stored bytes are
    malformed (including a region not exactly consumed by the decode —
    a lying offsets table is caught here). [Invalid_argument] when out of
    range. *)
val get : t -> int -> Pgraph.t

(** [skeleton t i] = [Pgraph.skeleton (get t i)]. *)
val skeleton : t -> int -> Lgraph.t

(** {1 Bulk operations} *)

(** [to_array t] decodes every graph and returns the full array. The
    result is cached, so repeated calls are cheap; offline consumers
    (index builds, shard merging, salvage rebuild) use this. Saving uses
    {!encoding}, which decodes no mapped graph. *)
val to_array : t -> Pgraph.t array

(** [sub t ~base ~count] — the contiguous slice of graphs
    [base .. base + count - 1]. The slice of an eager corpus is eager; the
    slice of a mapped corpus is a window on the same mapping, which
    shares its decode cache and decodes nothing now. [Invalid_argument]
    when the range lies outside [t]. *)
val sub : t -> base:int -> count:int -> t

(** [materialise t] — an eager corpus with the same graphs. A no-op on an
    eager backing; a mapped backing decodes every graph (reusing the ones
    already memoised) and drops the mapping dependence, so the result
    stays valid even after the underlying file changes or the mapping is
    released. Raises [Psst_store.Store_error] if any stored graph is
    malformed — materialising never silently truncates. *)
val materialise : t -> t

(** [append t gs] — an eager corpus holding [t]'s graphs followed by
    [gs]. A mapped [t] is {!materialise}d first (the append itself never
    reads the mapping lazily), so continuous ingest on an mmap-served
    database is safe: the appended corpus and its {!fingerprint} are
    identical to appending to the eager load of the same image. *)
val append : t -> Pgraph.t array -> t

(** {1 Identity} *)

(** [fingerprint t] — {!Pgraph_io.db_fingerprint} of the graphs. For a
    mapped corpus this is one streaming CRC pass over the raw payload (no
    decode, no copy): the payload is byte-identical to the encoding the
    fingerprint is defined over. A window ({!sub}) combines the CRC of its
    count prefix with one pass over its graphs' bytes. It is computed at
    most once per corpus value (memoised; {!materialise} keeps it, and
    {!encoding} sets it), so a process that checks a loaded corpus and
    then replays its delta chain hashes it once. *)
val fingerprint : t -> int32

(** [encoding t] — the canonical ["graphs"] payload of a store image
    ([put_array encode_binary] of the graphs) and its [n + 1] graph
    boundaries (as {!of_mapped} takes them). An eager corpus is encoded;
    one with no {!fingerprint} yet takes the payload's CRC as its
    fingerprint, so a saver does not encode it twice. A mapped corpus, or
    a window of one, is copied from the mapping's bytes with rebased
    boundaries: no graph is decoded or encoded. The copy reads the
    verified view ({!Psst_store.mapped_bytes}), so a source section whose
    CRC fails raises [Psst_store.Store_error] and nothing is copied; the
    check is one pass per mapping, shared with the fingerprint's. *)
val encoding : t -> string * int array
