(** Continuous-ingest subsystem (DESIGN.md §16): the single-writer
    pipeline behind the server's [Add_graphs] RPC, and the incremental
    delta-file persistence it writes.

    {2 Epochs and snapshots}

    The live database is an immutable {!snapshot} behind an [Atomic.t]:
    readers capture the current snapshot at admission time and every
    query runs against exactly that value, while the single writer
    builds the next epoch with {!Query.add_graphs} (a pure function —
    it allocates a fresh index image and never mutates its input) and
    publishes it with one atomic swap. A query admitted at epoch [e] is
    therefore bit-identical to an offline [Query.run] against epoch
    [e]'s database, whatever ingest does concurrently — the
    snapshot-consistency contract the differential tests pin.

    {2 Incremental persistence}

    A database served from a store file persists each applied batch as a
    side file [BASE.delta.K] ([K] = 1, 2, ...), each written with the
    store's crash-atomic tmp+rename discipline. The base file is never
    rewritten — byte-identical before and after any number of batches —
    so a SIGKILL mid-append leaves the previous epoch loadable: either
    the delta file exists completely or not at all. Each delta carries
    the base corpus fingerprint and the graph count it chains onto;
    {!load} (and the CLI's index loader) replays the chain in order and
    stops with a warning at the first delta that does not chain — a
    stale or damaged delta can cost ingested graphs, never correctness
    of the ones before it. *)

(** One epoch of the served database. [epoch] counts applied ingest
    batches since process start; [db] is immutable. *)
type snapshot = { epoch : int; db : Query.database }

(** What an applied batch reports back: the new epoch and the global id
    range [base .. base + count - 1] of the inserted graphs. *)
type result = { epoch : int; base : int; count : int }

(** {1 Delta-file persistence} *)

(** [delta_path base k] = [base ^ ".delta.K"] — delta [k] (1-based) of
    the store file at [base]. *)
val delta_path : string -> int -> string

(** The delta chain bookkeeping for one base store file: [base_fp] is
    the fingerprint of the {e base file's} corpus (constant across the
    chain), [next_seq] the sequence number the next {!save_delta} should
    use. *)
type chain = { base : string; base_fp : int32; mutable next_seq : int }

(** [save_delta chain ~prev_count graphs] writes delta [chain.next_seq]
    (atomically, via tmp+rename — the ["store.write"] fault site
    applies) and advances [next_seq]. [prev_count] is the graph count of
    the database the delta chains onto. Raises [Psst_store.Store_error]
    / [Psst_fault.Injected] / [Sys_error] on failure, in which case no
    delta was added ([next_seq] is not advanced). *)
val save_delta : chain -> prev_count:int -> Pgraph.t array -> unit

(** [delta_bytes chain ~seq] — the raw on-disk bytes of delta [seq],
    validated before they leave: every checksum, the sequence number,
    the base fingerprint and the graph count (the count it chains onto
    is taken as stored; the subscriber checks it against its own
    database). So local disk rot is caught here, not on the standby.
    [Psst_store.Store_error] when the file is missing, unreadable or
    damaged. The replication hub streams these: a subscriber persisting
    them verbatim ends up with a chain byte-identical to the primary's. *)
val delta_bytes : chain -> seq:int -> string

(** [apply_replicated chain db_ref ~seq ~bytes] — the standby's write
    path. It validates [bytes] as delta [seq] against the current
    snapshot (checksums, sequence number, base fingerprint, the graph
    count it chains onto, the graph count it holds) before anything is
    written, then runs the primary's commit: build the next epoch,
    persist [bytes] verbatim with {!Psst_store.write_bytes} (the
    ["store.write"] fault site applies), publish the epoch and advance
    the chain — the same persist-before-swap ordering and the same
    counters as the primary's writer. [`Stale] when [seq] was already
    applied (a reconnect replay: harmless), [`Error] on a gap, damaged
    bytes or a failed persist — in which case nothing was published and
    [next_seq] is unchanged. The caller must be the process's only
    database mutator. *)
val apply_replicated :
  chain ->
  snapshot Atomic.t ->
  seq:int ->
  bytes:string ->
  [ `Applied of result | `Stale | `Error of string ]

(** [apply_deltas ~base db] replays the delta chain of [base] on top of
    [db] (the freshly-loaded base database): returns the extended
    database and the chain positioned after the last applied delta.
    A delta that is damaged or does not chain (wrong base fingerprint or
    graph count) stops the replay with an ["ingest.delta"] warning; the
    deltas before it are kept. The base fingerprint is
    [Corpus.fingerprint db.graphs], memoised on the corpus, so a caller
    that has already checked it (as [psst serve --index] does) pays no
    second pass. *)
val apply_deltas : base:string -> Query.database -> Query.database * chain

(** [load ?salvage ?mmap path] — {!Query.load_database} followed by
    {!apply_deltas}: the post-ingest database an offline process agrees
    with the server on. With [~mmap:true] the base loads zero-copy; a
    non-empty chain then materialises the corpus on the first append
    (see {!Corpus.append}). *)
val load : ?salvage:bool -> ?mmap:bool -> string -> Query.database * chain

(** [clear_deltas path] unlinks the contiguous delta chain of [path]
    (used when the base index is rebuilt, making any existing chain
    stale). Returns how many files were removed. *)
val clear_deltas : string -> int

(** {1 The single-writer pipeline} *)

type t

(** The replication gate the writer consults before acking an applied
    batch: called with the seq the batch persisted as, after the epoch
    swap. [`Replicated] / [`No_standby] let the ack through;
    [`Lagging msg] turns it into a retryable error (the batch stays
    applied and persisted locally — the client's retry, carrying the
    same idempotency token, re-awaits the same seq). *)
type publish = seq:int -> [ `Replicated | `No_standby | `Lagging of string ]

(** [create ?chain ?publish ?tenant_quota ~queue_cap db_ref] spawns the
    writer thread. [db_ref] is the epoch-swapped database the server
    serves from; the writer is its only mutator. Batches wait in one
    {!Psst_util.Tenant_queue} weighed in graphs: [queue_cap] bounds the
    total graphs queued across tenants (>= 1), [tenant_quota] (default
    0 = unlimited) the graphs one tenant may have queued, and the writer
    applies one batch per rota turn, so batches from different tenants
    apply round-robin while each tenant's stay in order.
    [chain] arms delta persistence: every batch is persisted {e before}
    the epoch swap, so an acknowledged batch is always on disk and a
    failed write rejects the batch with the database unchanged.
    [publish] arms semi-synchronous replication (see {!publish}); it is
    only consulted when [chain] is armed too — without persistence
    there are no delta bytes to stream. *)
val create :
  ?chain:chain ->
  ?publish:publish ->
  ?tenant_quota:int ->
  queue_cap:int ->
  snapshot Atomic.t ->
  t

(** [submit ?token t ~tenant graphs ~ack] — enqueue one batch of weight
    [Array.length graphs]. [`Admitted] hands the batch to the writer,
    which eventually calls [ack] (on the writer thread) with [Ok result]
    after the epoch swap or [Error msg] when applying or persisting
    failed (the database is unchanged; the condition is transient, so
    the caller should answer with a retryable error). [`Quota]/[`Full]
    reject without queueing — [ack] is never called — when the tenant's
    quota or the queue cannot take the batch; [`Closed] likewise after
    {!stop} began. Empty batches are applied trivially (no epoch swap,
    [count = 0]).

    [token] (default [""] = disabled) is the batch's idempotency key:
    when the writer has already applied a batch with the same token, it
    answers with the remembered ack instead of ingesting again — the
    contract that makes retrying an unacked [Add_graphs] safe. The
    writer remembers the last {!token_cap} tokens. *)
val submit :
  ?token:string ->
  t ->
  tenant:string ->
  Pgraph.t array ->
  ack:((result, string) Result.t -> unit) ->
  Psst_util.Tenant_queue.verdict

(** Capacity of the writer's token-dedup memory (oldest evicted past
    it). *)
val token_cap : int

(** Graphs queued but not yet applied — the ingest lag. *)
val queued_graphs : t -> int

(** Graphs applied to the live database since {!create}. *)
val applied_graphs : t -> int

(** Closes admission ([`Closed] from then on), drains every queued
    batch — each gets its [ack] — and joins the writer. Idempotent. *)
val stop : t -> unit
