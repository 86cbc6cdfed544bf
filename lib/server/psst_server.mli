(** Resident query server (DESIGN.md §11, §16).

    Loads a database once and answers {!Psst_proto} requests over a
    Unix-domain or TCP socket for the life of the process — the
    index-resident serving model the succinct-index literature assumes
    (no per-query process start, mining, or PMI build).

    Execution model: one accept thread and one lightweight reader thread
    per connection (the shared {!Psst_listener}), a single batcher thread that owns the domain pool, and
    (when ingest is enabled) one {!Psst_ingest} writer thread. Readers
    submit [Run]/[Run_topk] requests to one bounded
    {!Psst_util.Tenant_queue} (explicit backpressure: a full queue or
    tenant quota yields a retryable [`Queue_full`] error reply, never an
    unbounded buffer); the batcher takes micro-batches of [batch_max]
    round-robin across tenants, fixes one verification deadline per
    micro-batch ([verify_budget_ms]) and maps every job over the shared
    pool as one task: a threshold job runs {!Query.run_on}, a top-k job
    {!Topk.run}, each against the snapshot and config it was admitted
    under. Concurrent requests interleave across domains while each
    answer stays bit-identical to an offline {!Query.run} or
    {!Topk.run}. Replies leave in admission order once the whole
    micro-batch is done. [Ping]/[Get_stats]/[Set_tenant] are answered
    inline by the reader and never queue.

    Snapshot-consistent ingest: the served database is an epoch-numbered
    immutable {!Psst_ingest.snapshot} behind an atomic reference. Each
    request captures the snapshot at admission, so a query admitted
    before an [Add_graphs] batch was applied never observes the new
    graphs, and every answer is bit-identical to an offline run against
    that epoch's database. The ingest writer is the only mutator; when a
    delta {!Psst_ingest.chain} is supplied, each batch is persisted
    before its epoch is published.

    Multi-tenancy: a connection runs as tenant ["default"] until it sends
    [Set_tenant]. Queries (weight 1, capped at [queue_cap]) and ingest
    batches (weight = graphs, capped at [ingest_queue_cap]) wait in two
    instances of the same {!Psst_util.Tenant_queue}: [tenant_quota]
    bounds each tenant's queued queries and, separately, its queued
    ingest graphs; the quota is checked before the cap; and both the
    batcher and the ingest writer serve tenants round-robin (a
    saturating tenant gets an equal share of batch slots or writer
    turns, never all of them). Every refusal, from either queue, goes
    through one mapping to its reply, its [server.reject.*] counter and
    the tenant's [rejected] counter; per-tenant
    [server.tenant.<name>.{admitted,served,rejected,ingested}] counters
    appear in [Get_stats].

    Deadlines bound queue wait: a request that has already waited longer
    than [deadline_ms] when the batcher pops it is answered with a
    [`Deadline`] error instead of being executed (verification is not
    preempted once started).

    Shutdown ({!stop}) is a graceful drain: admission closes (late
    arrivals get a retryable [`Shutdown`] error), every already-queued
    request is answered, every admitted ingest batch is applied,
    persisted and acknowledged, then connections are closed and the pool
    is released. A malformed frame on a connection produces one
    [`Malformed`] error reply and a ["proto"] warning event, then closes
    that connection; the server itself keeps serving. *)

type config = {
  endpoint : Psst_proto.endpoint;
  domains : int;  (** domain-pool size for verification fan-out *)
  queue_cap : int;  (** admission queue bound across tenants (backpressure) *)
  deadline_ms : float;  (** max queue wait; [0.] disables deadlines *)
  verify_budget_ms : float;
      (** per-micro-batch verification budget (DESIGN.md §12): one
          deadline for every job of the batch, fixed when the batch
          starts; candidates whose verification would start after it are
          answered from their PMI bounds and the reply is flagged
          [degraded] — a superset-safe answer under overload instead of
          an ever-growing latency tail. [0.] disables budgets (exact
          answers always). *)
  batch_max : int;  (** micro-batch size cap *)
  cache_cap : int;
      (** cross-query verification cache ({!Qcache}) value-table bound;
          [0] disables the cache. Cached answers are bit-identical to
          cold ones (the cache memoises deterministic artifacts only) and
          keyed by the database's lineage, so an ingest epoch keeps the
          entries of the epochs before it; the only trade-off is
          memory. *)
  ingest_queue_cap : int;
      (** bound on graphs queued for ingest across tenants; [0] disables
          ingest entirely ([Add_graphs] is answered [Unavailable]). *)
  tenant_quota : int;
      (** per-tenant bound on queued queries and queued ingest graphs;
          [0] disables quotas. Exceeding it yields a retryable
          [`Queue_full`] reply metered on [server.reject.tenant_quota]
          and the tenant's [rejected] counter. *)
  writable : bool;
      (** [false] starts the server as a read-only standby: [Add_graphs]
          is rejected with a retryable [Unavailable] (the replication
          stream is the process's only mutator) until promotion flips it
          with {!set_writable}. Queries are served normally at the
          applied epoch. *)
}

(** Unix socket, 1 domain, queue of 128, no deadline, no verification
    budget, batches of 32, cache of 16384 entries, ingest
    queue of 1024 graphs, no tenant quota, writable. *)
val default_config : Psst_proto.endpoint -> config

(** {1 The replication seam (DESIGN.md §17)}

    Implemented by [Psst_replica] and injected into {!start}, so the
    server stays below the replica layer in the library graph. *)

(** One connection's live subscription: the reader thread forwards the
    peer's [Replica_ack]s to [sub_ack] and calls [sub_close] (idempotent)
    when the connection dies, however it dies. *)
type subscription = { sub_ack : seq:int -> unit; sub_close : unit -> unit }

type publisher = {
  pub_publish : Psst_ingest.publish;
      (** handed to the ingest writer: blocks each batch's ack until the
          live subscribers acked its seq (semi-synchronous replication) *)
  pub_subscribe :
    from_seq:int ->
    send:(Psst_proto.reply -> bool) ->
    (subscription, string) Result.t;
      (** called by the reader on [Subscribe]: [send] writes one frame on
          the subscriber's connection and reports whether it left the
          socket. [Error msg] is answered as a retryable [Unavailable]. *)
}

type t

(** [start ?chain ?publisher config db] binds the endpoint and spawns the
    serving threads. [db] becomes epoch 0; [chain] (from
    {!Psst_ingest.load}) arms incremental delta persistence for ingested
    batches — omit it to serve a memory-only database (ingest still
    works, but does not survive the process). [publisher] arms
    replication: [Subscribe] connections stream delta frames and the
    ingest ack gate waits for standby acks. Raises [Unix.Unix_error]
    when the endpoint cannot be bound — [EADDRINUSE] when another live
    server answers on the Unix socket path, which is never taken over
    ({!Psst_listener.bind}). SIGPIPE is set to ignore (a client hanging
    up mid-reply must not kill the process). *)
val start :
  ?chain:Psst_ingest.chain ->
  ?publisher:publisher ->
  config ->
  Query.database ->
  t

(** The bound endpoint — for [Tcp (host, 0)] this carries the actual
    kernel-assigned port. *)
val endpoint : t -> Psst_proto.endpoint

(** Graceful drain as described above. Idempotent; blocks until every
    queued request is answered, the ingest writer has drained, and all
    threads have joined. *)
val stop : t -> unit

(** True once {!stop} has completed. *)
val stopped : t -> bool

(** Most recent per-query traces (oldest first, at most 256). *)
val traces : t -> Psst_obs.Trace.t list

(** Requests answered since {!start} (including error replies). *)
val served : t -> int

(** The current epoch's database / epoch number (in-process view of the
    atomic snapshot; tests diff this against offline reference runs). *)
val database : t -> Query.database

val epoch : t -> int

(** The atomic snapshot reference the server reads from. A standby's
    replication loop swaps new epochs in through it (via
    {!Psst_ingest.apply_replicated}); nothing else may mutate it. *)
val snapshot_ref : t -> Psst_ingest.snapshot Atomic.t

(** Whether [Add_graphs] is currently accepted (see [config.writable]). *)
val writable : t -> bool

(** Promotion switch: [set_writable t true] turns a standby into a
    writable primary. The caller must stop the replication loop first —
    the ingest writer and the replication stream must never mutate
    concurrently. *)
val set_writable : t -> bool -> unit

(** The snapshot the [Get_health] RPC answers from (also available
    in-process, e.g. for tests and supervisors). *)
val health : t -> Psst_proto.health
