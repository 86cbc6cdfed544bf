(** Scatter-gather router over shard workers (DESIGN.md §14).

    Fronts N {!Psst_server} workers — each serving one shard of a
    {!Psst_shard} deployment — behind the same wire protocol a plain
    worker speaks, so {!Psst_client} and [psst client] work against a
    router unchanged. Per request the router sends the query to every
    worker first, then gathers, so the shards execute concurrently.

    Merging: T-PS answers are the sorted union of the per-shard answer
    lists with pruning counters summed and flags OR'd; top-k lists merge
    threshold-aware ({!Psst_shard.merge_topk}). Because every per-graph
    verdict is computed under PRNG streams keyed on the global graph id,
    the merged replies are bit-identical to a monolithic server's — the
    differential tests pin this at several shard counts.

    Degradation ladder per worker and request (DESIGN.md §12):

    - transport break / per-shard timeout → reconnect and retry, up to
      [retries] times;
    - still unreachable (or the worker rejected with a retryable error):
      when [local_fallback] yields the shard's database, answer that
      shard from its PMI bounds ({!Query.run_bounds_only}) and flag the
      merged answer [degraded] — a superset of the exact answer whose
      healthy shards are still exact;
    - otherwise the request fails with one clean retryable
      [Unavailable].

    Top-k never falls back to bounds (a ranking missing one shard's
    graphs is wrong, not degraded): a dead worker fails the request
    cleanly. A worker's non-retryable error ([Malformed], [Deadline],
    [Internal]) is propagated to the client as-is, and a worker reply
    of the wrong kind for either request is [Internal]. Both request
    kinds run one scatter → resolve → gather path; the kind decides only
    whether a shard has a degraded form and how the fragments merge.

    Replica awareness (DESIGN.md §17): each shard's entry in [workers]
    is a replica group — slot 0 the primary, the rest standbys kept in
    sync by delta-stream replication. Requests go to the shard's
    preferred replica: the primary while it is believed alive, else the
    freshest live replica (highest observed ingest epoch). A transport
    failure marks the replica dead and the same request's retry already
    goes to the next-best one — restoring {e exact} answers where a
    dead single-replica shard could only degrade to bounds. The
    heartbeat poller ([heartbeat_ms] > 0) probes [Get_health] per
    replica on a jittered cadence; it revives recovered replicas,
    triggers failback to the primary, and feeds the
    [router.{failover,failback,replica_lag}] metrics.

    [Get_health] answers with the router's own counters plus one
    {!Psst_proto.worker_health} slot per replica — probing them is itself
    a liveness poll; [Ping] and [Get_stats] are answered locally.
    The ["router.scatter"] chaos site lets tests make a worker appear
    faulted or slow from the router's side without touching the worker
    process. *)

type config = {
  endpoint : Psst_proto.endpoint;  (** where the router listens *)
  workers : Psst_proto.endpoint array array;
      (** one replica group per shard, indexed by shard id then replica
          id; slot 0 is the shard's primary *)
  shard_timeout_ms : float;
      (** per-worker connect and call timeout; [0.] blocks indefinitely *)
  retries : int;  (** reconnect-and-resend attempts per worker per request *)
  heartbeat_ms : float;
      (** liveness-poll cadence; [0.] (default) disables the poller —
          failover then relies on request-path failures alone and a dead
          primary is only revived by a [Get_health] probe *)
  local_fallback : (int -> Query.database option) option;
      (** [lookup sid] returns the shard's database for the bounds-only
          fallback ([None] = shard not locally available). Typically
          backed by lazy {!Psst_shard.load_shard} calls; consulted only
          when a worker is down, from the reader thread of the failing
          request. *)
}

(** [workers] endpoints as single-replica groups, no timeouts, 1 retry,
    no heartbeat poller, no local fallback. *)
val default_config :
  endpoint:Psst_proto.endpoint -> workers:Psst_proto.endpoint list -> config

type t

(** [start config] binds the endpoint and spawns the serving threads.
    Workers are dialled lazily per reader thread, so a router starts
    (and answers [Get_health] with [reachable = false] slots) before its
    workers do. Raises [Invalid_argument] on an empty worker list. *)
val start : config -> t

(** The bound endpoint — for [Tcp (host, 0)] this carries the actual
    kernel-assigned port. *)
val endpoint : t -> Psst_proto.endpoint

(** Graceful drain: admission closes (late requests get a retryable
    [Shutdown] reply), requests already executing finish their scatter,
    then connections close and threads join. Idempotent. *)
val stop : t -> unit

(** True once {!stop} has completed. *)
val stopped : t -> bool

(** Replies sent since {!start} (error replies included). *)
val served : t -> int

(** In-process health snapshot: probes every replica of every shard once
    (bounded by [shard_timeout_ms]) and aggregates the roster, exactly as
    the [Get_health] RPC does. Probes double as liveness polls — they
    update the failover tables as a heartbeat cycle would. *)
val health : t -> Psst_proto.health
