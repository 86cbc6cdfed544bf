(** Delta-stream replication (DESIGN.md §17).

    A standby is a full {!Psst_server} process started read-only
    ([writable = false]) from a copy of the primary's base index. It
    subscribes to the primary's delta stream ([Subscribe] from its
    chain's next sequence number), and for every received
    {!Psst_proto.reply.Delta_frame} — the {e exact on-disk bytes} of one
    [BASE.delta.K] file — validates, persists verbatim (through
    {!Psst_store.write_bytes}, the writer of every store file) and
    publishes the new epoch through {!Psst_ingest.apply_replicated},
    the primary's own commit, then sends
    [Replica_ack]. The standby's chain is byte-identical to the
    primary's, so its answers at an applied epoch are bit-identical to
    an offline run over the same chain, and promotion is just "stop the
    stream, flip [writable]".

    The primary side is the {!hub}: it owns one streaming thread per
    subscriber and implements {!Psst_server.publisher}, whose
    [pub_publish] gates each ingest ack on the subscribers'
    acknowledgements (semi-synchronous replication) — an acked batch is
    on every live standby's disk, which is what makes failover lossless.
    When the gate times out ([ack_timeout_ms]) the batch {e stays}
    applied and persisted but the client gets a retryable
    ["replication lagging"] error; retrying with the same idempotency
    token converges on an [Ok] without double-ingesting.

    Chaos: the standby's receive path consults the ["replica.stream"]
    fault site per frame ([Bitflip] corrupts the frame so validation
    rejects it before anything is persisted; [Fail]/[Partial_io] drop
    the connection; [Delay] builds replication lag), and its persist
    goes through the same ["store.write"] site as the primary's. *)

(** {1 Primary side} *)

type hub

(** [hub ?ack_timeout_ms chain] — a replication hub over the primary's
    delta chain. [ack_timeout_ms] (default 5000, [0.] = wait forever)
    bounds how long an ingest ack waits for standby acknowledgements
    before degrading to a retryable ["replication lagging"] error. A
    subscriber whose [send] returns [false] is dropped; so is one whose
    next delta cannot be read back or whose [send] raises, with a
    ["replica.stream"] warning and a ["replica.stream.errors"] bump.
    Either way the gate stops waiting for it. *)
val hub : ?ack_timeout_ms:float -> Psst_ingest.chain -> hub

(** The {!Psst_server.publisher} to inject into [Psst_server.start] —
    arms both the subscription side ([Subscribe] connections stream
    delta frames from the requested sequence number) and the ack gate. *)
val publisher : hub -> Psst_server.publisher

(** Close every subscription and join the streaming threads. Stop the
    server first: with the hub gone, in-flight ingest acks degrade to
    [`No_standby] (plain standalone acks). Idempotent. *)
val stop_hub : hub -> unit

(** {1 Standby side} *)

type standby

(** [start_standby ~primary ~chain db_ref] spawns the replication loop:
    connect to [primary], subscribe from [chain.next_seq], apply every
    frame through {!Psst_ingest.apply_replicated} into [db_ref] (the
    standby server's {!Psst_server.snapshot_ref}), acknowledge, repeat.
    Any failure — connect refused, stream broken, frame rejected — drops
    the connection and reconnects from the chain's next sequence number
    with {!Psst_client.backoff_delay} ([backoff_ms] doubled per attempt
    up to [max_backoff_ms], deterministic jitter), so a standby that
    outlives its primary keeps trying until the primary returns or it is
    promoted. The loop must be the process's only database mutator: run
    it in a server with [writable = false]. *)
val start_standby :
  ?connect_timeout_ms:float ->
  ?backoff_ms:float ->
  ?max_backoff_ms:float ->
  primary:Psst_proto.endpoint ->
  chain:Psst_ingest.chain ->
  Psst_ingest.snapshot Atomic.t ->
  standby

(** Stop the replication loop: no more frames are applied once this
    returns. Blocks until the loop thread joins; idempotent. *)
val stop_standby : standby -> unit

(** The highest delta sequence number applied so far ([0] = none;
    chains number their deltas from 1). *)
val applied_seq : standby -> int

(** [promote st server] — {!stop_standby}, then
    [Psst_server.set_writable server true], in that order (the stream
    and the ingest writer must never mutate concurrently). The promoted
    server accepts [Add_graphs] and appends to the replicated chain
    where the primary left off; every batch the primary ever acked is
    already in that chain. *)
val promote : standby -> Psst_server.t -> unit
