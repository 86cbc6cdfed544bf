(** Client for the {!Psst_server} wire protocol — the substrate of
    [psst client], the differential serving tests and the bench load
    driver. One [t] is one connection; it is not thread-safe (use one
    connection per client thread).

    Failure handling (DESIGN.md §12): connection problems surface as
    {!Client_error} with a readable message — never a hang. [connect]
    bounds the TCP handshake with [connect_timeout_ms]; every call bounds
    its socket waits with [call_timeout_ms] ({!Psst_proto.Timed_out} past
    it, after which the stream position is untrustworthy — reconnect).
    {!run_all} retries transport breaks and retryable server rejections
    with capped exponential backoff and automatic reconnection; resending
    is safe because server answers are deterministic per
    (database, query, config). *)

type t

exception Client_error of string

(** [connect ?connect_timeout_ms ?call_timeout_ms endpoint]. Timeouts are
    in milliseconds; [0.] (the default) blocks indefinitely, matching the
    old behaviour. Raises {!Client_error} when the endpoint is unknown,
    unreachable, or does not accept within [connect_timeout_ms]. *)
val connect :
  ?connect_timeout_ms:float -> ?call_timeout_ms:float -> Psst_proto.endpoint -> t

val close : t -> unit

(** Raw frame I/O. [send_raw] writes arbitrary bytes (the fuzz tests use
    it to deliver corrupted frames); [half_close] shuts down the send
    side so the server sees EOF while the reply path stays open. *)
val send : t -> Psst_proto.request -> unit

val read_reply : t -> Psst_proto.reply
val send_raw : t -> string -> unit
val half_close : t -> unit

(** The connection's descriptor — for callers multiplexing their own
    waits ([select]) around {!read_reply}, e.g. the replication
    standby's stop-reactive stream reader. *)
val descriptor : t -> Unix.file_descr

(** [rpc c req] — send one request, read one reply. Low-level: transport
    exceptions ([End_of_file], [Proto_error], [Timed_out]) propagate. *)
val rpc : t -> Psst_proto.request -> Psst_proto.reply

(** [ping c] — round-trip; {!Client_error} if the server answers anything
    but [Pong]. *)
val ping : t -> unit

(** Full registry dump of the server process. *)
val stats_json : t -> string

(** Health snapshot of the server (uptime, queue depth, served /
    degraded / retryable-rejection counters, ingest epoch and lag). *)
val health : t -> Psst_proto.health

(** [set_tenant c name] — name this connection's tenant: subsequent
    queries and ingest batches on [c] are admitted and metered under
    [name]. {!Client_error} on an empty name or a rejection. *)
val set_tenant : t -> string -> unit

(** [add_graphs c graphs] — append [graphs] to the served database.
    [Ok r] means the batch is applied (and persisted when the server
    serves from a store file): the graphs hold global ids
    [r.base .. r.base + r.count - 1] and every query sent after this
    returns observes epoch [r.epoch]. [Error (code, msg)] carries the
    server's rejection; retryable codes (queue full, quota, shutdown,
    ingest disabled) left the database unchanged.

    [token] is the batch's idempotency key: resending a batch whose
    first ack was lost in transit, with the {e same} token, returns the
    original ack instead of ingesting twice. By default a fresh
    process-unique token is generated per call — pass an explicit one
    to tie a retry to its first attempt, or [""] to disable dedup. *)
val add_graphs :
  ?id:int ->
  ?token:string ->
  t ->
  Pgraph.t array ->
  (Psst_ingest.result, Psst_proto.error_code * string) result

(** [backoff_delay ~base_ms ~cap_ms attempt] — the reconnect policy's
    sleep before retry [attempt] (0-based), in seconds: [base_ms]
    doubled per attempt, capped at [cap_ms], times a deterministic
    jitter in [0.75, 1.25) keyed on [attempt]. {!run_all}, the router's
    worker links and the replication standby all back off with it. *)
val backoff_delay : base_ms:float -> cap_ms:float -> int -> float

(** [link_broken e] — whether [e] means the connection broke or could
    not be made (end of stream, a bad frame, a timeout, a socket or
    connect error, an injected fault), so the caller should drop the
    link and reconnect. *)
val link_broken : exn -> bool

(** [run_all c queries config] — pipeline all queries (ids [0..n-1]),
    then collect the replies and return them indexed by query position
    (replies may arrive out of order across micro-batches). Each slot is
    an [Answer] or an [Error_reply].

    [max_retries] (default 0) bounds recovery attempts: a transport break
    triggers reconnect-and-resend of the unanswered ids, and a refused
    reconnect is one more failed attempt, not an error; a retryable
    error reply (queue full / shutdown / unavailable) is resubmitted.
    Each recovery round sleeps {!backoff_delay} with base [backoff_ms]
    (default 50) and a 2 s cap. Past the budget a transport break raises
    {!Client_error}; retryable error replies are returned in their
    slots. A reply that breaks the protocol (wrong kind, unknown or
    repeated id) raises {!Client_error} at once, without a retry. *)
val run_all :
  ?max_retries:int ->
  ?backoff_ms:float ->
  t ->
  Lgraph.t list ->
  Query.config ->
  Psst_proto.reply array
