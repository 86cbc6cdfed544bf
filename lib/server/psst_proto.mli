(** Wire protocol of the resident query server (DESIGN.md §11, §12).

    Every message travels in one length-prefixed, CRC-32-framed binary
    frame layered on the {!Psst_store} payload codecs:

    {v
    offset 0   magic        "PSSTRPC\x00"        8 bytes
           8   version      u32                  {!proto_version}
          12   type         u32                  message tag
          16   payload_len  u32                  <= {!max_payload}
          20   crc          u32                  CRC-32 of bytes 0..19 ++ payload
          24   payload      bytes                {!Psst_store} encoding
    v}

    Readers are defensive end to end: a bad magic, a foreign version,
    an unknown tag, an oversized or negative length, a checksum mismatch,
    a payload that does not decode, trailing payload bytes, or EOF in the
    middle of a frame all raise {!Proto_error} with a human-readable
    message — never [Failure], an out-of-bounds [Invalid_argument], or a
    hang (a corrupted length field is bounded by [max_payload], so a
    reader never waits for gigabytes that will not come).

    There is one protocol version, {!proto_version}, and no negotiation:
    every binary of the repository speaks it, and a frame stamped with
    any other version raises {!Proto_error} naming both versions. A
    server or router answers that frame with one [Malformed] reply and
    closes the connection. A change to any message's encoding bumps
    {!proto_version}. *)

exception Proto_error of string

(** Raised by the [?deadline] fd readers/writers when the deadline passes
    mid-frame. The stream position is then untrustworthy: close the
    connection (the reconnecting client does exactly that). *)
exception Timed_out

val proto_version : int

(** 8-byte frame magic. *)
val magic : string

(** Size of the fixed frame header ([magic] through [crc]). *)
val header_bytes : int

(** Hard cap on [payload_len]; larger lengths are rejected before any
    allocation. *)
val max_payload : int

(** Where a server listens / a client connects. *)
type endpoint = Unix_socket of string | Tcp of string * int

val endpoint_to_string : endpoint -> string

(** The socket address an endpoint names: bind, connect and the
    listener's stop wake-up all resolve through this one function. A TCP
    host is a numeric address or a name looked up with [gethostbyname];
    an unknown name raises [Failure "HOST: unknown host"]. *)
val sockaddr_of_endpoint : endpoint -> Unix.sockaddr

(** Error taxonomy of {!reply.Error_reply}. [Queue_full], [Shutdown] and
    [Unavailable] are retryable: the request was not executed, so the
    client may resubmit (ideally elsewhere or after a backoff). *)
type error_code =
  | Malformed
  | Queue_full
  | Deadline
  | Shutdown
  | Internal
  | Unavailable

val error_code_name : error_code -> string
val error_code_retryable : error_code -> bool

(** The pruning counters echoed with every answer, so a client can check
    bit-identity with an offline {!Query.run} without a second channel.
    [degraded] marks an answer assembled under a
    verification budget or an injected fault: correct to the PMI bounds
    (a superset of the exact answer set), not exactly verified. *)
type query_stats = {
  relaxed_truncated : bool;
  structural_candidates : int;
  prob_candidates : int;
  accepted_by_bounds : int;
  pruned_by_bounds : int;
  degraded : bool;
}

val stats_of_query : Query.stats -> query_stats

(** One worker's slot in a router's aggregated health roster. [wid] is the worker's shard index in the router's
    configuration; when a worker is unreachable its snapshot fields are
    zero and [reachable] is false. *)
type worker_health = {
  wid : int;
  reachable : bool;
  worker_uptime_s : float;
  worker_queue_depth : int;
  worker_degraded_answers : int;
  rid : int;  (** replica index within the shard's group *)
  worker_epoch : int;
      (** the replica's applied ingest epoch; the primary epoch minus
          this is the replica's lag *)
  primary : bool;
      (** true when this replica currently serves the shard's queries *)
}

(** The [Get_health] snapshot a load balancer polls (DESIGN.md §12). *)
type health = {
  uptime_s : float;
  queue_depth : int;  (** requests admitted but not yet executed *)
  served : int;  (** replies sent since start, error replies included *)
  degraded_answers : int;  (** answers sent with [degraded = true] *)
  retryable_rejections : int;
      (** retryable error replies sent (queue-full / shutdown /
          unavailable) — the server-side retry-pressure counter *)
  workers : worker_health list;
      (** router role only: one slot per configured worker. Empty for
          plain workers. *)
  epoch : int;
      (** ingest batches applied since start (0 on servers without
          ingest) *)
  ingest_queued : int;
      (** graphs admitted to the ingest queue but not yet applied — the
          ingest lag a health poller watches *)
  ingest_applied : int;  (** graphs applied to the live database since start *)
}

type request =
  | Ping
  | Run of { id : int; query : Lgraph.t; config : Query.config }
  | Run_topk of { id : int; query : Lgraph.t; k : int; config : Query.config }
  | Get_stats
  | Get_health
  | Set_tenant of string
      (** name this connection's tenant: subsequent
          requests on the connection are admitted, scheduled and metered
          under that identity. Answered inline with [Pong]. The name
          must be non-empty and at most 128 bytes; connections that
          never send it run as tenant ["default"]. *)
  | Add_graphs of { id : int; token : string; graphs : Pgraph.t array }
      (** append [graphs] to the served database.
          Answered with {!reply.Ingest_ack} once the batch is applied
          (and persisted, when the server serves from a store file), or
          with a retryable [Error_reply] when the ingest queue or the
          tenant's quota is full, ingest is disabled, or persistence
          failed — the database is unchanged in every rejection case.
          [token] (at most 128 bytes) is a client-chosen idempotency
          key: a retry carrying the token of an already-applied batch is
          answered with the original ack instead of ingesting twice.
          [""] disables dedup for the batch. *)
  | Subscribe of { from_seq : int }
      (** turn this connection into a replication stream: the server
          sends {!reply.Delta_frame} for every persisted
          delta with seq >= [from_seq] ([>= 1]), historical first, then
          live as batches apply. The subscriber answers each frame with
          {!request.Replica_ack}; no other request may follow on the
          connection. Rejected when the server has no persistent delta
          chain. *)
  | Replica_ack of { seq : int }
      (** the subscriber has validated, persisted and applied delta
          [seq]. Acks are cumulative: acking seq [k]
          implies every seq [<= k]. *)

type reply =
  | Pong
  | Answer of { id : int; answers : int list; stats : query_stats }
  | Topk_answer of { id : int; hits : (int * float) list }
  | Stats_json of string
  | Health_reply of health
  | Error_reply of { id : int; code : error_code; message : string }
  | Ingest_ack of { id : int; epoch : int; base : int; count : int }
      (** [Add_graphs] succeeded: the [count] new graphs hold global ids
          [base .. base + count - 1] and every query admitted after this
          reply observes database epoch [epoch]. *)
  | Delta_frame of { seq : int; bytes : string }
      (** one delta of a replication stream: [bytes] is
          the exact content of the primary's on-disk [BASE.delta.seq]
          store file — the subscriber validates it with the store
          reader, persists it verbatim (hence byte-identical chains)
          and applies it through its own ingest path. *)

(** Full frame bytes (header + payload) for one message, stamped with
    {!proto_version}. *)
val encode_request : request -> string

val encode_reply : reply -> string

(** Decode one complete frame from a string (fuzz tests and tooling);
    {!Proto_error} on any anomaly, including trailing bytes after the
    frame. *)
val request_of_string : string -> request

val reply_of_string : string -> reply

(** {1 Fd-level frame IO}

    What the server and client actually use on sockets: retry loops over
    [Unix.read]/[Unix.write] that survive [EINTR] and short reads/writes
    (both routine on sockets), with an optional absolute deadline
    enforced by [select] — {!Timed_out} on expiry. The ["proto.read"] /
    ["proto.write"] fault sites act here: [Partial_io] forces 1-byte
    chunks through the same loops, [Bitflip] damages a checksummed byte,
    [Fail] raises {!Psst_fault.Injected} as a dead link. *)

(** [read_request_fd fd] reads one request. [End_of_file] at a clean
    frame boundary; EOF anywhere inside a frame is a truncation and
    raises {!Proto_error}. *)
val read_request_fd : ?deadline:float -> Unix.file_descr -> request

val read_reply_fd : ?deadline:float -> Unix.file_descr -> reply

(** [write_frame_fd fd bytes] writes a complete pre-encoded frame. *)
val write_frame_fd : ?deadline:float -> Unix.file_descr -> string -> unit
