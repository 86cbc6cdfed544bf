(** The connection machinery of a serving role (DESIGN.md §11), shared by
    {!Psst_server} and {!Psst_router}.

    A listener binds one endpoint, accepts connections on its own
    thread, and runs one reader thread per connection. The reader
    decodes frames, answers [Ping] and [Get_stats] inline, and hands
    every other request to the role's {!session} for that connection.
    A transport error, EOF or an injected [proto.read] fault drops the
    connection silently. A {!Psst_proto.Proto_error} — a corrupt frame
    or a foreign protocol version — gets one [Malformed] reply and a
    ["proto"] warning, then the connection is closed; the listener keeps
    serving everyone else.

    Metrics and warning codes carry the role's prefix ([server.*] /
    [router.*]): [conns], [requests], [served] (frames written),
    [proto.errors], [write.errors], [degraded], [retries], and the
    warning codes [ROLE.reader] and [ROLE.accept]. *)

(** The role's counters, interned once (bind them at module
    initialisation so they appear in every registry dump). *)
type metrics

val metrics : string -> metrics

(** One accepted connection. *)
type conn

(** A role's per-connection state: [handle] answers every request except
    [Ping] and [Get_stats], on the connection's reader thread; [close]
    runs once when the connection ends, however it ends. *)
type session = { handle : Psst_proto.request -> unit; close : unit -> unit }

type t

(** [bind metrics endpoint] binds and listens, without accepting yet.
    A Unix socket path that a live server still answers on is never
    taken over: [bind] raises [Unix.Unix_error (EADDRINUSE, "bind",
    path)]. A stale socket or plain file at the path is replaced. Raises
    [Unix.Unix_error] (or [Failure] for an unknown host) when the
    endpoint cannot be bound. Sets SIGPIPE to ignore. *)
val bind : metrics -> Psst_proto.endpoint -> t

(** [serve l ~session] starts the accept thread; [session c] opens the
    role's state for each accepted connection, on its reader thread. *)
val serve : t -> session:(conn -> session) -> unit

(** The bound endpoint — for [Tcp (host, 0)] this carries the actual
    kernel-assigned port. *)
val endpoint : t -> Psst_proto.endpoint

(** [reply l c r] sends [r] and counts it: every reply in {!served},
    degraded answers and retryable errors in their own counters. A
    failed write is metered as [write.errors] and otherwise ignored. *)
val reply : t -> conn -> Psst_proto.reply -> unit

(** [send l c r] sends [r] without counting it as a reply and reports
    whether the frame left the socket — the replication stream's send,
    which must drop a dead subscriber. *)
val send : t -> conn -> Psst_proto.reply -> bool

(** Replies counted by {!reply} since {!bind}. *)
val served : t -> int

(** The listener's part of a health snapshot: uptime and the reply
    counters; every other field is zero or empty for the role to fill. *)
val health : t -> Psst_proto.health

(** Stop phase one: refuse new connections. Shuts the listening socket,
    makes a wake-up connect for a thread blocked in [accept], joins the
    accept thread and closes the socket. Established connections keep
    being served. Call once. *)
val close_admission : t -> unit

(** Stop phase two: close every connection, join every reader thread,
    and unlink the Unix socket path if it is still the one this
    listener bound. Call once, after {!close_admission}. *)
val close_connections : t -> unit
