(* The connection machinery of a serving role (DESIGN.md §11), shared by
   Psst_server and Psst_router: bind, the accept thread, one reader
   thread per connection, framing-error handling, inline Ping /
   Get_stats, reply accounting and the two-phase stop. The role supplies
   one session per connection and answers every other request. *)

module Proto = Psst_proto

type metrics = {
  role : string;
  conns : Psst_obs.counter;
  requests : Psst_obs.counter;
  served : Psst_obs.counter;
  proto_errors : Psst_obs.counter;
  write_errors : Psst_obs.counter;
  degraded : Psst_obs.counter;
  retries : Psst_obs.counter;
}

let metrics role =
  let c name = Psst_obs.counter (role ^ "." ^ name) in
  {
    role;
    conns = c "conns";
    requests = c "requests";
    served = c "served";
    proto_errors = c "proto.errors";
    write_errors = c "write.errors";
    degraded = c "degraded";
    retries = c "retries";
  }

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;  (* serialises reply writes and the close *)
  mutable open_ : bool;
}

type session = { handle : Proto.request -> unit; close : unit -> unit }

type t = {
  m : metrics;
  listen_fd : Unix.file_descr;
  bound : Proto.endpoint;  (* endpoint with the actual port resolved *)
  socket_id : (int * int) option;  (* (st_dev, st_ino) of a bound Unix socket *)
  closing : bool Atomic.t;
  mutex : Mutex.t;  (* guards [conns] and [readers] *)
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable accept_thread : Thread.t option;
  served_count : int Atomic.t;
  degraded_count : int Atomic.t;
  retry_count : int Atomic.t;  (* retryable error replies sent *)
  start_time : float;
}

let endpoint l = l.bound
let served l = Atomic.get l.served_count

let health l =
  {
    Proto.uptime_s = Unix.gettimeofday () -. l.start_time;
    queue_depth = 0;
    served = Atomic.get l.served_count;
    degraded_answers = Atomic.get l.degraded_count;
    retryable_rejections = Atomic.get l.retry_count;
    workers = [];
    epoch = 0;
    ingest_queued = 0;
    ingest_applied = 0;
  }

(* --- replies --- *)

let close_conn l c =
  Mutex.lock c.wmutex;
  let was_open = c.open_ in
  if was_open then begin
    c.open_ <- false;
    (* shutdown() wakes a reader blocked in read(2) on this socket —
       close() alone does not — so the stop can join every reader. *)
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
  end;
  Mutex.unlock c.wmutex;
  if was_open then begin
    Mutex.lock l.mutex;
    l.conns <- List.filter (fun c' -> c' != c) l.conns;
    Mutex.unlock l.mutex
  end

let send l c reply =
  let bytes = Proto.encode_reply reply in
  Mutex.lock c.wmutex;
  let ok =
    c.open_
    &&
    match Proto.write_frame_fd c.fd bytes with
    | () ->
      Psst_obs.incr l.m.served;
      true
    | exception (Sys_error _ | Unix.Unix_error (_, _, _) | Psst_fault.Injected _)
      ->
      (* The peer hung up mid-reply, or proto.write injected a dead link:
         normal under load, not a warning. The reader side of this
         connection fails next and closes it. *)
      Psst_obs.incr l.m.write_errors;
      false
  in
  Mutex.unlock c.wmutex;
  ok

let reply l c r =
  Atomic.incr l.served_count;
  (match r with
  | Proto.Answer { stats; _ } when stats.Proto.degraded ->
    Atomic.incr l.degraded_count;
    Psst_obs.incr l.m.degraded
  | Proto.Error_reply { code; _ } when Proto.error_code_retryable code ->
    Atomic.incr l.retry_count;
    Psst_obs.incr l.m.retries
  | _ -> ());
  ignore (send l c r)

(* --- connection threads --- *)

let rec reader_loop l c session =
  match Proto.read_request_fd c.fd with
  | exception
      ( End_of_file | Sys_error _
      | Unix.Unix_error (_, _, _)
      | Psst_fault.Injected _ ) ->
    (* A clean close, a dead transport, or an injected dead link on
       proto.read: drop the connection. *)
    ()
  | exception Proto.Proto_error msg ->
    (* One error reply, one warning event, then drop the connection:
       after a framing error — a foreign protocol version included — the
       byte stream has no trustworthy frame boundary left. *)
    Psst_obs.incr l.m.proto_errors;
    Psst_obs.warn ~code:"proto" msg;
    reply l c (Proto.Error_reply { id = 0; code = Proto.Malformed; message = msg })
  | req ->
    Psst_obs.incr l.m.requests;
    (match req with
    | Proto.Ping -> reply l c Proto.Pong
    | Proto.Get_stats -> reply l c (Proto.Stats_json (Psst_obs.to_json_string ()))
    | req -> session.handle req);
    reader_loop l c session

let serve_conn l open_session c =
  let session = open_session c in
  Fun.protect
    ~finally:(fun () ->
      session.close ();
      close_conn l c)
    (fun () ->
      try reader_loop l c session
      with e -> Psst_obs.warn ~code:(l.m.role ^ ".reader") (Printexc.to_string e))

let rec accept_loop l open_session =
  match Unix.accept l.listen_fd with
  | fd, _addr when Atomic.get l.closing ->
    (* The stop's wake-up connection (or a raced late client): admission
       is closed, drop it. *)
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
  | fd, _addr ->
    let c = { fd; wmutex = Mutex.create (); open_ = true } in
    Psst_obs.incr l.m.conns;
    let th = Thread.create (serve_conn l open_session) c in
    Mutex.lock l.mutex;
    l.conns <- c :: l.conns;
    l.readers <- th :: l.readers;
    Mutex.unlock l.mutex;
    accept_loop l open_session
  | exception Unix.Unix_error (e, _, _) ->
    if Atomic.get l.closing then ()
    else if e = Unix.ECONNABORTED || e = Unix.EINTR then accept_loop l open_session
    else begin
      (* Transient accept failure (e.g. EMFILE): report, back off, keep
         serving the connections we already have. *)
      Psst_obs.warn ~code:(l.m.role ^ ".accept") (Unix.error_message e);
      Thread.delay 0.05;
      if not (Atomic.get l.closing) then accept_loop l open_session
    end

(* --- lifecycle --- *)

let file_id path =
  let st = Unix.stat path in
  (st.Unix.st_dev, st.Unix.st_ino)

(* A live server answers a connect on its socket path: refuse to steal
   the path from it. Anything else there — a stale socket left by a
   crashed process, or a plain file — is removed so bind can succeed. *)
let claim_socket_path path addr =
  let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let live =
    match Unix.connect probe addr with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  Unix.close probe;
  if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
  try Unix.unlink path with Unix.Unix_error (_, _, _) -> ()

let bind m endpoint =
  (* A peer hanging up mid-reply must not kill the process. *)
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let addr = Proto.sockaddr_of_endpoint endpoint in
  (match endpoint with
  | Proto.Unix_socket path -> claim_socket_path path addr
  | Proto.Tcp _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  let bound, socket_id =
    try
      (match endpoint with
      | Proto.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Proto.Unix_socket _ -> ());
      Unix.bind fd addr;
      Unix.listen fd 64;
      match (endpoint, Unix.getsockname fd) with
      | Proto.Unix_socket path, _ -> (endpoint, Some (file_id path))
      | Proto.Tcp (host, _), Unix.ADDR_INET (_, port) ->
        (Proto.Tcp (host, port), None)
      | Proto.Tcp _, _ -> (endpoint, None)
    with e ->
      Unix.close fd;
      raise e
  in
  {
    m;
    listen_fd = fd;
    bound;
    socket_id;
    closing = Atomic.make false;
    mutex = Mutex.create ();
    conns = [];
    readers = [];
    accept_thread = None;
    served_count = Atomic.make 0;
    degraded_count = Atomic.make 0;
    retry_count = Atomic.make 0;
    start_time = Unix.gettimeofday ();
  }

let serve l ~session =
  l.accept_thread <- Some (Thread.create (accept_loop l) session)

let close_admission l =
  Atomic.set l.closing true;
  (* Unblock the accept thread. Closing the fd does NOT wake a thread
     already blocked in accept(2) on Linux, so: shutdown the listening
     socket (wakes accept on most kernels), then make one wake-up
     connection to the endpoint as a portable fallback — the accept loop
     sees [closing] and drops it. *)
  (try Unix.shutdown l.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error (_, _, _) -> ());
  (try
     let addr = Proto.sockaddr_of_endpoint l.bound in
     let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
     Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.connect fd addr)
   with Unix.Unix_error (_, _, _) | Failure _ -> ());
  Option.iter Thread.join l.accept_thread;
  try Unix.close l.listen_fd with Unix.Unix_error (_, _, _) -> ()

let close_connections l =
  Mutex.lock l.mutex;
  let conns = l.conns and readers = l.readers in
  Mutex.unlock l.mutex;
  List.iter (close_conn l) conns;
  List.iter Thread.join readers;
  match (l.bound, l.socket_id) with
  | Proto.Unix_socket path, Some id -> (
    (* Unlink only the socket this listener bound: a server that has
       since taken over the path owns it now. *)
    match file_id path with
    | id' when id' = id -> (
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    | _ | (exception Unix.Unix_error (_, _, _)) -> ())
  | _ -> ()
