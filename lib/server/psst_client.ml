module Proto = Psst_proto

exception Client_error of string

let client_error fmt = Printf.ksprintf (fun s -> raise (Client_error s)) fmt

type t = {
  endpoint : Proto.endpoint;
  connect_timeout_ms : float;  (* 0. = block indefinitely *)
  call_timeout_ms : float;  (* 0. = block indefinitely *)
  mutable fd : Unix.file_descr;
}

(* Non-blocking connect + select so an unreachable or black-holed endpoint
   surfaces as a clean Client_error after [timeout_ms] instead of blocking
   the caller for the kernel's (minutes-long) TCP timeout. *)
let connect_fd endpoint timeout_ms =
  let addr =
    try Proto.sockaddr_of_endpoint endpoint
    with Failure msg -> raise (Client_error msg)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    (if timeout_ms <= 0. then Unix.connect fd addr
     else begin
       Unix.set_nonblock fd;
       (match Unix.connect fd addr with
       | () -> ()
       | exception
           Unix.Unix_error
             ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
         let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
         let rec wait () =
           let left = deadline -. Unix.gettimeofday () in
           if left <= 0. then
             client_error "connect to %s timed out after %.0f ms"
               (Proto.endpoint_to_string endpoint)
               timeout_ms;
           match Unix.select [] [ fd ] [ fd ] left with
           | _, [], [] -> wait ()
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
         in
         wait ();
         (* The socket is writable on success AND on failure; SO_ERROR
            tells them apart. *)
         (match Unix.getsockopt_error fd with
         | None -> ()
         | Some err ->
           client_error "connect to %s failed: %s"
             (Proto.endpoint_to_string endpoint)
             (Unix.error_message err)));
       Unix.clear_nonblock fd
     end);
    fd
  with
  | Client_error _ as e ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    raise e
  | Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    client_error "connect to %s failed: %s"
      (Proto.endpoint_to_string endpoint)
      (Unix.error_message err)

let connect ?(connect_timeout_ms = 0.) ?(call_timeout_ms = 0.) endpoint =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let fd = connect_fd endpoint connect_timeout_ms in
  { endpoint; connect_timeout_ms; call_timeout_ms; fd }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

(* The new link is made before the old one is closed, so a refused
   reconnect leaves [c] holding its old descriptor (closed exactly once,
   by whoever closes [c]) and can simply be tried again. *)
let reconnect c =
  let fd = connect_fd c.endpoint c.connect_timeout_ms in
  close c;
  c.fd <- fd

let deadline c =
  if c.call_timeout_ms > 0. then
    Some (Unix.gettimeofday () +. (c.call_timeout_ms /. 1000.))
  else None

let send_raw c bytes = Proto.write_frame_fd ?deadline:(deadline c) c.fd bytes
let send c req = send_raw c (Proto.encode_request req)
let read_reply c = Proto.read_reply_fd ?deadline:(deadline c) c.fd
let half_close c = Unix.shutdown c.fd Unix.SHUTDOWN_SEND
let descriptor c = c.fd

let rpc c req =
  send c req;
  read_reply c

let ping c =
  match rpc c Proto.Ping with
  | Proto.Pong -> ()
  | _ -> raise (Client_error "ping: unexpected reply")

let stats_json c =
  match rpc c Proto.Get_stats with
  | Proto.Stats_json j -> j
  | _ -> raise (Client_error "stats: unexpected reply")

let health c =
  match rpc c Proto.Get_health with
  | Proto.Health_reply h -> h
  | _ -> raise (Client_error "health: unexpected reply")

let set_tenant c name =
  if name = "" then raise (Client_error "set_tenant: tenant name is empty");
  match rpc c (Proto.Set_tenant name) with
  | Proto.Pong -> ()
  | Proto.Error_reply { message; _ } ->
    client_error "set_tenant: server rejected %S: %s" name message
  | _ -> raise (Client_error "set_tenant: unexpected reply")

(* Auto-generated idempotency tokens: one prefix per process (pid +
   start time), one suffix per batch. Unique across every client that
   could retry against the same server, with no coordination. *)
let token_counter = Atomic.make 0

let token_prefix =
  lazy (Printf.sprintf "%d.%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))

let fresh_token () =
  Printf.sprintf "%s.%d" (Lazy.force token_prefix)
    (Atomic.fetch_and_add token_counter 1)

let add_graphs ?(id = 0) ?token c graphs =
  let token = match token with Some t -> t | None -> fresh_token () in
  match rpc c (Proto.Add_graphs { id; token; graphs }) with
  | Proto.Ingest_ack { id = rid; epoch; base; count } ->
    if rid <> id then raise (Client_error "add_graphs: reply id mismatch");
    Ok { Psst_ingest.epoch; base; count }
  | Proto.Error_reply { id = rid; code; message } ->
    if rid <> id then raise (Client_error "add_graphs: reply id mismatch");
    Error (code, message)
  | _ -> raise (Client_error "add_graphs: unexpected reply")

(* Capped exponential backoff with a deterministic jitter keyed on the
   attempt (a PRNG here would make load-driver runs unrepeatable, and
   reconnect storms from several peers still spread out); seconds. *)
let backoff_delay ~base_ms ~cap_ms attempt =
  let capped = Float.min (base_ms *. (2. ** float_of_int attempt)) cap_ms in
  let jitter = 0.75 +. (0.5 *. float_of_int (attempt * 7919 mod 997) /. 997.) in
  capped *. jitter /. 1000.

let link_broken = function
  | End_of_file | Proto.Proto_error _ | Proto.Timed_out
  | Unix.Unix_error (_, _, _)
  | Sys_error _ | Client_error _
  | Psst_fault.Injected _ ->
    true
  | _ -> false

(* A reply that breaks the protocol is the server's fault, not the
   link's: it escapes run_all's retry loop as a Client_error. *)
exception Violation of string

let run_all ?(max_retries = 0) ?(backoff_ms = 50.) c queries config =
  let queries = Array.of_list queries in
  let n = Array.length queries in
  let out : Proto.reply option array = Array.make n None in
  let pending () =
    let l = ref [] in
    for id = n - 1 downto 0 do
      if out.(id) = None then l := id :: !l
    done;
    !l
  in
  let attempt = ref 0 in
  let rec go ~reconnect_first =
    match pending () with
    | [] -> ()
    | todo ->
      (* Pipeline every unanswered id, then collect. Server answers are
         deterministic per (db, query, config), so resending after a
         transport break cannot change a result — at worst the server
         computes an answer twice. The reconnect after a break is part
         of the attempt, so a refused one backs off like any other
         transport failure. *)
      let transport_ok =
        try
          if reconnect_first then reconnect c;
          List.iter
            (fun id -> send c (Proto.Run { id; query = queries.(id); config }))
            todo;
          let remaining = ref (List.length todo) in
          while !remaining > 0 do
            let reply = read_reply c in
            let id =
              match reply with
              | Proto.Answer { id; _ } | Proto.Error_reply { id; _ } -> id
              | Proto.Pong | Proto.Topk_answer _ | Proto.Stats_json _
              | Proto.Health_reply _ | Proto.Ingest_ack _ | Proto.Delta_frame _
                ->
                raise (Violation "run_all: unexpected reply kind")
            in
            if id < 0 || id >= n then
              raise (Violation "run_all: reply id out of range");
            if out.(id) <> None then
              raise (Violation "run_all: duplicate reply id");
            out.(id) <- Some reply;
            decr remaining
          done;
          true
        with e when link_broken e -> false
      in
      (* Retryable error replies (queue full, shutdown, unavailable) are
         resubmitted while retries remain; past the budget they stay in
         their slot for the caller to see. *)
      let retryable_cleared =
        if !attempt < max_retries then begin
          let any = ref false in
          Array.iteri
            (fun id r ->
              match r with
              | Some (Proto.Error_reply { code; _ })
                when Proto.error_code_retryable code ->
                out.(id) <- None;
                any := true
              | _ -> ())
            out;
          !any
        end
        else false
      in
      if (not transport_ok) || retryable_cleared then begin
        if !attempt >= max_retries then
          client_error
            "run_all: connection to %s failed with %d of %d replies missing \
             and no retries left (%d attempts)"
            (Proto.endpoint_to_string c.endpoint)
            (List.length (pending ()))
            n (!attempt + 1);
        Unix.sleepf (backoff_delay ~base_ms:backoff_ms ~cap_ms:2000. !attempt);
        incr attempt;
        go ~reconnect_first:(not transport_ok)
      end
  in
  (try go ~reconnect_first:false with Violation msg -> raise (Client_error msg));
  Array.map
    (function
      | Some r -> r
      | None -> raise (Client_error "run_all: missing reply"))
    out
