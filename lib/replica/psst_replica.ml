(* Delta-stream replication: the primary-side hub that streams persisted
   deltas to subscribed standbys and gates ingest acks on their
   acknowledgements, and the standby-side loop that applies the stream
   through the single-writer ingest path (DESIGN.md §17). *)

module P = Psst_proto
module I = Psst_ingest
module Client = Psst_client

let m_frames = Psst_obs.counter "replica.frames"
let m_subscribes = Psst_obs.counter "replica.subscribes"
let m_stream_errors = Psst_obs.counter "replica.stream.errors"
let m_applied = Psst_obs.counter "replica.applied"
let m_stale = Psst_obs.counter "replica.stale"
let m_rejected = Psst_obs.counter "replica.rejected"
let m_reconnects = Psst_obs.counter "replica.reconnects"

(* Chaos site on the standby's receive path: between the wire and the
   disk, where a real deployment's stream corruption would land. *)
let fault_stream = Psst_fault.site "replica.stream"

(* {1 Primary side: the hub} *)

type sub = {
  sid : int;
  send : P.reply -> bool;
  mutable next : int;  (* next seq to stream to this subscriber *)
  mutable acked : int;  (* highest seq the subscriber acknowledged *)
  mutable closed : bool;
}

type hub = {
  chain : I.chain;
  ack_timeout_ms : float;
  hmutex : Mutex.t;
  hcond : Condition.t;
  mutable head : int;  (* highest persisted seq (publish advances it) *)
  mutable subs : sub list;
  mutable next_sid : int;
  mutable hub_stopping : bool;
  mutable threads : Thread.t list;
}

let close_sub h s =
  Mutex.lock h.hmutex;
  if not s.closed then begin
    s.closed <- true;
    h.subs <- List.filter (fun s' -> s'.sid <> s.sid) h.subs;
    Condition.broadcast h.hcond
  end;
  Mutex.unlock h.hmutex

(* One thread per subscriber: sleep until the head passes [next], read
   the persisted bytes back (checksum-verified) and push them. The
   subscriber connection's writes are serialised by the server's
   per-connection write mutex, so frames interleave safely with the
   reader thread's replies. *)
let stream_loop h s =
  let rec loop () =
    Mutex.lock h.hmutex;
    while (not h.hub_stopping) && (not s.closed) && s.next > h.head do
      Condition.wait h.hcond h.hmutex
    done;
    if h.hub_stopping || s.closed then Mutex.unlock h.hmutex
    else begin
      let seq = s.next in
      Mutex.unlock h.hmutex;
      match s.send (P.Delta_frame { seq; bytes = I.delta_bytes h.chain ~seq }) with
      | true ->
        Psst_obs.incr m_frames;
        Mutex.lock h.hmutex;
        s.next <- seq + 1;
        Mutex.unlock h.hmutex;
        loop ()
      | false -> close_sub h s
      | exception e ->
        (* An unreadable delta, or a send that raises (a frame over the
           wire's payload cap): drop the subscriber, never the thread
           alone — a dead thread would leave it in [subs], and every
           later ack would wait out the gate's full timeout. *)
        Psst_obs.incr m_stream_errors;
        let msg =
          match e with
          | Psst_store.Store_error m | Sys_error m | P.Proto_error m -> m
          | e -> Printexc.to_string e
        in
        Psst_obs.warn ~code:"replica.stream"
          (Printf.sprintf "cannot stream delta %d, dropping subscriber %d: %s"
             seq s.sid msg);
        close_sub h s
    end
  in
  loop ()

let hub ?(ack_timeout_ms = 5000.) chain =
  {
    chain;
    ack_timeout_ms;
    hmutex = Mutex.create ();
    hcond = Condition.create ();
    head = chain.I.next_seq - 1;
    subs = [];
    next_sid = 0;
    hub_stopping = false;
    threads = [];
  }

let subscribe h ~from_seq ~send =
  Mutex.lock h.hmutex;
  let r =
    if h.hub_stopping then Error "replication hub is shutting down"
    else if from_seq < 1 then
      Error (Printf.sprintf "invalid from_seq %d" from_seq)
    else if from_seq > h.head + 1 then
      Error
        (Printf.sprintf
           "subscriber is ahead of the primary's chain (from_seq %d, next \
            unstreamed seq %d); it replicates a different history"
           from_seq (h.head + 1))
    else begin
      let s =
        {
          sid = h.next_sid;
          send;
          next = from_seq;
          acked = from_seq - 1;
          closed = false;
        }
      in
      h.next_sid <- h.next_sid + 1;
      h.subs <- s :: h.subs;
      let th = Thread.create (fun () -> stream_loop h s) () in
      h.threads <- th :: h.threads;
      Condition.broadcast h.hcond;
      Ok s
    end
  in
  Mutex.unlock h.hmutex;
  match r with
  | Error _ as e -> e
  | Ok s ->
    Psst_obs.incr m_subscribes;
    Ok
      {
        Psst_server.sub_ack =
          (fun ~seq ->
            Mutex.lock h.hmutex;
            if seq > s.acked then s.acked <- seq;
            Condition.broadcast h.hcond;
            Mutex.unlock h.hmutex);
        sub_close = (fun () -> close_sub h s);
      }

(* The ingest writer's ack gate. [head] advances first so the stream
   threads wake; then wait (in short slices — the OCaml stdlib has no
   timed condition wait) until every live subscriber acked [seq], the
   subscriber list drained to empty, or the timeout expired. A
   subscriber dying mid-wait removes itself from [subs], so a lone
   crashing standby degrades the primary to standalone acks rather than
   wedging ingest. *)
let publish h ~seq =
  Mutex.lock h.hmutex;
  if seq > h.head then h.head <- seq;
  Condition.broadcast h.hcond;
  let deadline = Unix.gettimeofday () +. (h.ack_timeout_ms /. 1000.) in
  let rec wait () =
    if h.subs = [] then `No_standby
    else if List.for_all (fun s -> s.acked >= seq) h.subs then `Replicated
    else if h.ack_timeout_ms > 0. && Unix.gettimeofday () >= deadline then begin
      let behind = List.filter (fun s -> s.acked < seq) h.subs in
      `Lagging
        (Printf.sprintf "%d subscriber(s) behind seq %d after %.0f ms"
           (List.length behind) seq h.ack_timeout_ms)
    end
    else begin
      Mutex.unlock h.hmutex;
      Thread.delay 0.002;
      Mutex.lock h.hmutex;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock h.hmutex;
  r

let publisher h =
  {
    Psst_server.pub_publish = (fun ~seq -> publish h ~seq);
    pub_subscribe = (fun ~from_seq ~send -> subscribe h ~from_seq ~send);
  }

let stop_hub h =
  Mutex.lock h.hmutex;
  h.hub_stopping <- true;
  List.iter (fun s -> s.closed <- true) h.subs;
  h.subs <- [];
  Condition.broadcast h.hcond;
  let threads = h.threads in
  h.threads <- [];
  Mutex.unlock h.hmutex;
  List.iter Thread.join threads

(* {1 Standby side} *)

type standby = {
  primary : P.endpoint;
  chain : I.chain;
  db_ref : I.snapshot Atomic.t;
  connect_timeout_ms : float;
  backoff_ms : float;
  max_backoff_ms : float;
  smutex : Mutex.t;
  mutable conn : Client.t option;
  mutable standby_stopping : bool;
  mutable thread : Thread.t option;
}

exception Drop_connection of string

let stopping st =
  Mutex.lock st.smutex;
  let v = st.standby_stopping in
  Mutex.unlock st.smutex;
  v

(* Sleep in short slices so stop_standby is never blocked behind a
   backoff window. *)
let interruptible_sleep st seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if (not (stopping st)) && Unix.gettimeofday () < deadline then begin
      Thread.delay (Float.min 0.05 seconds);
      go ()
    end
  in
  go ()

let backoff st ~attempt =
  interruptible_sleep st
    (Client.backoff_delay ~base_ms:st.backoff_ms ~cap_ms:st.max_backoff_ms
       attempt)

(* Wait for the next frame without committing to a blocking read: slices
   of [select] keep the loop responsive to stop_standby while the stream
   is idle. True = bytes are en route (read_reply may block briefly on
   the frame body, which the primary is already sending). *)
let wait_readable st c =
  let fd = Client.descriptor c in
  let rec go () =
    if stopping st then false
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The "replica.stream" chaos actions, interpreted on the receive path:
   [Bitflip] corrupts the frame so validation rejects it downstream
   (nothing may be persisted), [Delay] stalls the apply (builds lag),
   [Fail]/[Partial_io] drop the connection. *)
let fault_frame bytes =
  match Psst_fault.fire fault_stream with
  | None -> bytes
  | Some (Psst_fault.Delay d) ->
    Thread.delay d;
    bytes
  | Some Psst_fault.Bitflip -> Psst_fault.flip_bit fault_stream bytes
  | Some (Psst_fault.Fail | Psst_fault.Partial_io) ->
    raise (Psst_fault.Injected "replica.stream")

let handle_frame st c ~seq ~bytes =
  let bytes = fault_frame bytes in
  match I.apply_replicated st.chain st.db_ref ~seq ~bytes with
  | `Applied _ ->
    Psst_obs.incr m_applied;
    Client.send c (P.Replica_ack { seq })
  | `Stale ->
    (* Reconnect replay of a delta we already hold: ack so the primary's
       gate does not wait on it. *)
    Psst_obs.incr m_stale;
    Client.send c (P.Replica_ack { seq })
  | `Error msg ->
    Psst_obs.incr m_rejected;
    raise (Drop_connection msg)

(* One connected session: subscribe from the next unapplied seq, then
   apply frames until the connection or the stream breaks. Returns only
   by exception or stop. *)
let session st c =
  Client.send c (P.Subscribe { from_seq = st.chain.I.next_seq });
  let rec loop () =
    if wait_readable st c then begin
      (match Client.read_reply c with
      | P.Delta_frame { seq; bytes } -> handle_frame st c ~seq ~bytes
      | P.Error_reply { code; message; _ } ->
        raise
          (Drop_connection
             (Printf.sprintf "primary rejected the subscription (%s): %s"
                (P.error_code_name code) message))
      | _ -> raise (Drop_connection "unexpected reply on the delta stream"));
      loop ()
    end
  in
  loop ()

let standby_loop st =
  let attempt = ref 0 in
  while not (stopping st) do
    (match Client.connect ~connect_timeout_ms:st.connect_timeout_ms st.primary with
    | exception Client.Client_error msg ->
      if not (stopping st) then begin
        Psst_obs.warn ~code:"replica.connect" msg;
        backoff st ~attempt:!attempt;
        incr attempt
      end
    | c ->
      Mutex.lock st.smutex;
      st.conn <- Some c;
      Mutex.unlock st.smutex;
      (* A session that applied at least one frame resets the backoff:
         the primary was healthy, the break is fresh news. *)
      let applied_before = Psst_obs.counter_value m_applied in
      (try session st c with
      | Drop_connection msg ->
        Psst_obs.incr m_reconnects;
        Psst_obs.warn ~code:"replica.stream" msg
      | e when Client.link_broken e ->
        Psst_obs.incr m_reconnects;
        if not (stopping st) then
          Psst_obs.warn ~code:"replica.stream"
            "connection to the primary lost; reconnecting");
      Mutex.lock st.smutex;
      st.conn <- None;
      Mutex.unlock st.smutex;
      Client.close c;
      if not (stopping st) then begin
        if Psst_obs.counter_value m_applied > applied_before then attempt := 0;
        backoff st ~attempt:!attempt;
        incr attempt
      end)
  done

let start_standby ?(connect_timeout_ms = 1000.) ?(backoff_ms = 50.)
    ?(max_backoff_ms = 2000.) ~primary ~chain db_ref =
  let st =
    {
      primary;
      chain;
      db_ref;
      connect_timeout_ms;
      backoff_ms;
      max_backoff_ms;
      smutex = Mutex.create ();
      conn = None;
      standby_stopping = false;
      thread = None;
    }
  in
  st.thread <- Some (Thread.create (fun () -> standby_loop st) ());
  st

let stop_standby st =
  Mutex.lock st.smutex;
  st.standby_stopping <- true;
  (* Shut the socket down so a read mid-frame fails immediately instead
     of waiting for the primary; the idle wait is select-sliced anyway. *)
  (match st.conn with
  | Some c -> (
    try Unix.shutdown (Client.descriptor c) Unix.SHUTDOWN_ALL
    with Unix.Unix_error (_, _, _) -> ())
  | None -> ());
  let th = st.thread in
  st.thread <- None;
  Mutex.unlock st.smutex;
  Option.iter Thread.join th

let applied_seq st = st.chain.I.next_seq - 1

let promote st server =
  stop_standby st;
  Psst_server.set_writable server true
