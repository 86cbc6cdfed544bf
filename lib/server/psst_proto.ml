(* Framed binary RPC protocol (DESIGN.md §11, §12). Payloads reuse the
   Psst_store codecs; the frame adds a magic/version/type header, a u32
   length and a CRC-32 over header and payload, so every byte on the wire
   is covered by the checksum.

   There is exactly one protocol version. Every binary of the repository
   speaks it, a frame stamped with any other version is rejected by
   [check_header], and a format change bumps [proto_version]. *)

module S = Psst_store
module Crc32 = Psst_util.Crc32

exception Proto_error of string
exception Timed_out

let error fmt = Printf.ksprintf (fun msg -> raise (Proto_error msg)) fmt
let proto_version = 6
let magic = "PSSTRPC\x00"
let header_bytes = 24
let max_payload = 16 * 1024 * 1024

(* Chaos sites on the wire (DESIGN.md §12): Partial_io forces the fd IO
   into 1-byte reads/writes (the retry loops must reassemble the frame),
   Bitflip damages bytes the CRC must catch, Fail simulates a dead link. *)
let fault_read = Psst_fault.site "proto.read"
let fault_write = Psst_fault.site "proto.write"

let injected site =
  raise
    (Psst_fault.Injected
       ("injected fault at site " ^ Psst_fault.site_name site))

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_endpoint = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> failwith (host ^ ": unknown host"))
    in
    Unix.ADDR_INET (inet, port)

type error_code =
  | Malformed
  | Queue_full
  | Deadline
  | Shutdown
  | Internal
  | Unavailable

let error_code_name = function
  | Malformed -> "malformed"
  | Queue_full -> "queue_full"
  | Deadline -> "deadline"
  | Shutdown -> "shutdown"
  | Internal -> "internal"
  | Unavailable -> "unavailable"

let error_code_retryable = function
  | Queue_full | Shutdown | Unavailable -> true
  | Malformed | Deadline | Internal -> false

let error_code_tag = function
  | Malformed -> 0
  | Queue_full -> 1
  | Deadline -> 2
  | Shutdown -> 3
  | Internal -> 4
  | Unavailable -> 5

let error_code_of_tag = function
  | 0 -> Malformed
  | 1 -> Queue_full
  | 2 -> Deadline
  | 3 -> Shutdown
  | 4 -> Internal
  | 5 -> Unavailable
  | t -> error "unknown error code tag %d" t

type query_stats = {
  relaxed_truncated : bool;
  structural_candidates : int;
  prob_candidates : int;
  accepted_by_bounds : int;
  pruned_by_bounds : int;
  degraded : bool;
}

let stats_of_query (s : Query.stats) =
  {
    relaxed_truncated = s.relaxed_truncated;
    structural_candidates = s.structural_candidates;
    prob_candidates = s.prob_candidates;
    accepted_by_bounds = s.accepted_by_bounds;
    pruned_by_bounds = s.pruned_by_bounds;
    degraded = s.degraded_candidates > 0;
  }

(* One replica's slot in a router's aggregated health roster. *)
type worker_health = {
  wid : int;  (* shard / worker index in the router's configuration *)
  reachable : bool;
  worker_uptime_s : float;
  worker_queue_depth : int;
  worker_degraded_answers : int;
  rid : int;  (* replica index within the shard's group *)
  worker_epoch : int;  (* the replica's applied ingest epoch *)
  primary : bool;  (* currently the shard's serving replica *)
}

type health = {
  uptime_s : float;
  queue_depth : int;
  served : int;
  degraded_answers : int;
  retryable_rejections : int;
  workers : worker_health list;
      (* router role: one slot per worker; empty for plain workers *)
  epoch : int;  (* ingest batches applied since start *)
  ingest_queued : int;  (* graphs waiting in the ingest queue — the lag *)
  ingest_applied : int;  (* graphs applied to the live database *)
}

type request =
  | Ping
  | Run of { id : int; query : Lgraph.t; config : Query.config }
  | Run_topk of { id : int; query : Lgraph.t; k : int; config : Query.config }
  | Get_stats
  | Get_health
  | Set_tenant of string
  | Add_graphs of { id : int; token : string; graphs : Pgraph.t array }
  | Subscribe of { from_seq : int }
  | Replica_ack of { seq : int }

type reply =
  | Pong
  | Answer of { id : int; answers : int list; stats : query_stats }
  | Topk_answer of { id : int; hits : (int * float) list }
  | Stats_json of string
  | Health_reply of health
  | Error_reply of { id : int; code : error_code; message : string }
  | Ingest_ack of { id : int; epoch : int; base : int; count : int }
  | Delta_frame of { seq : int; bytes : string }

(* --- message payloads (tag + Psst_store-encoded body) --- *)

let tag_ping = 1
and tag_run = 2
and tag_run_topk = 3
and tag_get_stats = 4
and tag_get_health = 5
and tag_set_tenant = 6
and tag_add_graphs = 7
and tag_subscribe = 8
and tag_replica_ack = 9

let tag_pong = 65
and tag_answer = 66
and tag_topk_answer = 67
and tag_stats_json = 68
and tag_error = 69
and tag_health = 70
and tag_ingest_ack = 71
and tag_delta_frame = 72

let encode_request_payload = function
  | Ping -> (tag_ping, "")
  | Run { id; query; config } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_lgraph e query;
    Query.put_config e config;
    (tag_run, S.contents e)
  | Run_topk { id; query; k; config } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_lgraph e query;
    S.put_i64 e k;
    Query.put_config e config;
    (tag_run_topk, S.contents e)
  | Get_stats -> (tag_get_stats, "")
  | Get_health -> (tag_get_health, "")
  | Set_tenant name ->
    let e = S.encoder () in
    S.put_string e name;
    (tag_set_tenant, S.contents e)
  | Add_graphs { id; token; graphs } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_string e token;
    S.put_array e Pgraph_io.encode_binary graphs;
    (tag_add_graphs, S.contents e)
  | Subscribe { from_seq } ->
    let e = S.encoder () in
    S.put_i64 e from_seq;
    (tag_subscribe, S.contents e)
  | Replica_ack { seq } ->
    let e = S.encoder () in
    S.put_i64 e seq;
    (tag_replica_ack, S.contents e)

let encode_reply_payload = function
  | Pong -> (tag_pong, "")
  | Answer { id; answers; stats } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_int_list e answers;
    S.put_bool e stats.relaxed_truncated;
    S.put_i64 e stats.structural_candidates;
    S.put_i64 e stats.prob_candidates;
    S.put_i64 e stats.accepted_by_bounds;
    S.put_i64 e stats.pruned_by_bounds;
    S.put_bool e stats.degraded;
    (tag_answer, S.contents e)
  | Topk_answer { id; hits } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_list e
      (fun e (g, ssp) ->
        S.put_i64 e g;
        S.put_f64 e ssp)
      hits;
    (tag_topk_answer, S.contents e)
  | Stats_json json ->
    let e = S.encoder () in
    S.put_string e json;
    (tag_stats_json, S.contents e)
  | Health_reply h ->
    let e = S.encoder () in
    S.put_f64 e h.uptime_s;
    S.put_i64 e h.queue_depth;
    S.put_i64 e h.served;
    S.put_i64 e h.degraded_answers;
    S.put_i64 e h.retryable_rejections;
    S.put_list e
      (fun e (w : worker_health) ->
        S.put_i64 e w.wid;
        S.put_bool e w.reachable;
        S.put_f64 e w.worker_uptime_s;
        S.put_i64 e w.worker_queue_depth;
        S.put_i64 e w.worker_degraded_answers;
        S.put_i64 e w.rid;
        S.put_i64 e w.worker_epoch;
        S.put_bool e w.primary)
      h.workers;
    S.put_i64 e h.epoch;
    S.put_i64 e h.ingest_queued;
    S.put_i64 e h.ingest_applied;
    (tag_health, S.contents e)
  | Error_reply { id; code; message } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_i64 e (error_code_tag code);
    S.put_string e message;
    (tag_error, S.contents e)
  | Ingest_ack { id; epoch; base; count } ->
    let e = S.encoder () in
    S.put_i64 e id;
    S.put_i64 e epoch;
    S.put_i64 e base;
    S.put_i64 e count;
    (tag_ingest_ack, S.contents e)
  | Delta_frame { seq; bytes } ->
    let e = S.encoder () in
    S.put_i64 e seq;
    S.put_string e bytes;
    (tag_delta_frame, S.contents e)

(* Payload decoders run under [decoding]: a Psst_store decode failure (or a
   validating constructor rejecting the data) surfaces as Proto_error. *)
let decoding name f =
  match f () with
  | v -> v
  | exception S.Store_error msg -> error "%s: %s" name msg

let decode_request tag payload =
  decoding "request payload" (fun () ->
      let d = S.decoder ~name:"request" payload in
      let req =
        if tag = tag_ping then Ping
        else if tag = tag_run then begin
          let id = S.get_i64 d in
          let query = S.get_lgraph d in
          let config = Query.get_config d in
          Run { id; query; config }
        end
        else if tag = tag_run_topk then begin
          let id = S.get_i64 d in
          let query = S.get_lgraph d in
          let k = S.get_i64 d in
          if k < 1 then S.error "top-k count %d must be >= 1" k;
          let config = Query.get_config d in
          Run_topk { id; query; k; config }
        end
        else if tag = tag_get_stats then Get_stats
        else if tag = tag_get_health then Get_health
        else if tag = tag_set_tenant then begin
          let name = S.get_string d in
          if name = "" then S.error "tenant name must be non-empty";
          if String.length name > 128 then
            S.error "tenant name of %d bytes exceeds the 128-byte cap"
              (String.length name);
          Set_tenant name
        end
        else if tag = tag_add_graphs then begin
          let id = S.get_i64 d in
          let token = S.get_string d in
          if String.length token > 128 then
            S.error "ingest token of %d bytes exceeds the 128-byte cap"
              (String.length token);
          let graphs = S.get_array d Pgraph_io.decode_binary in
          Add_graphs { id; token; graphs }
        end
        else if tag = tag_subscribe then begin
          let from_seq = S.get_i64 d in
          if from_seq < 1 then
            S.error "subscription start seq %d must be >= 1" from_seq;
          Subscribe { from_seq }
        end
        else if tag = tag_replica_ack then begin
          let seq = S.get_i64 d in
          if seq < 1 then S.error "replica ack seq %d must be >= 1" seq;
          Replica_ack { seq }
        end
        else S.error "unknown request tag %d" tag
      in
      S.expect_end d;
      req)

let decode_reply tag payload =
  decoding "reply payload" (fun () ->
      let d = S.decoder ~name:"reply" payload in
      let rep =
        if tag = tag_pong then Pong
        else if tag = tag_answer then begin
          let id = S.get_i64 d in
          let answers = S.get_int_list d in
          let relaxed_truncated = S.get_bool d in
          let structural_candidates = S.get_i64 d in
          let prob_candidates = S.get_i64 d in
          let accepted_by_bounds = S.get_i64 d in
          let pruned_by_bounds = S.get_i64 d in
          let degraded = S.get_bool d in
          Answer
            {
              id;
              answers;
              stats =
                {
                  relaxed_truncated;
                  structural_candidates;
                  prob_candidates;
                  accepted_by_bounds;
                  pruned_by_bounds;
                  degraded;
                };
            }
        end
        else if tag = tag_topk_answer then begin
          let id = S.get_i64 d in
          let hits =
            S.get_list d (fun d ->
                let g = S.get_i64 d in
                let ssp = S.get_f64 d in
                (g, ssp))
          in
          Topk_answer { id; hits }
        end
        else if tag = tag_stats_json then Stats_json (S.get_string d)
        else if tag = tag_health then begin
          let uptime_s = S.get_f64 d in
          let queue_depth = S.get_nat d in
          let served = S.get_nat d in
          let degraded_answers = S.get_nat d in
          let retryable_rejections = S.get_nat d in
          let workers =
            S.get_list d (fun d ->
                let wid = S.get_nat d in
                let reachable = S.get_bool d in
                let worker_uptime_s = S.get_f64 d in
                let worker_queue_depth = S.get_nat d in
                let worker_degraded_answers = S.get_nat d in
                let rid = S.get_nat d in
                let worker_epoch = S.get_nat d in
                let primary = S.get_bool d in
                {
                  wid;
                  reachable;
                  worker_uptime_s;
                  worker_queue_depth;
                  worker_degraded_answers;
                  rid;
                  worker_epoch;
                  primary;
                })
          in
          let epoch = S.get_nat d in
          let ingest_queued = S.get_nat d in
          let ingest_applied = S.get_nat d in
          Health_reply
            { uptime_s; queue_depth; served; degraded_answers;
              retryable_rejections; workers; epoch; ingest_queued;
              ingest_applied }
        end
        else if tag = tag_error then begin
          let id = S.get_i64 d in
          let code = error_code_of_tag (S.get_i64 d) in
          let message = S.get_string d in
          Error_reply { id; code; message }
        end
        else if tag = tag_ingest_ack then begin
          let id = S.get_i64 d in
          let epoch = S.get_nat d in
          let base = S.get_nat d in
          let count = S.get_nat d in
          Ingest_ack { id; epoch; base; count }
        end
        else if tag = tag_delta_frame then begin
          let seq = S.get_i64 d in
          if seq < 1 then S.error "delta frame seq %d must be >= 1" seq;
          let bytes = S.get_string d in
          Delta_frame { seq; bytes }
        end
        else S.error "unknown reply tag %d" tag
      in
      S.expect_end d;
      rep)

(* --- framing --- *)

let frame ~tag payload =
  let len = String.length payload in
  if len > max_payload then error "payload of %d bytes exceeds frame cap" len;
  let head = Bytes.create 20 in
  Bytes.blit_string magic 0 head 0 8;
  Bytes.set_int32_le head 8 (Int32.of_int proto_version);
  Bytes.set_int32_le head 12 (Int32.of_int tag);
  Bytes.set_int32_le head 16 (Int32.of_int len);
  let head = Bytes.unsafe_to_string head in
  let crc = Crc32.update (Crc32.digest head) payload ~pos:0 ~len in
  let b = Buffer.create (header_bytes + len) in
  Buffer.add_string b head;
  let crcb = Bytes.create 4 in
  Bytes.set_int32_le crcb 0 crc;
  Buffer.add_bytes b crcb;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_request r =
  let tag, payload = encode_request_payload r in
  frame ~tag payload

let encode_reply r =
  let tag, payload = encode_reply_payload r in
  frame ~tag payload

(* Validate the 20 header bytes; returns (tag, payload_len). The version
   check is the whole handshake: a peer of another build fails its first
   frame. The length is range-checked here, before any caller allocates
   for the payload. *)
let check_header head =
  if String.length head <> 20 then
    error "internal: header slice of %d bytes" (String.length head);
  if String.sub head 0 8 <> magic then error "bad frame magic";
  let u32 pos =
    let v = Int32.to_int (String.get_int32_le head pos) in
    if v < 0 then v + 0x1_0000_0000 else v
  in
  let stamped = u32 8 in
  if stamped <> proto_version then
    error "peer speaks protocol version %d, this build speaks %d" stamped
      proto_version;
  let tag = u32 12 in
  let len = u32 16 in
  if len > max_payload then
    error "frame payload length %d exceeds cap %d" len max_payload;
  (tag, len)

let check_crc head crc payload =
  let expect = Crc32.update (Crc32.digest head) payload ~pos:0 ~len:(String.length payload) in
  if crc <> expect then
    error "frame checksum mismatch (stored %08lx, computed %08lx)" crc expect

let decode_frame_string s =
  let total = String.length s in
  if total < header_bytes then
    error "truncated frame: %d bytes, header needs %d" total header_bytes;
  let head = String.sub s 0 20 in
  let tag, len = check_header head in
  let crc = String.get_int32_le s 20 in
  if total < header_bytes + len then
    error "truncated frame: payload needs %d bytes, have %d" len
      (total - header_bytes);
  if total > header_bytes + len then
    error "trailing bytes after frame (%d extra)" (total - header_bytes - len);
  let payload = String.sub s header_bytes len in
  check_crc head crc payload;
  (tag, payload)

let request_of_string s =
  let tag, payload = decode_frame_string s in
  decode_request tag payload

let reply_of_string s =
  let tag, payload = decode_frame_string s in
  decode_reply tag payload

(* --- fd-level IO: EINTR- and short-IO-safe, with optional deadlines ---

   Sockets deliver short reads and writes and EINTR as a matter of course;
   these loops retry until the full frame has moved or the deadline
   passes. [deadline] is absolute
   (Unix.gettimeofday-based); on expiry the call raises {!Timed_out} —
   the connection is then in an undefined mid-frame state and must be
   closed, which is exactly what the reconnecting client does. *)

let wait_io fd ~deadline ~for_read =
  match deadline with
  | None -> ()
  | Some dl ->
    let rec wait () =
      let left = dl -. Unix.gettimeofday () in
      if left <= 0. then raise Timed_out;
      let r, w, _ =
        try
          if for_read then Unix.select [ fd ] [] [] left
          else Unix.select [] [ fd ] [] left
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if r = [] && w = [] then
        if Unix.gettimeofday () >= dl then raise Timed_out else wait ()
    in
    wait ()

(* Read exactly [len] bytes into [buf] at [pos]. [eof_ok_at_start]: a
   clean EOF before the first byte raises End_of_file, EOF later is a
   truncation. [chunk] caps per-call read sizes (the Partial_io fault
   forces it to 1 to exercise this very loop). *)
let read_exact fd buf pos len ~deadline ~chunk ~eof_ok_at_start ~what =
  let got = ref 0 in
  while !got < len do
    wait_io fd ~deadline ~for_read:true;
    match
      Unix.read fd buf (pos + !got) (min chunk (len - !got))
    with
    | 0 ->
      if !got = 0 && eof_ok_at_start then raise End_of_file
      else error "truncated frame: EOF inside %s" what
    | n -> got := !got + n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
    | exception Unix.Unix_error (e, _, _) ->
      error "read failed inside %s: %s" what (Unix.error_message e)
  done

let read_frame_fd ?deadline fd =
  let chunk, bitflip =
    match Psst_fault.fire fault_read with
    | None -> (max_int, false)
    | Some Psst_fault.Partial_io -> (1, false)
    | Some Psst_fault.Bitflip -> (max_int, true)
    | Some Psst_fault.Fail -> injected fault_read
    | Some (Psst_fault.Delay s) ->
      Unix.sleepf s;
      (max_int, false)
  in
  let head = Bytes.create header_bytes in
  read_exact fd head 0 header_bytes ~deadline ~chunk ~eof_ok_at_start:true
    ~what:"frame header";
  let tag, len = check_header (Bytes.sub_string head 0 20) in
  let crc = Bytes.get_int32_le head 20 in
  let payload = Bytes.create len in
  read_exact fd payload 0 len ~deadline ~chunk ~eof_ok_at_start:false
    ~what:"frame payload";
  (* Wire corruption: damage a byte the CRC covers — the payload when
     there is one, a stored-CRC byte otherwise — so validation below must
     reject the frame exactly like a flipped byte on a real link. *)
  let payload = Bytes.unsafe_to_string payload in
  let crc, payload =
    if not bitflip then (crc, payload)
    else if len > 0 then (crc, Psst_fault.flip_bit fault_read payload)
    else (Int32.logxor crc 0x1l, payload)
  in
  check_crc (Bytes.sub_string head 0 20) crc payload;
  (tag, payload)

let read_request_fd ?deadline fd =
  let tag, payload = read_frame_fd ?deadline fd in
  decode_request tag payload

let read_reply_fd ?deadline fd =
  let tag, payload = read_frame_fd ?deadline fd in
  decode_reply tag payload

let write_frame_fd ?deadline fd data =
  let chunk, data =
    match Psst_fault.fire fault_write with
    | None -> (max_int, data)
    | Some Psst_fault.Partial_io -> (1, data)
    | Some Psst_fault.Fail -> injected fault_write
    | Some (Psst_fault.Delay s) ->
      Unix.sleepf s;
      (max_int, data)
    | Some Psst_fault.Bitflip -> (max_int, Psst_fault.flip_bit fault_write data)
  in
  let len = String.length data in
  let sent = ref 0 in
  while !sent < len do
    wait_io fd ~deadline ~for_read:false;
    match
      Unix.write_substring fd data !sent (min chunk (len - !sent))
    with
    | n -> sent := !sent + n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      ()
  done
