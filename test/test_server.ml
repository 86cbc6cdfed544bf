(* The resident query server (DESIGN.md §11): served answers must be
   bit-identical to offline Query.run at every pool size, backpressure
   and deadlines must reject with the documented retryable codes, a
   graceful stop must drain every admitted request, and corrupted frames
   must produce one Malformed reply plus a "proto" warning — never a
   crash and never a wedged server. *)

module P = Psst_proto
module Client = Psst_client
module Server = Psst_server
module Router = Psst_router
module Prng = Psst_util.Prng
module Crc32 = Psst_util.Crc32

open Tgen.Fixtures

(* Verification cost scales like 1/tau^2, so this config makes each query
   slow enough for the backpressure and deadline tests to observe a busy
   batcher without any sleeps in the server. *)
let slow_smp = { Verify.default_config with tau = 0.05 }

let with_server ?(domains = 1) ?(queue_cap = 128) ?(deadline_ms = 0.)
    ?(batch_max = 32) ?(tenant_quota = 0) db f =
  let path = Filename.temp_file "psst_test_srv" ".sock" in
  let srv =
    Server.start
      {
        (Server.default_config (P.Unix_socket path)) with
        Server.domains;
        queue_cap;
        deadline_ms;
        batch_max;
        tenant_quota;
      }
      db
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv)

let with_endpoint ep f =
  let c = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let with_client srv f = with_endpoint (Server.endpoint srv) f

(* --- differential: served = offline, at 1 and 4 domains --- *)

let check_differential ~domains () =
  let ds, db = make_db 211 25 in
  let rng = Prng.make 31 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline = List.map (fun q -> Query.run db q base_config) queries in
  with_server ~domains db (fun srv ->
      with_client srv (fun c ->
          let replies = Client.run_all c queries base_config in
          List.iteri
            (fun i (off : Query.outcome) ->
              match replies.(i) with
              | P.Answer { id; answers; stats } ->
                Alcotest.(check int) (Printf.sprintf "query %d id" i) i id;
                Alcotest.(check (list int))
                  (Printf.sprintf "query %d answers @ %d domains" i domains)
                  off.Query.answers answers;
                Alcotest.(check bool)
                  (Printf.sprintf "query %d pruning counters" i)
                  true
                  (stats = P.stats_of_query off.Query.stats)
              | _ -> Alcotest.failf "query %d: expected Answer" i)
            offline);
      (* Four clients at once, each starting at a different query: the
         server batches requests from several connections together, and
         every reply must still be the offline one. A thread cannot fail
         the test itself, so it counts the replies that differ. *)
      let offline = Array.of_list offline and queries = Array.of_list queries in
      let k = Array.length queries in
      let differing = Atomic.make 0 in
      let client start =
        try
          with_client srv (fun c ->
              for j = 0 to (2 * k) - 1 do
                let i = (start + j) mod k in
                match
                  Client.rpc c
                    (P.Run { id = j; query = queries.(i); config = base_config })
                with
                | P.Answer { answers; stats; _ }
                  when answers = offline.(i).Query.answers
                       && stats = P.stats_of_query offline.(i).Query.stats ->
                  ()
                | _ -> Atomic.incr differing
              done)
        with _ -> Atomic.incr differing
      in
      List.iter Thread.join (List.init 4 (Thread.create client));
      Alcotest.(check int)
        (Printf.sprintf "concurrent replies differing from offline @ %d domains"
           domains)
        0 (Atomic.get differing))

let test_differential_sequential () = check_differential ~domains:1 ()
let test_differential_parallel () = check_differential ~domains:4 ()

let test_differential_topk () =
  let ds, db = make_db 223 20 in
  let rng = Prng.make 37 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let offline = Topk.run db q ~k:3 base_config in
  let expect =
    List.map (fun (h : Topk.hit) -> (h.graph, h.ssp)) offline.Topk.hits
  in
  with_server db (fun srv ->
      with_client srv (fun c ->
          match
            Client.rpc c (P.Run_topk { id = 5; query = q; k = 3; config = base_config })
          with
          | P.Topk_answer { id; hits } ->
            Alcotest.(check int) "id echoed" 5 id;
            Alcotest.(check bool) "top-k hits identical" true (hits = expect)
          | _ -> Alcotest.fail "expected Topk_answer"))

(* A refused reconnect is one more failed attempt of run_all, not an
   error: the server goes away under a connected client, and a new one
   binds the same socket path ~300 ms later, inside the retry budget. *)
let test_run_all_retries_refused_reconnect () =
  let ds, db = make_db 229 15 in
  let rng = Prng.make 41 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline = List.map (fun q -> Query.run db q base_config) queries in
  let path = Filename.temp_file "psst_test_srv" ".sock" in
  let cfg = Server.default_config (P.Unix_socket path) in
  let first = Server.start cfg db in
  let c = Client.connect (Server.endpoint first) in
  let second = ref None in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Option.iter Server.stop !second;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Server.stop first;
      let restart =
        Thread.create
          (fun () ->
            Thread.delay 0.3;
            second := Some (Server.start cfg db))
          ()
      in
      let replies =
        Fun.protect
          ~finally:(fun () -> Thread.join restart)
          (fun () ->
            Client.run_all ~max_retries:5 ~backoff_ms:100. c queries base_config)
      in
      List.iteri
        (fun i (off : Query.outcome) ->
          match replies.(i) with
          | P.Answer { answers; _ } ->
            Alcotest.(check (list int))
              (Printf.sprintf "query %d answers" i)
              off.Query.answers answers
          | _ -> Alcotest.failf "query %d: expected Answer" i)
        offline)

(* --- control plane --- *)

let test_ping_and_stats () =
  let _, db = make_db 227 10 in
  with_server db (fun srv ->
      with_client srv (fun c ->
          Client.ping c;
          let json = Client.stats_json c in
          Alcotest.(check bool) "stats is a JSON object" true
            (String.length json > 2 && json.[0] = '{');
          let contains hay needle =
            let n = String.length needle and h = String.length hay in
            let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "registry includes server counters" true
            (contains json "server.requests")))

let test_tcp_endpoint_port_resolution () =
  let _, db = make_db 229 10 in
  let srv =
    Server.start
      { (Server.default_config (P.Tcp ("127.0.0.1", 0))) with Server.domains = 1 }
      db
  in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      (match Server.endpoint srv with
      | P.Tcp (_, port) ->
        Alcotest.(check bool) "kernel assigned a real port" true (port > 0)
      | P.Unix_socket _ -> Alcotest.fail "expected a TCP endpoint");
      with_client srv (fun c -> Client.ping c))

(* --- backpressure and deadlines --- *)

let slow_config = { base_config with verifier = `Smp slow_smp }

let test_queue_full_rejection () =
  let ds, db = make_db 233 15 in
  let rng = Prng.make 41 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  with_server ~queue_cap:1 ~batch_max:1 db (fun srv ->
      with_client srv (fun c ->
          let n = 16 in
          let queries = List.init n (fun _ -> q) in
          let replies = Client.run_all c queries slow_config in
          let answered = ref 0 and full = ref 0 in
          Array.iter
            (function
              | P.Answer _ -> incr answered
              | P.Error_reply { code = P.Queue_full; _ } -> incr full
              | P.Error_reply { code; _ } ->
                Alcotest.failf "unexpected reject: %s" (P.error_code_name code)
              | _ -> Alcotest.fail "unexpected reply kind")
            replies;
          Alcotest.(check int) "every request got a reply" n (!answered + !full);
          Alcotest.(check bool) "some requests were answered" true (!answered >= 1);
          Alcotest.(check bool) "a full queue rejected the rest" true (!full >= 1);
          Alcotest.(check bool) "queue_full is retryable" true
            (P.error_code_retryable P.Queue_full)))

(* The tenant quota on queries: with one query running and one queued,
   the tenant's next query is refused as retryable Queue_full naming the
   tenant, on the quota counter and the tenant's rejected counter — while
   the admission queue itself (cap 128) has room. The burst's queries are
   distinct, so none is a cache hit that the batcher clears before the
   next frame is read: each runs a slow verification, and the second
   waits behind the first. *)
let test_tenant_quota_rejection () =
  let ds, db = make_db 257 15 in
  let rng = Prng.make 59 in
  let counter name = Psst_obs.counter_value (Psst_obs.counter name) in
  let quota0 = counter "server.reject.tenant_quota" in
  let full0 = counter "server.reject.queue_full" in
  let carol0 = counter "server.tenant.carol.rejected" in
  with_server ~tenant_quota:1 ~batch_max:1 db (fun srv ->
      with_client srv (fun c ->
          Client.set_tenant c "carol";
          let n = 16 in
          let queries =
            List.init n (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
          in
          let replies = Client.run_all c queries slow_config in
          let answered = ref 0 and quota = ref 0 in
          Array.iter
            (function
              | P.Answer _ -> incr answered
              | P.Error_reply { code = P.Queue_full; message; _ } ->
                Alcotest.(check string) "message names the tenant and quota"
                  "tenant \"carol\" is at its quota (1 queued requests); \
                   retry later"
                  message;
                incr quota
              | P.Error_reply { code; _ } ->
                Alcotest.failf "unexpected reject: %s" (P.error_code_name code)
              | _ -> Alcotest.fail "unexpected reply kind")
            replies;
          Alcotest.(check int) "every request got a reply" n (!answered + !quota);
          Alcotest.(check bool) "some requests were answered" true (!answered >= 1);
          Alcotest.(check bool) "the quota refused the rest" true (!quota >= 1);
          Alcotest.(check int) "metered on the quota counter" (quota0 + !quota)
            (counter "server.reject.tenant_quota");
          Alcotest.(check int) "not on the queue-full counter" full0
            (counter "server.reject.queue_full");
          Alcotest.(check int) "metered on carol's counter" (carol0 + !quota)
            (counter "server.tenant.carol.rejected")))

let test_deadline_rejection () =
  let ds, db = make_db 239 15 in
  let rng = Prng.make 43 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  with_server ~deadline_ms:0.01 ~batch_max:1 db (fun srv ->
      with_client srv (fun c ->
          let n = 6 in
          let queries = List.init n (fun _ -> q) in
          let replies = Client.run_all c queries slow_config in
          let deadline = ref 0 in
          Array.iter
            (function
              | P.Answer _ -> ()
              | P.Error_reply { code = P.Deadline; _ } -> incr deadline
              | P.Error_reply { code; _ } ->
                Alcotest.failf "unexpected reject: %s" (P.error_code_name code)
              | _ -> Alcotest.fail "unexpected reply kind")
            replies;
          Alcotest.(check bool)
            "queued requests missed the 10 microsecond deadline" true
            (!deadline >= 1)))

(* --- graceful drain --- *)

let test_stop_drains_inflight () =
  let ds, db = make_db 241 15 in
  let rng = Prng.make 47 in
  let queries =
    List.init 5 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline = List.map (fun q -> (Query.run db q slow_config).Query.answers) queries in
  let path = Filename.temp_file "psst_test_drain" ".sock" in
  let srv =
    Server.start { (Server.default_config (P.Unix_socket path)) with batch_max = 1 } db
  in
  let admitted = Psst_obs.counter "server.tenant.default.admitted" in
  let admitted0 = Psst_obs.counter_value admitted in
  let replies = ref [||] in
  let client =
    Thread.create
      (fun () ->
        let c = Client.connect (Server.endpoint srv) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> replies := Client.run_all c queries slow_config))
      ()
  in
  (* Wait until the reader has admitted the whole burst, then stop
     mid-processing: the drain barrier must answer every admitted request
     before stop returns. *)
  let deadline = Unix.gettimeofday () +. 30. in
  while Psst_obs.counter_value admitted - admitted0 < 5 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "timed out waiting for the burst's admission";
    Thread.delay 0.005
  done;
  Server.stop srv;
  Alcotest.(check bool) "stop completed" true (Server.stopped srv);
  Thread.join client;
  (try Sys.remove path with Sys_error _ -> ());
  Alcotest.(check int) "every request got a reply" 5 (Array.length !replies);
  List.iteri
    (fun i off ->
      match !replies.(i) with
      | P.Answer { answers; _ } ->
        Alcotest.(check (list int))
          (Printf.sprintf "drained answer %d is bit-identical" i)
          off answers
      | P.Error_reply { code = P.Shutdown; _ } ->
        (* Raced past the admission close: explicitly rejected, retryable. *)
        Alcotest.(check bool) "shutdown is retryable" true
          (P.error_code_retryable P.Shutdown)
      | _ -> Alcotest.failf "request %d: expected Answer or Shutdown" i)
    offline;
  Alcotest.(check int) "server counted every reply" 5 (Server.served srv)

(* --- socket-level fuzz: corrupted frames against a live server --- *)

let warn_proto_count () =
  Psst_obs.counter_value (Psst_obs.counter "warn.proto")

(* [ep] answers the corrupted frame with one Malformed reply (whose
   message is [mentions], when given) and closes the connection,
   records a proto warning, and keeps serving new connections. *)
let expect_malformed_then_recover ?mentions ep corrupt =
  let before = warn_proto_count () in
  with_endpoint ep (fun c ->
      corrupt c;
      (match Client.read_reply c with
      | P.Error_reply { code = P.Malformed; message; _ } ->
        Option.iter
          (fun m ->
            Alcotest.(check string) "Malformed reply names the cause" m message)
          mentions;
        (* One reply, then the server closes the connection. *)
        (match Client.read_reply c with
        | exception End_of_file -> ()
        | exception P.Proto_error _ -> ()
        | _ -> Alcotest.fail "expected the connection closed after Malformed")
      | r ->
        Alcotest.failf "expected Malformed reply, got %s"
          (match r with
          | P.Pong -> "Pong"
          | P.Answer _ -> "Answer"
          | P.Topk_answer _ -> "Topk_answer"
          | P.Stats_json _ -> "Stats_json"
          | P.Health_reply _ -> "Health_reply"
          | P.Error_reply _ -> "Error_reply"
          | P.Ingest_ack _ -> "Ingest_ack"
          | P.Delta_frame _ -> "Delta_frame")));
  Alcotest.(check bool) "a proto warning was recorded" true
    (warn_proto_count () > before);
  (* The connection is gone but the server must keep serving. *)
  with_endpoint ep (fun c -> Client.ping c)

(* [frame] re-stamped with another protocol version, CRC recomputed, so
   the version check alone must reject it. *)
let restamp frame version =
  let b = Bytes.of_string frame in
  Bytes.set_int32_le b 8 (Int32.of_int version);
  let head = Bytes.sub_string b 0 20 in
  let payload = Bytes.sub_string b P.header_bytes (Bytes.length b - P.header_bytes) in
  Bytes.set_int32_le b 20
    (Crc32.update (Crc32.digest head) payload ~pos:0 ~len:(String.length payload));
  Bytes.to_string b

let version_mismatch version =
  Printf.sprintf "peer speaks protocol version %d, this build speaks %d" version
    P.proto_version

let test_fuzzed_frames_never_crash () =
  let ds, db = make_db 251 15 in
  let rng = Prng.make 53 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let frame = P.encode_request (P.Run { id = 0; query = q; config = base_config }) in
  with_server db (fun srv ->
      let ep = Server.endpoint srv in
      (* Bad magic. *)
      expect_malformed_then_recover ep (fun c ->
          Client.send_raw c ("XSSTRPC\x00" ^ String.sub frame 8 (String.length frame - 8)));
      (* Flipped payload byte: checksum mismatch. *)
      expect_malformed_then_recover ep (fun c ->
          let b = Bytes.of_string frame in
          let pos = P.header_bytes + 3 in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
          Client.send_raw c (Bytes.to_string b));
      (* Flipped CRC byte. *)
      expect_malformed_then_recover ep (fun c ->
          let b = Bytes.of_string frame in
          Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0xFF));
          Client.send_raw c (Bytes.to_string b));
      (* Truncated frame then EOF: the half-close turns a blocked read
         into a detected truncation, not a hang. *)
      expect_malformed_then_recover ep (fun c ->
          Client.send_raw c (String.sub frame 0 (String.length frame - 5));
          Client.half_close c);
      (* Unsupported version. *)
      expect_malformed_then_recover ep (fun c ->
          let b = Bytes.of_string frame in
          Bytes.set_int32_le b 8 99l;
          Client.send_raw c (Bytes.to_string b));
      (* Valid-CRC frames of the neighbouring versions: the version check
         is the whole handshake. *)
      List.iter
        (fun version ->
          expect_malformed_then_recover ~mentions:(version_mismatch version) ep
            (fun c -> Client.send_raw c (restamp frame version)))
        [ P.proto_version - 1; P.proto_version + 1 ];
      (* And after all that abuse, real queries still run. *)
      with_endpoint ep (fun c ->
          match Client.rpc c (P.Run { id = 9; query = q; config = base_config }) with
          | P.Answer { id; answers; _ } ->
            Alcotest.(check int) "id echoed" 9 id;
            Alcotest.(check (list int)) "answers still bit-identical"
              (Query.run db q base_config).Query.answers answers
          | _ -> Alcotest.fail "expected Answer after fuzzing"))

(* The router shares the server's listener: a foreign-version frame gets
   one Malformed reply and a proto warning, and routed queries still
   answer exactly. *)
let test_router_rejects_foreign_version () =
  let ds, db = make_db 257 12 in
  let rng = Prng.make 59 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let frame = P.encode_request (P.Run { id = 0; query = q; config = base_config }) in
  with_server db (fun srv ->
      let path = Filename.temp_file "psst_test_router" ".sock" in
      let router =
        Router.start
          (Router.default_config ~endpoint:(P.Unix_socket path)
             ~workers:[ Server.endpoint srv ])
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let version = P.proto_version - 1 in
          expect_malformed_then_recover ~mentions:(version_mismatch version)
            (Router.endpoint router) (fun c ->
              Client.send_raw c (restamp frame version));
          with_endpoint (Router.endpoint router) (fun c ->
              match Client.rpc c (P.Run { id = 4; query = q; config = base_config }) with
              | P.Answer { answers; _ } ->
                Alcotest.(check (list int)) "routed answer still exact"
                  (Query.run db q base_config).Query.answers answers
              | _ -> Alcotest.fail "expected Answer from the router")))

(* A second server must not steal a Unix socket path a live server
   answers on, and a server stopping must not unlink a path another
   server has since bound. *)
let test_live_socket_not_stolen () =
  let _, db = make_db 263 8 in
  with_server db (fun first ->
      let path =
        match Server.endpoint first with
        | P.Unix_socket p -> p
        | P.Tcp _ -> Alcotest.fail "expected a Unix socket"
      in
      (match Server.start (Server.default_config (P.Unix_socket path)) db with
      | second ->
        Server.stop second;
        Alcotest.fail "second server bound a live socket path"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      with_client first (fun c -> Client.ping c);
      (* The path is removed behind the first server's back and a new
         server binds it: stopping the first must leave it alone. *)
      Sys.remove path;
      let second = Server.start (Server.default_config (P.Unix_socket path)) db in
      Fun.protect
        ~finally:(fun () -> Server.stop second)
        (fun () ->
          Server.stop first;
          Alcotest.(check bool) "the second server's socket survives" true
            (Sys.file_exists path);
          with_client second (fun c -> Client.ping c)))

let suite =
  [
    Alcotest.test_case "served = offline @ 1 domain" `Slow
      test_differential_sequential;
    Alcotest.test_case "served = offline @ 4 domains" `Slow
      test_differential_parallel;
    Alcotest.test_case "served top-k = offline top-k" `Slow
      test_differential_topk;
    Alcotest.test_case "ping and stats round-trip" `Quick test_ping_and_stats;
    Alcotest.test_case "tcp port 0 resolves" `Quick
      test_tcp_endpoint_port_resolution;
    Alcotest.test_case "full queue rejects with Queue_full" `Slow
      test_queue_full_rejection;
    Alcotest.test_case "tenant quota rejects queries with Queue_full" `Slow
      test_tenant_quota_rejection;
    Alcotest.test_case "stale requests rejected by deadline" `Slow
      test_deadline_rejection;
    Alcotest.test_case "stop drains in-flight requests" `Slow
      test_stop_drains_inflight;
    Alcotest.test_case "fuzzed frames: reply, warn, keep serving" `Slow
      test_fuzzed_frames_never_crash;
    Alcotest.test_case "router rejects a foreign protocol version" `Quick
      test_router_rejects_foreign_version;
    Alcotest.test_case "live socket path is never stolen" `Quick
      test_live_socket_not_stolen;
    Alcotest.test_case "run_all retries a refused reconnect" `Slow
      test_run_all_retries_refused_reconnect;
  ]
