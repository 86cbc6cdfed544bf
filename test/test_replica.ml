(* Replication & failover (DESIGN.md §17): the pins that make a standby
   trustworthy. Differential — a standby's answers at an applied epoch
   are bit-identical to an offline Query.run over the same chain (1 and
   4 domains, cold and warm cache), and its delta files are byte-for-byte
   the primary's. Catch-up — a standby that was down while the primary
   ingested reconnects from its chain's next sequence number and
   converges; one that starts before its primary exists keeps retrying
   until it appears. Ack gating — a lagging subscriber turns the ingest
   ack into a retryable error while the batch stays applied and
   persisted, and a retry with the same idempotency token converges on
   the original Ok without double-ingesting. Promotion — a promoted
   standby holds every batch the primary ever acked, flips writable, and
   appends to the replicated chain where the primary left off. Routing —
   a replica group fails over to the standby mid-request when the
   primary dies (answers stay exact, not degraded) and fails back when
   it returns, with the roster naming the preferred replica. *)

module P = Psst_proto
module Client = Psst_client
module Server = Psst_server
module Replica = Psst_replica
module I = Psst_ingest
module Prng = Psst_util.Prng

open Tgen.Fixtures

let make_batch seed n =
  (Generator.generate { Generator.default_params with num_graphs = n; seed })
    .Generator.graphs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let remove_store path =
  (try Sys.remove path with Sys_error _ -> ());
  for seq = 1 to 32 do
    try Sys.remove (I.delta_path path seq) with Sys_error _ -> ()
  done

let with_tmp_store f =
  let path = Filename.temp_file "psst_test_rep" ".psst" in
  Fun.protect ~finally:(fun () -> remove_store path) (fun () -> f path)

let fresh_sock () = Filename.temp_file "psst_test_rep" ".sock"

let wait_for ?(timeout = 20.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let check_answer ~what expect = function
  | P.Answer { answers; stats; _ } ->
    Alcotest.(check (list int))
      (what ^ " answers") expect.Query.answers answers;
    Alcotest.(check bool) (what ^ " not degraded") false stats.P.degraded;
    Alcotest.(check bool)
      (what ^ " pruning counters") true
      (stats = P.stats_of_query expect.Query.stats)
  | P.Error_reply { message; _ } ->
    Alcotest.failf "%s: error reply %S" what message
  | _ -> Alcotest.failf "%s: expected Answer" what

(* A primary/standby pair over byte-identical base stores: the primary
   serves [db] writable with a replication hub, the standby serves a
   copy read-only with the replication loop as its only mutator. *)
type pair = {
  ppath : string;
  spath : string;
  pchain : I.chain;
  schain : I.chain;
  hub : Replica.hub;
  psrv : Server.t;
  ssrv : Server.t;
  mutable standby : Replica.standby option;
}

let with_pair ?(domains = 1) ?ack_timeout_ms db f =
  with_tmp_store @@ fun ppath ->
  with_tmp_store @@ fun spath ->
  Query.save_database ppath db;
  write_file spath (read_file ppath);
  let pdb, pchain = I.load ppath in
  let sdb, schain = I.load spath in
  let hub = Replica.hub ?ack_timeout_ms pchain in
  let psock = fresh_sock () and ssock = fresh_sock () in
  let subscribes () = Psst_obs.counter_value (Psst_obs.counter "replica.subscribes") in
  let subscribed = subscribes () in
  let psrv =
    Server.start ~chain:pchain ~publisher:(Replica.publisher hub)
      { (Server.default_config (P.Unix_socket psock)) with Server.domains }
      pdb
  in
  let ssrv =
    Server.start ~chain:schain
      {
        (Server.default_config (P.Unix_socket ssock)) with
        Server.domains;
        writable = false;
      }
      sdb
  in
  let t =
    {
      ppath;
      spath;
      pchain;
      schain;
      hub;
      psrv;
      ssrv;
      standby =
        Some
          (Replica.start_standby
             ~primary:(Server.endpoint psrv)
             ~chain:schain (Server.snapshot_ref ssrv));
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Replica.stop_standby t.standby;
      Server.stop psrv;
      Replica.stop_hub hub;
      Server.stop ssrv;
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        [ psock; ssock ])
    (fun () ->
      (* Every caller ingests expecting acks gated on this standby, so it
         must have subscribed first: before that, the primary acks alone. *)
      wait_for "the standby's subscription" (fun () -> subscribes () > subscribed);
      f t)

let with_client srv f =
  let c = Client.connect (Server.endpoint srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ingest_ok ?token srv batch =
  with_client srv (fun c ->
      match Client.add_graphs ?token ~id:7 c batch with
      | Ok r -> (r.I.epoch, r.I.base, r.I.count)
      | Error (_, msg) -> Alcotest.failf "ingest failed: %s" msg)

let chains_byte_identical ~what ppath spath ~seqs =
  Alcotest.(check bool)
    (what ^ " base byte-identical") true
    (read_file ppath = read_file spath);
  List.iter
    (fun seq ->
      Alcotest.(check bool)
        (Printf.sprintf "%s delta %d byte-identical" what seq)
        true
        (read_file (I.delta_path ppath seq) = read_file (I.delta_path spath seq)))
    seqs

(* --- the standby differential pin --- *)

let check_standby_differential ~domains () =
  let ds, db0 = make_db 733 20 in
  let b1 = make_batch 1013 5 and b2 = make_batch 1019 4 in
  let db1 = Query.add_graphs db0 b1 in
  let db2 = Query.add_graphs db1 b2 in
  let rng = Prng.make 59 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline = List.map (fun q -> Query.run db2 q base_config) queries in
  with_pair ~domains db0 (fun t ->
      let e1, base1, c1 = ingest_ok t.psrv b1 in
      Alcotest.(check (list int))
        "first ack"
        [ 1; Corpus.length db0.Query.graphs; Array.length b1 ]
        [ e1; base1; c1 ];
      let e2, _, _ = ingest_ok t.psrv b2 in
      Alcotest.(check int) "second ack epoch" 2 e2;
      (* The acks were gated on replication: both batches are already
         applied and persisted on the standby. *)
      let st = Option.get t.standby in
      Alcotest.(check int) "standby applied seq" 2 (Replica.applied_seq st);
      Alcotest.(check int) "standby epoch" 2 (Server.epoch t.ssrv);
      with_client t.ssrv (fun c ->
          (* Cold, then a warm repeat: the standby's cache must serve the
             replicated epoch, bit-identical to the offline reference. *)
          List.iter
            (fun pass ->
              List.iteri
                (fun i q ->
                  check_answer
                    ~what:
                      (Printf.sprintf "standby %s query %d @ %d domains" pass i
                         domains)
                    (List.nth offline i)
                    (Client.rpc c
                       (P.Run { id = i; query = q; config = base_config })))
                queries)
            [ "cold"; "warm" ]);
      (* And the primary agrees with its own standby. *)
      with_client t.psrv (fun c ->
          List.iteri
            (fun i q ->
              check_answer
                ~what:(Printf.sprintf "primary query %d @ %d domains" i domains)
                (List.nth offline i)
                (Client.rpc c (P.Run { id = i; query = q; config = base_config })))
            queries);
      chains_byte_identical ~what:"replicated" t.ppath t.spath ~seqs:[ 1; 2 ];
      (* A read-only standby refuses writes with a retryable error. *)
      with_client t.ssrv (fun c ->
          match Client.add_graphs ~id:9 c b1 with
          | Error (code, msg) ->
            Alcotest.(check string)
              "standby rejects writes" "unavailable"
              (P.error_code_name code);
            Alcotest.(check bool)
              "standby names the standby role" true
              (contains msg "standby" || contains msg "read-only")
          | Ok _ -> Alcotest.fail "standby accepted Add_graphs"))

let test_standby_differential_1 () = check_standby_differential ~domains:1 ()
let test_standby_differential_4 () = check_standby_differential ~domains:4 ()

(* --- catch-up: disconnect, miss batches, reconnect, converge --- *)

let test_catch_up () =
  let ds, db0 = make_db 739 15 in
  let b1 = make_batch 1021 4 and b2 = make_batch 1031 5 in
  let db2 = Query.add_graphs (Query.add_graphs db0 b1) b2 in
  let rng = Prng.make 61 in
  let q = fst (Generator.extract_query rng ds ~edges:4) in
  let offline = Query.run db2 q base_config in
  with_pair db0 (fun t ->
      ignore (ingest_ok t.psrv b1);
      let st = Option.get t.standby in
      Alcotest.(check int) "replicated before outage" 1 (Replica.applied_seq st);
      (* Standby outage: the stream stops, the primary keeps ingesting
         (the hub degrades to standalone acks once the subscriber is
         gone). *)
      Replica.stop_standby st;
      t.standby <- None;
      ignore (ingest_ok t.psrv b2);
      Alcotest.(check int) "standby missed the batch" 1 (t.schain.I.next_seq - 1);
      (* Reconnect from the chain's next seq: only the missed delta is
         streamed, and the standby converges. *)
      let st2 =
        Replica.start_standby
          ~primary:(Server.endpoint t.psrv)
          ~chain:t.schain
          (Server.snapshot_ref t.ssrv)
      in
      t.standby <- Some st2;
      wait_for "catch-up to seq 2" (fun () -> Replica.applied_seq st2 = 2);
      Alcotest.(check int) "standby epoch after catch-up" 2 (Server.epoch t.ssrv);
      chains_byte_identical ~what:"caught-up" t.ppath t.spath ~seqs:[ 1; 2 ];
      with_client t.ssrv (fun c ->
          check_answer ~what:"caught-up standby answer" offline
            (Client.rpc c (P.Run { id = 0; query = q; config = base_config }))))

(* A standby started before its primary exists retries with backoff and
   connects once the primary appears — the reconnect loop, pinned. *)
let test_standby_outlives_connect_refusals () =
  let _, db = make_db 743 10 in
  let b = make_batch 1033 3 in
  with_tmp_store @@ fun ppath ->
  with_tmp_store @@ fun spath ->
  Query.save_database ppath db;
  write_file spath (read_file ppath);
  let pdb, pchain = I.load ppath in
  let sdb, schain = I.load spath in
  let ssock = fresh_sock () in
  let ssrv =
    Server.start ~chain:schain
      {
        (Server.default_config (P.Unix_socket ssock)) with
        Server.writable = false;
      }
      sdb
  in
  (* Nobody listens here yet: every connect attempt is refused. *)
  let psock = fresh_sock () in
  let st =
    Replica.start_standby ~backoff_ms:10. ~max_backoff_ms:50.
      ~primary:(P.Unix_socket psock) ~chain:schain (Server.snapshot_ref ssrv)
  in
  let hub = Replica.hub pchain in
  Fun.protect
    ~finally:(fun () ->
      Replica.stop_standby st;
      Replica.stop_hub hub;
      Server.stop ssrv;
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        [ psock; ssock ])
    (fun () ->
      Thread.delay 0.1;
      Alcotest.(check int) "nothing applied while refused" 0
        (Replica.applied_seq st);
      let psrv =
        Server.start ~chain:pchain ~publisher:(Replica.publisher hub)
          (Server.default_config (P.Unix_socket psock))
          pdb
      in
      Fun.protect
        ~finally:(fun () -> Server.stop psrv)
        (fun () ->
          ignore (ingest_ok psrv b);
          wait_for "late-born primary replicated" (fun () ->
              Replica.applied_seq st = 1);
          chains_byte_identical ~what:"late-born" ppath spath ~seqs:[ 1 ]))

(* --- ack gating: lagging standby, applied batch, token retry --- *)

let test_ack_gate_lagging () =
  let _, db = make_db 751 10 in
  let batch = make_batch 1039 4 in
  with_tmp_store @@ fun ppath ->
  Query.save_database ppath db;
  let pdb, pchain = I.load ppath in
  let hub = Replica.hub ~ack_timeout_ms:100. pchain in
  let publisher = Replica.publisher hub in
  let psock = fresh_sock () in
  let psrv =
    Server.start ~chain:pchain ~publisher
      (Server.default_config (P.Unix_socket psock))
      pdb
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop psrv;
      Replica.stop_hub hub;
      try Sys.remove psock with Sys_error _ -> ())
    (fun () ->
      (* A subscriber that receives frames but never acknowledges them:
         the ack gate must time out into a retryable error while the
         batch stays applied and persisted. *)
      let sub =
        match
          publisher.Server.pub_subscribe ~from_seq:1 ~send:(fun _ -> true)
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "subscribe failed: %s" msg
      in
      let base = Corpus.length db.Query.graphs in
      with_client psrv (fun c ->
          (match Client.add_graphs ~id:1 ~token:"tok-lag" c batch with
          | Error (code, msg) ->
            Alcotest.(check string)
              "lagging is retryable" "unavailable"
              (P.error_code_name code);
            Alcotest.(check bool)
              "lagging is named" true
              (contains msg "replication lagging")
          | Ok _ -> Alcotest.fail "ack was not gated on the lagging standby");
          (* The batch is applied and persisted despite the error... *)
          Alcotest.(check int) "batch applied" 1 (Server.epoch psrv);
          Alcotest.(check bool)
            "batch persisted" true
            (Sys.file_exists (I.delta_path ppath 1));
          (* ...and once the dead subscriber is gone, the same-token
             retry converges on the original ack without re-ingesting. *)
          sub.Server.sub_close ();
          match Client.add_graphs ~id:2 ~token:"tok-lag" c batch with
          | Ok r ->
            Alcotest.(check (list int))
              "retry answers the original ack"
              [ 1; base; Array.length batch ]
              [ r.I.epoch; r.I.base; r.I.count ]
          | Error (_, msg) -> Alcotest.failf "retry failed: %s" msg);
      Alcotest.(check int)
        "ingested exactly once" (base + Array.length batch)
        (Corpus.length (Server.database psrv).Query.graphs);
      Alcotest.(check bool)
        "replication lag warned" true
        (List.exists
           (fun w -> w.Psst_obs.code = "ingest.replication")
           (Psst_obs.warnings ())))

(* --- subscribe validation on the wire --- *)

(* A subscriber whose send raises (as the listener's does for a frame
   over the wire's payload cap) is dropped like one whose send fails:
   the gate then sees no standby instead of waiting out its timeout on a
   subscriber whose streaming thread is gone. *)
let test_raising_send_drops_subscriber () =
  let _, db = make_db 761 8 in
  with_tmp_store @@ fun ppath ->
  Query.save_database ppath db;
  let _, chain = I.load ppath in
  I.save_delta chain ~prev_count:8 (make_batch 767 2);
  let hub = Replica.hub ~ack_timeout_ms:200. chain in
  Fun.protect ~finally:(fun () -> Replica.stop_hub hub) (fun () ->
      let pub = Replica.publisher hub in
      let errors () =
        Psst_obs.counter_value (Psst_obs.counter "replica.stream.errors")
      in
      let before = errors () in
      (match
         pub.Server.pub_subscribe ~from_seq:1 ~send:(fun _ ->
             raise (P.Proto_error "payload exceeds max_payload"))
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "subscribe refused: %s" msg);
      Alcotest.(check bool)
        "a raising send leaves no standby to wait for" true
        (pub.Server.pub_publish ~seq:1 = `No_standby);
      Alcotest.(check bool) "the dropped stream is metered" true
        (errors () > before))

let test_subscribe_validation () =
  let _, db = make_db 757 8 in
  with_tmp_store @@ fun ppath ->
  Query.save_database ppath db;
  let pdb, pchain = I.load ppath in
  let hub = Replica.hub pchain in
  let psock = fresh_sock () in
  let psrv =
    Server.start ~chain:pchain ~publisher:(Replica.publisher hub)
      (Server.default_config (P.Unix_socket psock))
      pdb
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop psrv;
      Replica.stop_hub hub;
      try Sys.remove psock with Sys_error _ -> ())
    (fun () ->
      with_client psrv (fun c ->
          (* Ahead of the primary's chain: rejected, retryable. *)
          Client.send c (P.Subscribe { from_seq = 5 });
          (match Client.read_reply c with
          | P.Error_reply { code; message; _ } ->
            Alcotest.(check string)
              "ahead is retryable" "unavailable" (P.error_code_name code);
            Alcotest.(check bool)
              "ahead is named" true (contains message "ahead")
          | _ -> Alcotest.fail "expected an error for a subscriber ahead");
          (* A valid subscription answers nothing (frames only stream
             once deltas exist); a second Subscribe on the same
             connection is malformed. *)
          Client.send c (P.Subscribe { from_seq = 1 });
          Client.send c (P.Subscribe { from_seq = 1 });
          match Client.read_reply c with
          | P.Error_reply { code; message; _ } ->
            Alcotest.(check string)
              "double subscribe is malformed" "malformed"
              (P.error_code_name code);
            Alcotest.(check bool)
              "double subscribe is named" true
              (contains message "already subscribed")
          | _ -> Alcotest.fail "expected an error for a double subscribe");
      (* A server with no replication chain refuses subscriptions. *)
      let plain_sock = fresh_sock () in
      let plain =
        Server.start (Server.default_config (P.Unix_socket plain_sock)) pdb
      in
      Fun.protect
        ~finally:(fun () ->
          Server.stop plain;
          try Sys.remove plain_sock with Sys_error _ -> ())
        (fun () ->
          with_client plain (fun c ->
              Client.send c (P.Subscribe { from_seq = 1 });
              match Client.read_reply c with
              | P.Error_reply { code; _ } ->
                Alcotest.(check string)
                  "chainless server refuses subscriptions" "unavailable"
                  (P.error_code_name code)
              | _ -> Alcotest.fail "expected an error from a chainless server")))

(* --- promotion: no acked batch lost, writable, chain continues --- *)

let test_promotion () =
  let ds, db0 = make_db 761 15 in
  let b1 = make_batch 1049 4 and b2 = make_batch 1051 3 and b3 = make_batch 1061 5 in
  let rng = Prng.make 71 in
  let q = fst (Generator.extract_query rng ds ~edges:4) in
  with_pair db0 (fun t ->
      ignore (ingest_ok t.psrv b1);
      ignore (ingest_ok t.psrv b2);
      let st = Option.get t.standby in
      Alcotest.(check int) "acked batches replicated" 2 (Replica.applied_seq st);
      (* The primary dies. Every batch it ever acked is already on the
         standby's disk — that is what the ack gate bought. *)
      Server.stop t.psrv;
      Replica.stop_hub t.hub;
      Alcotest.(check bool) "standby read-only pre-promotion" false
        (Server.writable t.ssrv);
      Replica.promote st t.ssrv;
      t.standby <- None;
      Alcotest.(check bool) "promoted standby writable" true
        (Server.writable t.ssrv);
      (* The promoted primary appends where the dead one left off. *)
      let e3, base3, c3 = ingest_ok t.ssrv b3 in
      Alcotest.(check (list int))
        "post-promotion ack"
        [
          3;
          Corpus.length db0.Query.graphs + Array.length b1 + Array.length b2;
          Array.length b3;
        ]
        [ e3; base3; c3 ];
      Alcotest.(check int) "chain continues at seq 3" 4 t.schain.I.next_seq;
      (* The promoted server's answers are bit-identical to an offline
         replay of its chain — base, both replicated deltas, and the
         post-promotion one. *)
      let offline_db, offline_chain = I.load t.spath in
      Alcotest.(check int) "offline replay sees 3 deltas" 4
        offline_chain.I.next_seq;
      Alcotest.(check int) "no acked batch lost"
        (Corpus.length db0.Query.graphs
        + Array.length b1 + Array.length b2 + Array.length b3)
        (Corpus.length offline_db.Query.graphs);
      let offline = Query.run offline_db q base_config in
      with_client t.ssrv (fun c ->
          check_answer ~what:"promoted answer" offline
            (Client.rpc c (P.Run { id = 0; query = q; config = base_config }))))

(* --- replica-aware routing: failover keeps answers exact --- *)

let with_client_ep ep f =
  let c = Client.connect ep in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let failover_counter = Psst_obs.counter "router.failover"

let test_router_failover () =
  let ds, db = make_db 769 15 in
  let rng = Prng.make 73 in
  let queries =
    List.init 2 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline = List.map (fun q -> Query.run db q base_config) queries in
  let psock = fresh_sock () and ssock = fresh_sock () and rsock = fresh_sock () in
  let start ep =
    Server.start { (Server.default_config ep) with Server.domains = 1 } db
  in
  let primary = start (P.Unix_socket psock) in
  let standby = start (P.Unix_socket ssock) in
  let router =
    Psst_router.start
      {
        (Psst_router.default_config ~endpoint:(P.Unix_socket rsock)
           ~workers:[ P.Unix_socket psock ])
        with
        Psst_router.workers =
          [| [| P.Unix_socket psock; P.Unix_socket ssock |] |];
        retries = 2;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Psst_router.stop router;
      Server.stop standby;
      (if not (Server.stopped primary) then Server.stop primary);
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        [ psock; ssock; rsock ])
    (fun () ->
      let rpc_routed c q i = Client.rpc c (P.Run { id = i; query = q; config = base_config }) in
      with_client_ep (P.Unix_socket rsock) (fun c ->
          (* Healthy: the primary replica serves, answers exact. *)
          List.iteri
            (fun i q ->
              check_answer ~what:(Printf.sprintf "routed healthy %d" i)
                (List.nth offline i) (rpc_routed c q i))
            queries;
          (* The roster names replica 0 the preferred primary. *)
          let h = Psst_router.health router in
          Alcotest.(check int) "roster has both replicas" 2
            (List.length h.P.workers);
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (Printf.sprintf "replica %d reachable" w.P.rid)
                true w.P.reachable;
              Alcotest.(check bool)
                (Printf.sprintf "replica %d primary flag" w.P.rid)
                (w.P.rid = 0) w.P.primary)
            h.P.workers;
          (* The primary dies mid-deployment: the same request's retry
             fails over to the standby, and the answers stay exact (not
             degraded) because the replica serves the same shard. *)
          Server.stop primary;
          let failovers = Psst_obs.counter_value failover_counter in
          List.iteri
            (fun i q ->
              check_answer ~what:(Printf.sprintf "routed failover %d" i)
                (List.nth offline i) (rpc_routed c q i))
            queries;
          Alcotest.(check bool) "failover metered" true
            (Psst_obs.counter_value failover_counter > failovers);
          let h = Psst_router.health router in
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (Printf.sprintf "post-failover replica %d primary flag" w.P.rid)
                (w.P.rid = 1) w.P.primary)
            h.P.workers))

let suite =
  [
    Alcotest.test_case "standby differential @ 1 domain" `Quick
      test_standby_differential_1;
    Alcotest.test_case "standby differential @ 4 domains" `Quick
      test_standby_differential_4;
    Alcotest.test_case "catch-up after disconnect" `Quick test_catch_up;
    Alcotest.test_case "standby outlives connect refusals" `Quick
      test_standby_outlives_connect_refusals;
    Alcotest.test_case "lagging ack gate and token retry" `Quick
      test_ack_gate_lagging;
    Alcotest.test_case "subscribe validation" `Quick test_subscribe_validation;
    Alcotest.test_case "promotion loses no acked batch" `Quick test_promotion;
    Alcotest.test_case "router failover keeps answers exact" `Quick
      test_router_failover;
    Alcotest.test_case "raising send drops the subscriber" `Quick
      test_raising_send_drops_subscriber;
  ]
