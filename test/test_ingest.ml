(* Continuous ingest (DESIGN.md §16): the serving pins that make live
   Add_graphs trustworthy. Snapshot consistency — a query admitted
   before a batch never sees the new graphs, a query sent after the ack
   always does, and both halves are bit-identical to offline Query.run
   against the corresponding epoch's database (at 1 and 4 domains, cold
   and warm cache). Admission — queue and tenant-quota overflows reject
   with retryable errors, metered per tenant, with the database
   unchanged. Persistence — every acked batch is a crash-atomic delta
   side file, the base store is byte-identical before and after, and an
   offline Psst_ingest.load reconstructs exactly the database the server
   ended on (stale deltas after a base rebuild are refused, not
   replayed). *)

module P = Psst_proto
module Client = Psst_client
module Server = Psst_server
module Prng = Psst_util.Prng

open Tgen.Fixtures

(* Fresh graphs to ingest, disjoint from any generated corpus's seed. *)
let make_batch seed n =
  (Generator.generate { Generator.default_params with num_graphs = n; seed })
    .Generator.graphs

let with_server ?chain ?(domains = 1) ?(ingest_queue_cap = 1024)
    ?(tenant_quota = 0) db f =
  let path = Filename.temp_file "psst_test_ing" ".sock" in
  let srv =
    Server.start ?chain
      {
        (Server.default_config (P.Unix_socket path)) with
        Server.domains;
        ingest_queue_cap;
        tenant_quota;
      }
      db
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv)

let with_client srv f =
  let c = Client.connect (Server.endpoint srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_answer ~what expect = function
  | P.Answer { answers; stats; _ } ->
    Alcotest.(check (list int))
      (what ^ " answers") expect.Query.answers answers;
    Alcotest.(check bool)
      (what ^ " pruning counters") true
      (stats = P.stats_of_query expect.Query.stats)
  | _ -> Alcotest.failf "%s: expected Answer" what

(* --- the snapshot-consistency differential pin --- *)

(* One connection; the server's reader admits frames in order. Pipeline
   the queries, send Add_graphs, then — only after the Ingest_ack came
   back — the same queries again. The first wave was admitted before the
   batch, so it must match offline epoch 0; the second was sent after
   the ack, so it must match offline Query.add_graphs + Query.run. The
   epoch-0 replies that interleave before the ack arrive with ids < k;
   collect everything by id. *)
let check_ingest_differential ~domains () =
  let ds, db0 = make_db 431 25 in
  let batch = make_batch 907 8 in
  let db1 = Query.add_graphs db0 batch in
  let rng = Prng.make 53 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let k = List.length queries in
  let offline0 = List.map (fun q -> Query.run db0 q base_config) queries in
  let offline1 = List.map (fun q -> Query.run db1 q base_config) queries in
  (* Appending graphs never changes an existing graph's verdict: each
     candidate's PRNG stream is keyed by its global id, so the epoch-1
     answers restricted to the epoch-0 ids are the epoch-0 answers. *)
  let n0 = Corpus.length db0.Query.graphs in
  List.iteri
    (fun i ((o0 : Query.outcome), (o1 : Query.outcome)) ->
      Alcotest.(check (list int))
        (Printf.sprintf "query %d: epoch-1 answers on ids < %d" i n0)
        o0.Query.answers
        (List.filter (fun g -> g < n0) o1.Query.answers))
    (List.combine offline0 offline1);
  with_server ~domains db0 (fun srv ->
      with_client srv (fun c ->
          let replies = Hashtbl.create 16 in
          let collect () =
            match Client.read_reply c with
            | P.Answer { id; _ } as r ->
              Hashtbl.replace replies id r;
              `Answer
            | P.Ingest_ack { id; epoch; base; count } ->
              Alcotest.(check int) "ack id" 99 id;
              Alcotest.(check int) "ack epoch" 1 epoch;
              Alcotest.(check int) "ack base"
                (Corpus.length db0.Query.graphs) base;
              Alcotest.(check int) "ack count" (Array.length batch) count;
              `Ack
            | _ -> Alcotest.fail "unexpected reply kind"
          in
          List.iteri
            (fun i q ->
              Client.send c (P.Run { id = i; query = q; config = base_config }))
            queries;
          Client.send c (P.Add_graphs { id = 99; token = ""; graphs = batch });
          (* Drain until the ack; epoch-0 answers may land first. *)
          let acked = ref false in
          while not !acked do
            if collect () = `Ack then acked := true
          done;
          (* Second wave, then a warm repeat: the swapped epoch shares the
             epoch-0 cache entries of its lineage and must still answer
             bit-identically to an offline run on the grown database. *)
          List.iteri
            (fun i q ->
              Client.send c
                (P.Run { id = k + i; query = q; config = base_config }))
            queries;
          List.iteri
            (fun i q ->
              Client.send c
                (P.Run { id = (2 * k) + i; query = q; config = base_config }))
            queries;
          for _ = 1 to 3 * k - Hashtbl.length replies do
            ignore (collect ())
          done;
          List.iteri
            (fun i off ->
              check_answer
                ~what:(Printf.sprintf "epoch-0 query %d @ %d domains" i domains)
                off
                (Hashtbl.find replies i))
            offline0;
          List.iteri
            (fun i off ->
              check_answer
                ~what:(Printf.sprintf "epoch-1 query %d @ %d domains" i domains)
                off
                (Hashtbl.find replies (k + i));
              check_answer
                ~what:
                  (Printf.sprintf "epoch-1 warm query %d @ %d domains" i domains)
                off
                (Hashtbl.find replies ((2 * k) + i)))
            offline1;
          Alcotest.(check int) "server epoch" 1 (Server.epoch srv)))

let test_ingest_differential_sequential () =
  check_ingest_differential ~domains:1 ()

let test_ingest_differential_parallel () =
  check_ingest_differential ~domains:4 ()

(* Multiple batches stack: each ack's id range starts where the previous
   epoch ended, and the final database equals offline folds. *)
let test_ingest_stacks () =
  let ds, db0 = make_db 433 15 in
  let b1 = make_batch 911 5 and b2 = make_batch 913 7 in
  let db2 = Query.add_graphs (Query.add_graphs db0 b1) b2 in
  let rng = Prng.make 59 in
  let q = fst (Generator.extract_query rng ds ~edges:4) in
  let offline = Query.run db2 q base_config in
  with_server db0 (fun srv ->
      with_client srv (fun c ->
          (match Client.add_graphs c b1 with
          | Ok r ->
            Alcotest.(check int) "batch 1 base" 15 r.Psst_ingest.base;
            Alcotest.(check int) "batch 1 epoch" 1 r.Psst_ingest.epoch
          | Error _ -> Alcotest.fail "batch 1 rejected");
          (match Client.add_graphs c b2 with
          | Ok r ->
            Alcotest.(check int) "batch 2 base" 20 r.Psst_ingest.base;
            Alcotest.(check int) "batch 2 epoch" 2 r.Psst_ingest.epoch
          | Error _ -> Alcotest.fail "batch 2 rejected");
          (match Client.run_all c [ q ] base_config with
          | [| reply |] -> check_answer ~what:"query on epoch 2" offline reply
          | _ -> Alcotest.fail "expected one reply");
          let h = Client.health c in
          Alcotest.(check int) "health epoch" 2 h.P.epoch;
          Alcotest.(check int) "health ingest_applied" 12 h.P.ingest_applied;
          Alcotest.(check int) "health ingest_queued drained" 0
            h.P.ingest_queued))

(* --- admission: quotas and queue bounds --- *)

let tenant_rejected name =
  Psst_obs.counter_value
    (Psst_obs.counter (Printf.sprintf "server.tenant.%s.rejected" name))

let counter name = Psst_obs.counter_value (Psst_obs.counter name)

let test_tenant_quota_rejects () =
  let ds, db = make_db 437 12 in
  let batch = make_batch 917 20 in
  with_server ~tenant_quota:10 db (fun srv ->
      with_client srv (fun c ->
          Client.set_tenant c "alice";
          let before = tenant_rejected "alice" in
          let quota_before = counter "server.reject.tenant_quota" in
          (match Client.add_graphs c batch with
          | Error (P.Queue_full, msg) ->
            Alcotest.(check bool) "retryable" true
              (P.error_code_retryable P.Queue_full);
            Alcotest.(check bool) "message names the tenant" true
              (contains msg "alice")
          | Ok _ -> Alcotest.fail "a 20-graph batch must exceed quota 10"
          | Error _ -> Alcotest.fail "expected Queue_full");
          Alcotest.(check bool) "alice's rejection was metered" true
            (tenant_rejected "alice" > before);
          Alcotest.(check int) "metered as a quota rejection" (quota_before + 1)
            (counter "server.reject.tenant_quota");
          (* Within quota still works, and under its own tenant meter. *)
          (match Client.add_graphs c (Array.sub batch 0 4) with
          | Ok r -> Alcotest.(check int) "small batch applied" 4 r.Psst_ingest.count
          | Error _ -> Alcotest.fail "a 4-graph batch fits quota 10");
          (* The rejected batch changed nothing: answers still match the
             database with only the accepted graphs. *)
          let db' = Query.add_graphs db (Array.sub batch 0 4) in
          let rng = Prng.make 61 in
          let q = fst (Generator.extract_query rng ds ~edges:4) in
          let offline = Query.run db' q base_config in
          match Client.run_all c [ q ] base_config with
          | [| reply |] -> check_answer ~what:"post-rejection query" offline reply
          | _ -> Alcotest.fail "expected one reply"))

let test_ingest_queue_full_rejects () =
  let _, db = make_db 439 10 in
  let batch = make_batch 919 8 in
  with_server ~ingest_queue_cap:5 db (fun srv ->
      with_client srv (fun c ->
          match Client.add_graphs c batch with
          | Error (P.Queue_full, msg) ->
            Alcotest.(check bool) "names the cap" true (contains msg "5")
          | _ -> Alcotest.fail "an 8-graph batch must overflow cap 5"))

let test_ingest_disabled_rejects () =
  let _, db = make_db 441 10 in
  with_server ~ingest_queue_cap:0 db (fun srv ->
      with_client srv (fun c ->
          match Client.add_graphs c (make_batch 921 2) with
          | Error (P.Unavailable, _) -> ()
          | _ -> Alcotest.fail "ingest off must answer Unavailable"))

let test_set_tenant_roundtrip () =
  let _, db = make_db 443 10 in
  with_server db (fun srv ->
      with_client srv (fun c ->
          Client.set_tenant c "team-7";
          Client.ping c;
          (* Empty names are refused client-side... *)
          (match Client.set_tenant c "" with
          | () -> Alcotest.fail "empty tenant must be refused"
          | exception Client.Client_error _ -> ());
          (* ...and oversized ones by the server-side decoder. *)
          match Client.rpc c (P.Set_tenant (String.make 200 'x')) with
          | P.Error_reply { code = P.Malformed; _ } -> ()
          | _ -> Alcotest.fail "oversized tenant must be Malformed"))

(* --- persistence: delta side files --- *)

let with_tmp_store f =
  let path = Filename.temp_file "psst_test_ing" ".psst" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Psst_ingest.clear_deltas path);
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Ingest batches from different tenants apply round-robin, not in
   arrival order. An armed store.write delay holds the writer inside
   alice's first batch while alice queues two more and then bob queues
   one; bob's batch must apply before alice's third. *)
let test_ingest_tenants_round_robin () =
  with_tmp_store @@ fun path ->
  let _, db = make_db 451 10 in
  Query.save_database path db;
  let db, chain = Psst_ingest.load path in
  let a1 = make_batch 951 2 and a2 = make_batch 953 2 in
  let a3 = make_batch 955 2 and b1 = make_batch 957 2 in
  let wait_until what cond =
    let deadline = Unix.gettimeofday () +. 10. in
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
      Thread.delay 0.002
    done
  in
  let send c id graphs =
    Client.send c (P.Add_graphs { id; token = ""; graphs })
  in
  let ack_epoch c id =
    match Client.read_reply c with
    | P.Ingest_ack { id = rid; epoch; _ } when rid = id -> epoch
    | _ -> Alcotest.failf "batch %d: expected its Ingest_ack" id
  in
  with_server ~chain db (fun srv ->
      with_client srv (fun alice ->
          with_client srv (fun bob ->
              Client.set_tenant alice "alice";
              Client.set_tenant bob "bob";
              let queued () = (Server.health srv).P.ingest_queued in
              let fired = counter "fault.store.write" in
              Psst_fault.arm [ ("store.write", Psst_fault.Delay 0.5, 1.) ];
              Fun.protect ~finally:Psst_fault.disarm (fun () ->
                  send alice 1 a1;
                  wait_until "the writer stalls in alice's first persist"
                    (fun () -> counter "fault.store.write" > fired);
                  send alice 2 a2;
                  send alice 3 a3;
                  wait_until "alice's two batches queued" (fun () ->
                      queued () = 4);
                  send bob 4 b1;
                  wait_until "bob's batch queued" (fun () -> queued () >= 6);
                  Alcotest.(check int) "all three queued behind the stall" 6
                    (queued ()));
              let e1 = ack_epoch alice 1 in
              let e2 = ack_epoch alice 2 in
              let e3 = ack_epoch alice 3 in
              let eb = ack_epoch bob 4 in
              Alcotest.(check (list int)) "alice's batches stay in order"
                [ 1; 2; 4 ] [ e1; e2; e3 ];
              Alcotest.(check bool) "bob's batch applies before alice's third"
                true (eb < e3))))

let test_delta_persistence_roundtrip () =
  with_tmp_store @@ fun path ->
  let ds, db = make_db 449 15 in
  Query.save_database path db;
  let db, chain = Psst_ingest.load path in
  let base_bytes = read_file path in
  let b1 = make_batch 923 4 and b2 = make_batch 929 6 in
  with_server ~chain db (fun srv ->
      with_client srv (fun c ->
          (match Client.add_graphs c b1 with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "batch 1 rejected");
          match Client.add_graphs c b2 with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "batch 2 rejected");
      (* Both deltas exist, and the base store was never rewritten. *)
      Alcotest.(check bool) "delta 1 exists" true
        (Sys.file_exists (Psst_ingest.delta_path path 1));
      Alcotest.(check bool) "delta 2 exists" true
        (Sys.file_exists (Psst_ingest.delta_path path 2));
      Alcotest.(check bool) "no delta 3" false
        (Sys.file_exists (Psst_ingest.delta_path path 3));
      Alcotest.(check bool) "base store byte-identical" true
        (read_file path = base_bytes);
      (* An offline load replays the chain to exactly the served state. *)
      let reloaded, chain' = Psst_ingest.load path in
      Alcotest.(check int) "chain resumes after last delta" 3
        chain'.Psst_ingest.next_seq;
      let served = Server.database srv in
      Alcotest.(check int) "reloaded corpus size"
        (Corpus.length served.Query.graphs)
        (Corpus.length reloaded.Query.graphs);
      Alcotest.(check bool) "reloaded corpus fingerprint" true
        (Corpus.fingerprint reloaded.Query.graphs
        = Corpus.fingerprint served.Query.graphs);
      let rng = Prng.make 67 in
      let q = fst (Generator.extract_query rng ds ~edges:4) in
      Alcotest.(check (list int)) "reloaded answers = served answers"
        (Query.run served q base_config).Query.answers
        (Query.run reloaded q base_config).Query.answers)

let test_stale_delta_refused () =
  with_tmp_store @@ fun path ->
  let _, db = make_db 457 12 in
  Query.save_database path db;
  let _, chain = Psst_ingest.load path in
  Psst_ingest.save_delta chain ~prev_count:12 (make_batch 931 3);
  (* Rebuild the base for a different corpus: the existing delta now
     chains onto nothing. Replay must stop at it, not apply it. *)
  let _, db2 = make_db 461 14 in
  Query.save_database path db2;
  let before = Psst_obs.counter_value (Psst_obs.counter "ingest.delta.stale") in
  let reloaded, chain' = Psst_ingest.load path in
  Alcotest.(check int) "stale delta not replayed" 14
    (Corpus.length reloaded.Query.graphs);
  Alcotest.(check int) "chain stops before the stale delta" 1
    chain'.Psst_ingest.next_seq;
  Alcotest.(check bool) "staleness was metered" true
    (Psst_obs.counter_value (Psst_obs.counter "ingest.delta.stale") > before)

let test_out_of_order_delta_refused () =
  with_tmp_store @@ fun path ->
  let _, db = make_db 463 10 in
  Query.save_database path db;
  let _, chain = Psst_ingest.load path in
  Psst_ingest.save_delta chain ~prev_count:10 (make_batch 937 2);
  (* A gap in the chain (delta 1 removed, delta 2 present) must stop
     replay at the gap rather than renumber or skip. *)
  Psst_ingest.save_delta chain ~prev_count:12 (make_batch 941 2);
  Sys.remove (Psst_ingest.delta_path path 1);
  let reloaded, _ = Psst_ingest.load path in
  Alcotest.(check int) "replay stops at the gap" 10
    (Corpus.length reloaded.Query.graphs)

(* --- the idempotency token --- *)

(* Resending a batch whose ack was lost, with the same token, must
   return the original ack without ingesting twice — the writer-side
   dedup that makes client retries safe. A different token (or the
   empty token, which disables dedup) ingests normally. *)
let test_token_dedup () =
  let _, db = make_db 467 15 in
  let batch = make_batch 977 3 in
  with_server db (fun srv ->
      with_client srv (fun c ->
          let dedups () =
            Psst_obs.counter_value (Psst_obs.counter "ingest.dedup")
          in
          let before = dedups () in
          let send token =
            match Client.add_graphs ~token c batch with
            | Ok r -> r
            | Error (_, msg) -> Alcotest.failf "batch rejected: %s" msg
          in
          let r1 = send "batch-A" in
          let r2 = send "batch-A" in
          Alcotest.(check bool) "retry returns the original ack" true
            (r1 = r2);
          Alcotest.(check int) "corpus grew once" (15 + 3)
            (Corpus.length (Server.database srv).Query.graphs);
          Alcotest.(check bool) "dedup was metered" true (dedups () > before);
          (* A different token is a different batch. *)
          let r3 = send "batch-B" in
          Alcotest.(check int) "fresh token ingests" (15 + 3)
            r3.Psst_ingest.base;
          (* The empty token disables dedup entirely. *)
          let r4 = send "" in
          let r5 = send "" in
          Alcotest.(check bool) "empty token never dedups" true
            (r4.Psst_ingest.base <> r5.Psst_ingest.base);
          Alcotest.(check int) "four ingests total" (15 + (4 * 3))
            (Corpus.length (Server.database srv).Query.graphs)))

(* --- delta-chain fuzzing --- *)

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

(* Tiny ingest batches keep the delta files small and their replay
   cheap, so the corruption sweep can afford a full reload per case. *)
let make_tiny_batch seed n =
  (Generator.generate
     {
       Generator.default_params with
       num_graphs = n;
       seed;
       min_vertices = 4;
       max_vertices = 5;
       motif_edges = 2;
     })
    .Generator.graphs

(* Positions to flip inside [start, stop): the framing fields at the
   front, plus a spread through the payload (same sampling the store
   corruption suite uses). *)
let flip_positions start stop =
  let head = List.init (min 24 (stop - start)) (fun i -> start + i) in
  let spread =
    List.init 7 (fun i -> start + ((stop - start - 1) * (i + 1) / 8))
  in
  List.sort_uniq compare (head @ spread @ [ stop - 1 ])

(* The same adversarial treatment Test_store gives the base format,
   aimed at the chain: truncate the newest delta at every section
   boundary (and inside every section), and flip bytes across the
   header and every section. Whatever the damage, the load must stop
   cleanly at the first damaged delta — keeping the intact prefix,
   metering ingest.delta.stale, warning under ingest.delta — and never
   apply damaged graphs or raise. *)
let test_delta_chain_fuzzing () =
  with_tmp_store @@ fun path ->
  let _, db = make_db 479 10 in
  Query.save_database path db;
  let _, chain = Psst_ingest.load path in
  Psst_ingest.save_delta chain ~prev_count:10 (make_tiny_batch 983 2);
  Psst_ingest.save_delta chain ~prev_count:12 (make_tiny_batch 991 3);
  let d2 = Psst_ingest.delta_path path 2 in
  let original = read_file d2 in
  let spans = Psst_store.section_spans original in
  let stale () =
    Psst_obs.counter_value (Psst_obs.counter "ingest.delta.stale")
  in
  let check_stops_at_prefix what =
    let before = stale () in
    let reloaded, chain' = Psst_ingest.load path in
    Alcotest.(check int)
      (what ^ ": intact prefix kept, damaged tail dropped")
      12
      (Corpus.length reloaded.Query.graphs);
    Alcotest.(check int) (what ^ ": chain stops before the damage") 2
      chain'.Psst_ingest.next_seq;
    Alcotest.(check bool) (what ^ ": damage was metered") true
      (stale () > before)
  in
  (* A scratch standby over a copy of the base, one frame behind: every
     damaged delta 2 must be refused before anything is written. *)
  with_tmp_store @@ fun spath ->
  write_file spath (read_file path);
  let sdb, schain = Psst_ingest.load spath in
  let snap = Atomic.make { Psst_ingest.epoch = 0; db = sdb } in
  (match
     Psst_ingest.apply_replicated schain snap ~seq:1
       ~bytes:(read_file (Psst_ingest.delta_path path 1))
   with
  | `Applied _ -> ()
  | `Stale | `Error _ -> Alcotest.fail "standby: pristine delta 1 must apply");
  let sd2 = Psst_ingest.delta_path spath 2 in
  let check_standby_rejects what bytes =
    (match Psst_ingest.apply_replicated schain snap ~seq:2 ~bytes with
    | `Error _ -> ()
    | `Applied _ | `Stale -> Alcotest.failf "%s: standby must refuse" what);
    Alcotest.(check bool) (what ^ ": standby wrote no delta 2") false
      (Sys.file_exists sd2);
    Alcotest.(check int) (what ^ ": standby epoch unchanged") 1
      (Atomic.get snap).Psst_ingest.epoch;
    Alcotest.(check int) (what ^ ": standby next_seq unchanged") 2
      schain.Psst_ingest.next_seq
  in
  (* Sanity: the pristine chain replays in full. *)
  let full, _ = Psst_ingest.load path in
  Alcotest.(check int) "pristine chain replays" 15
    (Corpus.length full.Query.graphs);
  (* Truncation at every section boundary, inside every section, and at
     the header edges — the empty file included. *)
  let boundaries =
    0 :: 1
    :: (Psst_store.header_bytes - 1)
    :: Psst_store.header_bytes
    :: List.concat_map
         (fun (_, start, stop) -> [ start; start + 3; stop - 1; stop ])
         spans
  in
  List.iter
    (fun cut ->
      if cut < String.length original then begin
        let what = Printf.sprintf "truncated at %d" cut in
        write_file d2 (String.sub original 0 cut);
        check_stops_at_prefix what;
        check_standby_rejects what (String.sub original 0 cut)
      end)
    boundaries;
  (* Byte flips: the whole header, and a sample of every section. *)
  let positions =
    List.init Psst_store.header_bytes Fun.id
    @ List.concat_map (fun (_, start, stop) -> flip_positions start stop) spans
  in
  List.iter
    (fun pos ->
      let corrupt = Bytes.of_string original in
      Bytes.set corrupt pos
        (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
      let what = Printf.sprintf "byte %d flipped" pos in
      write_file d2 (Bytes.to_string corrupt);
      check_stops_at_prefix what;
      check_standby_rejects what (Bytes.to_string corrupt))
    positions;
  (* The pristine frame then applies, persisted byte for byte. *)
  (match Psst_ingest.apply_replicated schain snap ~seq:2 ~bytes:original with
  | `Applied _ -> ()
  | `Stale | `Error _ -> Alcotest.fail "standby: pristine delta 2 must apply");
  Alcotest.(check bool) "standby's delta 2 = the primary's bytes" true
    (read_file sd2 = original);
  (* Restore: nothing was cached across the damaged loads. *)
  write_file d2 original;
  let restored, chain' = Psst_ingest.load path in
  Alcotest.(check int) "restored chain replays in full" 15
    (Corpus.length restored.Query.graphs);
  Alcotest.(check int) "chain resumes after the last delta" 3
    chain'.Psst_ingest.next_seq;
  (* Damage in the middle of the chain drops everything after it: a
     replayed suffix that skipped a damaged link would renumber global
     ids and change answers. *)
  let d1 = Psst_ingest.delta_path path 1 in
  let original1 = read_file d1 in
  write_file d1 (String.sub original1 0 (String.length original1 / 2));
  let reloaded, chain' = Psst_ingest.load path in
  Alcotest.(check int) "mid-chain damage drops the tail too" 10
    (Corpus.length reloaded.Query.graphs);
  Alcotest.(check int) "chain restarts at the damaged link" 1
    chain'.Psst_ingest.next_seq;
  Alcotest.(check bool) "the stop was warned under ingest.delta" true
    (List.exists
       (fun (w : Psst_obs.warning) -> w.code = "ingest.delta")
       (Psst_obs.warnings ()))

(* --- the ingest wire codec --- *)

let test_v5_codec_roundtrip () =
  let graphs = make_batch 947 3 in
  (match
     P.request_of_string (P.encode_request (P.Add_graphs { id = 7; token = "tok-7"; graphs }))
   with
  | P.Add_graphs { id = 7; token; graphs = g' } ->
    Alcotest.(check string) "token survives" "tok-7" token;
    Alcotest.(check int) "graph count survives" 3 (Array.length g');
    Alcotest.(check bool) "graphs survive byte-exactly" true
      (Pgraph_io.db_fingerprint g' = Pgraph_io.db_fingerprint graphs)
  | _ -> Alcotest.fail "Add_graphs round-trip");
  (match P.request_of_string (P.encode_request (P.Set_tenant "acme")) with
  | P.Set_tenant "acme" -> ()
  | _ -> Alcotest.fail "Set_tenant round-trip");
  match
    P.reply_of_string
      (P.encode_reply (P.Ingest_ack { id = 3; epoch = 9; base = 100; count = 5 }))
  with
  | P.Ingest_ack { id = 3; epoch = 9; base = 100; count = 5 } -> ()
  | _ -> Alcotest.fail "Ingest_ack round-trip"

let suite =
  [
    Alcotest.test_case "differential across an ingest, 1 domain" `Quick
      test_ingest_differential_sequential;
    Alcotest.test_case "differential across an ingest, 4 domains" `Quick
      test_ingest_differential_parallel;
    Alcotest.test_case "batches stack; health reports epoch and lag" `Quick
      test_ingest_stacks;
    Alcotest.test_case "tenant quota rejects retryably, metered" `Quick
      test_tenant_quota_rejects;
    Alcotest.test_case "tenants' batches apply round-robin" `Quick
      test_ingest_tenants_round_robin;
    Alcotest.test_case "ingest queue bound rejects retryably" `Quick
      test_ingest_queue_full_rejects;
    Alcotest.test_case "ingest disabled answers Unavailable" `Quick
      test_ingest_disabled_rejects;
    Alcotest.test_case "Set_tenant roundtrip and validation" `Quick
      test_set_tenant_roundtrip;
    Alcotest.test_case "delta files round-trip; base never rewritten" `Quick
      test_delta_persistence_roundtrip;
    Alcotest.test_case "stale delta after rebuild is refused" `Quick
      test_stale_delta_refused;
    Alcotest.test_case "chain gap stops replay" `Quick
      test_out_of_order_delta_refused;
    Alcotest.test_case "idempotency token dedups retries" `Quick
      test_token_dedup;
    Alcotest.test_case "delta chain survives fuzzing" `Quick
      test_delta_chain_fuzzing;
    Alcotest.test_case "v5 codec round-trips" `Quick test_v5_codec_roundtrip;
  ]
