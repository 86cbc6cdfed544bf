(* Wire-protocol codecs and frame fuzzing (DESIGN.md §11): round trips
   through the framed encoding, then the same adversarial treatment
   Test_store gives the on-disk format — truncation at every byte
   boundary and single-byte corruption at every offset. Every anomaly
   must surface as Proto_error with a readable message, never Failure,
   Invalid_argument or an out-of-bounds access. *)

module P = Psst_proto
module Crc32 = Psst_util.Crc32
module S = Psst_store

let query_graph =
  Lgraph.create ~vlabels:[| 0; 1; 2; 1 |]
    ~edges:[ (0, 1, 0); (1, 2, 1); (2, 3, 0); (3, 0, 2) ]

let smp_config =
  {
    Query.epsilon = 0.35;
    delta = 2;
    mode = Pruning.Optimized;
    certified = true;
    verifier = `Smp { Verify.default_config with tau = 0.25; emb_cap = 9 };
    relax_cap = 5000;
    seed = 77;
  }

let exact_config =
  { Query.default_config with verifier = `Exact; mode = Pruning.Random_pick }

let adaptive_config =
  { smp_config with
    Query.verifier =
      `Smp { Verify.default_config with tau = 0.25; emb_cap = 9; adaptive = true } }

let sample_requests =
  [
    P.Ping;
    P.Get_stats;
    P.Get_health;
    P.Run { id = 3; query = query_graph; config = smp_config };
    P.Run { id = 0; query = query_graph; config = exact_config };
    P.Run { id = 5; query = query_graph; config = adaptive_config };
    P.Run_topk { id = 12; query = query_graph; k = 5; config = smp_config };
    P.Subscribe { from_seq = 42 };
    P.Subscribe { from_seq = 1 };
    P.Replica_ack { seq = 7 };
  ]

let sample_replies =
  [
    P.Pong;
    P.Answer
      {
        id = 3;
        answers = [ 0; 4; 17 ];
        stats =
          {
            P.relaxed_truncated = true;
            structural_candidates = 12;
            prob_candidates = 7;
            accepted_by_bounds = 2;
            pruned_by_bounds = 5;
            degraded = false;
          };
      };
    P.Answer
      {
        id = 0;
        answers = [];
        stats =
          {
            P.relaxed_truncated = false;
            structural_candidates = 0;
            prob_candidates = 0;
            accepted_by_bounds = 0;
            pruned_by_bounds = 0;
            degraded = true;
          };
      };
    P.Topk_answer { id = 12; hits = [ (4, 0.75); (0, 0.5) ] };
    P.Stats_json "{\"counters\": {}}";
    P.Health_reply
      {
        P.uptime_s = 12.5;
        queue_depth = 3;
        served = 10_000;
        degraded_answers = 42;
        retryable_rejections = 7;
        workers = [];
        epoch = 6;
        ingest_queued = 17;
        ingest_applied = 512;
      };
    P.Health_reply
      {
        P.uptime_s = 99.25;
        queue_depth = 0;
        served = 4;
        degraded_answers = 1;
        retryable_rejections = 0;
        workers =
          [
            {
              P.wid = 0;
              reachable = true;
              worker_uptime_s = 98.5;
              worker_queue_depth = 2;
              worker_degraded_answers = 1;
              rid = 1;
              worker_epoch = 12;
              primary = false;
            };
            {
              P.wid = 1;
              reachable = false;
              worker_uptime_s = 0.;
              worker_queue_depth = 0;
              worker_degraded_answers = 0;
              rid = 0;
              worker_epoch = 0;
              primary = true;
            };
          ];
        epoch = 0;
        ingest_queued = 0;
        ingest_applied = 0;
      };
    P.Delta_frame { seq = 3; bytes = "raw delta-file bytes \x00\xff\x7f" };
    P.Delta_frame { seq = 1; bytes = "" };
    P.Error_reply { id = 9; code = P.Queue_full; message = "queue full" };
    P.Error_reply { id = 0; code = P.Malformed; message = "bad magic" };
    P.Error_reply { id = 1; code = P.Deadline; message = "too late" };
    P.Error_reply { id = 2; code = P.Shutdown; message = "draining" };
    P.Error_reply { id = 3; code = P.Internal; message = "boom" };
    P.Error_reply { id = 4; code = P.Unavailable; message = "retry" };
  ]

(* Lgraph.t has no structural equality usable by polymorphic compare
   (adjacency is derived), so compare requests via their encoding. *)
let check_request_roundtrip i req =
  let bytes = P.encode_request req in
  let back = P.request_of_string bytes in
  Alcotest.(check string)
    (Printf.sprintf "request %d re-encodes identically" i)
    bytes (P.encode_request back)

let test_request_roundtrips () =
  List.iteri check_request_roundtrip sample_requests

let test_reply_roundtrips () =
  List.iteri
    (fun i rep ->
      let bytes = P.encode_reply rep in
      Alcotest.(check bool)
        (Printf.sprintf "reply %d round-trips" i)
        true
        (P.reply_of_string bytes = rep))
    sample_replies

let test_config_roundtrip () =
  List.iter
    (fun cfg ->
      let e = S.encoder () in
      Query.put_config e cfg;
      let d = S.decoder ~name:"config" (S.contents e) in
      let back = Query.get_config d in
      S.expect_end d;
      Alcotest.(check bool) "config round-trips" true (cfg = back))
    [ Query.default_config; smp_config; exact_config; adaptive_config ]

(* --- adversarial framing --- *)

let expect_proto_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Proto_error" what
  | exception P.Proto_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Proto_error, got %s" what (Printexc.to_string e)

let test_truncation_every_boundary () =
  let frame =
    P.encode_request (P.Run { id = 1; query = query_graph; config = smp_config })
  in
  for n = 0 to String.length frame - 1 do
    expect_proto_error
      (Printf.sprintf "prefix of %d/%d bytes" n (String.length frame))
      (fun () -> P.request_of_string (String.sub frame 0 n))
  done

let test_trailing_bytes_rejected () =
  let frame = P.encode_request P.Ping in
  expect_proto_error "one trailing byte" (fun () ->
      P.request_of_string (frame ^ "\x00"));
  expect_proto_error "frame after frame" (fun () ->
      P.request_of_string (frame ^ frame))

(* A single corrupted byte anywhere in the frame — magic, version, tag,
   length, CRC or payload — must be detected. The header fields are
   validated directly and everything else is covered by the CRC-32, so
   no flip can slip through. *)
let test_single_byte_flips () =
  List.iter
    (fun (name, frame) ->
      for pos = 0 to String.length frame - 1 do
        let b = Bytes.of_string frame in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
        expect_proto_error
          (Printf.sprintf "%s: flipped byte %d" name pos)
          (fun () -> P.request_of_string (Bytes.to_string b))
      done)
    [
      ("ping", P.encode_request P.Ping);
      ( "run",
        P.encode_request
          (P.Run { id = 1; query = query_graph; config = smp_config }) );
    ]

let test_low_bit_flips_in_header () =
  (* Low-bit flips keep the length small, exercising the checksum (not
     the length cap) on the validation path. *)
  let frame =
    P.encode_request (P.Run { id = 1; query = query_graph; config = smp_config })
  in
  for pos = 0 to P.header_bytes - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    expect_proto_error
      (Printf.sprintf "header byte %d low-bit flip" pos)
      (fun () -> P.request_of_string (Bytes.to_string b))
  done

(* Hand-build frames with a correct CRC so corruption *below* the framing
   layer (store payload decode) is reached. *)
let mk_frame ~version ~tag payload =
  let head = Bytes.create 20 in
  Bytes.blit_string P.magic 0 head 0 8;
  Bytes.set_int32_le head 8 (Int32.of_int version);
  Bytes.set_int32_le head 12 (Int32.of_int tag);
  Bytes.set_int32_le head 16 (Int32.of_int (String.length payload));
  let head = Bytes.unsafe_to_string head in
  let crc =
    Crc32.update (Crc32.digest head) payload ~pos:0
      ~len:(String.length payload)
  in
  let crcb = Bytes.create 4 in
  Bytes.set_int32_le crcb 0 crc;
  head ^ Bytes.to_string crcb ^ payload

let test_valid_crc_bad_payload () =
  (* Unknown tag. *)
  expect_proto_error "unknown request tag" (fun () ->
      P.request_of_string (mk_frame ~version:P.proto_version ~tag:250 ""));
  (* A reply tag is not a request. *)
  expect_proto_error "reply tag as request" (fun () ->
      P.request_of_string (mk_frame ~version:P.proto_version ~tag:65 ""));
  (* Another protocol version, frame otherwise perfect: one error that
     names both versions, for requests and replies alike. *)
  List.iter
    (fun version ->
      let expect =
        Printf.sprintf "peer speaks protocol version %d, this build speaks %d"
          version P.proto_version
      in
      List.iter
        (fun (what, decode) ->
          match decode (mk_frame ~version ~tag:1 "") with
          | _ -> Alcotest.failf "v%d %s: expected Proto_error" version what
          | exception P.Proto_error msg ->
            Alcotest.(check string) (Printf.sprintf "v%d %s message" version what)
              expect msg)
        [
          ("request", fun b -> ignore (P.request_of_string b));
          ("reply", fun b -> ignore (P.reply_of_string b));
        ])
    [ P.proto_version - 1; P.proto_version + 1 ];
  (* Garbage store payload under a Run tag. *)
  expect_proto_error "garbage run payload" (fun () ->
      P.request_of_string
        (mk_frame ~version:P.proto_version ~tag:2 "\x01\x02\x03\x04"));
  (* Store payload truncated mid-field but the frame itself is whole. *)
  let whole =
    let e = S.encoder () in
    S.put_i64 e 1;
    S.put_lgraph e query_graph;
    S.contents e
  in
  expect_proto_error "store payload cut short" (fun () ->
      P.request_of_string
        (mk_frame ~version:P.proto_version ~tag:2
           (String.sub whole 0 (String.length whole / 2))));
  (* Trailing payload bytes after a complete message body. *)
  let ping_plus =
    mk_frame ~version:P.proto_version ~tag:1 "\x00"
  in
  expect_proto_error "payload bytes after message" (fun () ->
      P.request_of_string ping_plus);
  (* An oversized idempotency token is rejected at the codec, not
     half-accepted. *)
  expect_proto_error "oversized token" (fun () ->
      P.request_of_string
        (P.encode_request
           (P.Add_graphs { id = 0; token = String.make 129 't'; graphs = [||] })))

(* --- golden bytes: the wire format, pinned --- *)

(* One fixed instance of every request and reply variant. Their frames
   are the protocol: any change to these bytes is a format change and
   must bump [proto_version]. *)
let golden_messages =
  let reply_named name r = (name, P.encode_reply r) in
  let request_named name r = (name, P.encode_request r) in
  [
    request_named "Ping" P.Ping;
    request_named "Run"
      (P.Run { id = 3; query = query_graph; config = adaptive_config });
    request_named "Run_topk"
      (P.Run_topk { id = 12; query = query_graph; k = 5; config = exact_config });
    request_named "Get_stats" P.Get_stats;
    request_named "Get_health" P.Get_health;
    request_named "Set_tenant" (P.Set_tenant "acme");
    request_named "Add_graphs"
      (P.Add_graphs { id = 4; token = "retry-1"; graphs = [||] });
    request_named "Subscribe" (P.Subscribe { from_seq = 42 });
    request_named "Replica_ack" (P.Replica_ack { seq = 7 });
    reply_named "Pong" P.Pong;
    reply_named "Answer" (List.nth sample_replies 1);
    reply_named "Topk_answer" (P.Topk_answer { id = 12; hits = [ (4, 0.75); (0, 0.5) ] });
    reply_named "Stats_json" (P.Stats_json "{\"counters\": {}}");
    reply_named "Health_reply"
      (List.find
         (function P.Health_reply { workers = _ :: _; _ } -> true | _ -> false)
         sample_replies);
    reply_named "Error_reply"
      (P.Error_reply { id = 4; code = P.Unavailable; message = "retry" });
    reply_named "Ingest_ack" (P.Ingest_ack { id = 3; epoch = 9; base = 100; count = 5 });
    reply_named "Delta_frame" (P.Delta_frame { seq = 3; bytes = "delta\x00\xff" });
  ]

(* The v6 frames of [golden_messages], byte for byte. *)
let golden_hex =
  [
    ("Ping", "505353545250430006000000010000000000000008956fbf");
    ( "Run",
      "50535354525043000600000002000000e20000005573fc5c0300000000000000\
       0400000000000000000000000000000001000000000000000200000000000000\
       0100000000000000040000000000000000000000000000000100000000000000\
       0000000000000000010000000000000002000000000000000100000000000000\
       0200000000000000030000000000000000000000000000000000000000000000\
       03000000000000000200000000000000666666666666d63f0200000000000000\
       0100000000000000010100000000000000000000000000d03f9a9999999999a9\
       3f09000000000000000188130000000000004d00000000000000" );
    ( "Run_topk",
      "50535354525043000600000003000000d1000000d92b12640c00000000000000\
       0400000000000000000000000000000001000000000000000200000000000000\
       0100000000000000040000000000000000000000000000000100000000000000\
       0000000000000000010000000000000002000000000000000100000000000000\
       0200000000000000030000000000000000000000000000000000000000000000\
       030000000000000002000000000000000500000000000000000000000000e03f\
       0200000000000000000000000000000001000000000000000000100000000000\
       000700000000000000" );
    ("Get_stats", "50535354525043000600000004000000000000006c9b8ff7");
    ("Get_health", "5053535452504300060000000500000000000000f29b253b");
    ( "Set_tenant",
      "505353545250430006000000060000000c000000309648030400000000000000\
       61636d65" );
    ( "Add_graphs",
      "505353545250430006000000070000001f000000676360350400000000000000\
       070000000000000072657472792d310000000000000000" );
    ("Subscribe", "5053535452504300060000000800000008000000b3b9c3d32a00000000000000");
    ("Replica_ack", "5053535452504300060000000900000008000000a55fd81f0700000000000000");
    ("Pong", "5053535452504300060000004100000000000000e557f296");
    ( "Answer",
      "505353545250430006000000420000004a000000b4e931ca0300000000000000\
       0300000000000000000000000000000004000000000000001100000000000000\
       010c000000000000000700000000000000020000000000000005000000000000\
       0000" );
    ( "Topk_answer",
      "50535354525043000600000043000000300000007d373fb20c00000000000000\
       02000000000000000400000000000000000000000000e83f0000000000000000\
       000000000000e03f" );
    ( "Stats_json",
      "50535354525043000600000044000000180000003c0505b51000000000000000\
       7b22636f756e74657273223a207b7d7d" );
    ( "Health_reply",
      "50535354525043000600000046000000ac000000006619890000000000d05840\
       0000000000000000040000000000000001000000000000000000000000000000\
       02000000000000000000000000000000010000000000a0584002000000000000\
       00010000000000000001000000000000000c0000000000000000010000000000\
       0000000000000000000000000000000000000000000000000000000000000000\
       0000000000000000000000010000000000000000000000000000000000000000\
       00000000" );
    ( "Error_reply",
      "505353545250430006000000450000001d0000001dcd9bdd0400000000000000\
       050000000000000005000000000000007265747279" );
    ( "Ingest_ack",
      "5053535452504300060000004700000020000000a2f1c6bc0300000000000000\
       090000000000000064000000000000000500000000000000" );
    ( "Delta_frame",
      "505353545250430006000000480000001700000065ef2ff10300000000000000\
       070000000000000064656c746100ff" );
  ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_golden_bytes () =
  Alcotest.(check (list string)) "one golden frame per variant"
    (List.map fst golden_hex) (List.map fst golden_messages);
  List.iter2
    (fun (name, expect) (_, bytes) ->
      Alcotest.(check string) (name ^ " frame bytes") expect (hex bytes))
    golden_hex golden_messages

let test_oversized_length_rejected_before_allocation () =
  (* A corrupted length field larger than max_payload must be rejected
     from the header alone — no attempt to read or allocate gigabytes. *)
  let b = Bytes.of_string (P.encode_request P.Ping) in
  Bytes.set_int32_le b 16 0x7FFF_FFFFl;
  expect_proto_error "4GiB length" (fun () ->
      P.request_of_string (Bytes.to_string b))

let suite =
  [
    Alcotest.test_case "requests round-trip" `Quick test_request_roundtrips;
    Alcotest.test_case "replies round-trip" `Quick test_reply_roundtrips;
    Alcotest.test_case "query config round-trips" `Quick test_config_roundtrip;
    Alcotest.test_case "truncation at every boundary" `Quick
      test_truncation_every_boundary;
    Alcotest.test_case "trailing bytes rejected" `Quick
      test_trailing_bytes_rejected;
    Alcotest.test_case "single-byte flips detected" `Quick
      test_single_byte_flips;
    Alcotest.test_case "header low-bit flips detected" `Quick
      test_low_bit_flips_in_header;
    Alcotest.test_case "valid CRC, hostile payload" `Quick
      test_valid_crc_bad_payload;
    Alcotest.test_case "oversized length rejected early" `Quick
      test_oversized_length_rejected_before_allocation;
    Alcotest.test_case "golden bytes pin every variant" `Quick test_golden_bytes;
  ]
