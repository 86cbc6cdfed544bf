(* CLI failure contract (DESIGN.md §11): every subcommand handed a
   missing, malformed or unreachable file/endpoint exits 1 with exactly
   one "psst: ..." line on stderr — no backtraces, no cmdliner internal
   error (exit 125), no exit 0 with an error buried in stdout. Runs the
   real binary; see the (deps ...) clause in test/dune. *)

(* dune runtest runs us in _build/default/test; dune exec from the
   workspace root. *)
let exe =
  let candidates =
    [ "../bin/psst.exe"; "_build/default/bin/psst.exe"; "bin/psst.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/psst.exe"

(* Run [args], return (exit code, stderr lines). stdout is discarded. *)
let run_psst args =
  let err = Filename.temp_file "psst_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe) args
          (Filename.quote err)
      in
      let code = Sys.command cmd in
      let ic = open_in err in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (code, List.rev !lines))

let check_dies what args =
  let code, stderr = run_psst args in
  Alcotest.(check int) (what ^ ": exit code") 1 code;
  (match stderr with
  | [ line ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr is one psst-prefixed line (got %S)" what line)
      true
      (String.length line > 6 && String.sub line 0 6 = "psst: ")
  | [] -> Alcotest.failf "%s: nothing on stderr" what
  | ls -> Alcotest.failf "%s: %d stderr lines, expected one" what (List.length ls))

let with_file contents f =
  let path = Filename.temp_file "psst_cli" ".pgdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let missing_path () =
  let p = Filename.temp_file "psst_cli" ".absent" in
  Sys.remove p;
  p

let test_missing_corpus () =
  let p = Filename.quote (missing_path ()) in
  check_dies "query on a missing corpus" (Printf.sprintf "query --input %s" p);
  check_dies "topk on a missing corpus" (Printf.sprintf "topk --input %s" p);
  check_dies "index on a missing corpus"
    (Printf.sprintf "index --input %s -o /dev/null" p)

let test_malformed_text_corpus () =
  with_file "this is not a corpus\nv banana\nend\n" (fun p ->
      check_dies "query on a malformed text corpus"
        (Printf.sprintf "query --input %s" (Filename.quote p)))

let test_truncated_binary_corpus () =
  (* The binary store magic followed by junk: recognised as a store file,
     then rejected by the checksummed reader. *)
  with_file "PSSTSTR\x00garbage-that-is-not-a-store" (fun p ->
      check_dies "query on a corrupt binary corpus"
        (Printf.sprintf "query --input %s" (Filename.quote p)))

let test_unreachable_server () =
  let p = Filename.quote (missing_path ()) in
  check_dies "client with no server"
    (Printf.sprintf "client --socket %s --ping --queries 0" p)

let test_endpoint_flag_validation () =
  check_dies "serve with neither --socket nor --port" "serve";
  check_dies "serve with both --socket and --port"
    "serve --socket /tmp/x.sock --port 7777";
  check_dies "client with neither --socket nor --port" "client --queries 0";
  check_dies "serve with an empty --socket path" "serve --socket ''";
  check_dies "client with --port 0" "client --queries 0 --port 0";
  check_dies "client with --port 70000" "client --queries 0 --port 70000";
  check_dies "client with an empty --host"
    "client --queries 0 --port 8080 --host ''"

(* Worker endpoint strings (tcp:HOST:PORT / unix:PATH) are validated
   eagerly and strictly: every malformed form dies with the uniform
   one-line failure at argument time, never as a later Unix_error from
   connect(2). The router parses its --worker list before touching any
   manifest or socket, so an invalid endpoint is guaranteed to die
   before anything binds. *)
let test_endpoint_string_matrix () =
  List.iter
    (fun (what, ep) ->
      check_dies
        (Printf.sprintf "router --worker %s (%s)" ep what)
        (Printf.sprintf "serve --port 7777 --role router --worker %s"
           (Filename.quote ep)))
    [
      ("no scheme separator", "localhost8080");
      ("unknown scheme", "ftp:host:80");
      ("unix with empty path", "unix:");
      ("tcp without port", "tcp:onlyhost");
      ("tcp with empty host", "tcp::8080");
      ("port 0", "tcp:host:0");
      ("port 65536", "tcp:host:65536");
      ("negative port", "tcp:host:-1");
      ("hex port", "tcp:host:0x50");
      ("underscore port", "tcp:host:8_0");
      ("trailing colon", "tcp:host:80:");
      ("empty port", "tcp:host:");
      ("port with trailing garbage", "tcp:host:80xyz");
    ]

(* Ingest flags (DESIGN.md §16): negative caps and quotas, empty tenant
   names, and a missing --add corpus all die with the uniform one-line
   failure — in particular --add validates its file before connecting,
   so a bad path never produces a connect error or a half-done RPC. *)
let test_ingest_flag_validation () =
  check_dies "serve with a negative ingest queue cap"
    "serve --socket /tmp/psst-cli-x.sock --ingest-queue-cap=-1";
  check_dies "serve with a negative tenant quota"
    "serve --socket /tmp/psst-cli-x.sock --tenant-quota=-1";
  check_dies "client with an empty --tenant"
    "client --queries 0 --socket /tmp/psst-cli-x.sock --tenant ''";
  let p = missing_path () in
  check_dies "client --add on a missing file"
    (Printf.sprintf "client --queries 0 --socket /tmp/psst-cli-x.sock --add %s"
       p);
  with_file "graphs 1\nnot a graph file\n" (fun path ->
      check_dies "client --add on a malformed corpus"
        (Printf.sprintf "client --queries 0 --socket /tmp/psst-cli-x.sock \
                         --add %s"
           path))

(* Corpus and workload sizes are checked before any figure runs: a
   zero-query point would print a table of zeros, and an empty corpus
   has no graph to extract a query from. *)
let test_experiment_size_validation () =
  check_dies "experiment with no queries" "experiment fig10 --queries 0";
  check_dies "experiment with negative queries" "experiment fig10 --queries=-2";
  check_dies "experiment with an empty corpus" "experiment fig10 --db-size 0";
  check_dies "experiment with a negative corpus"
    "experiment fig10 --db-size=-5"

(* A second server on a live Unix socket path must refuse to start
   rather than take the path over. *)
let test_serve_on_live_socket () =
  let path = missing_path () in
  let ds =
    Generator.generate { Generator.default_params with num_graphs = 4; seed = 3 }
  in
  let db = Query.index_database ds.Generator.graphs in
  let srv =
    Psst_server.start (Psst_server.default_config (Psst_proto.Unix_socket path)) db
  in
  Fun.protect
    ~finally:(fun () -> Psst_server.stop srv)
    (fun () ->
      check_dies "serve on a live socket"
        (Printf.sprintf "serve -n 4 --socket %s" (Filename.quote path));
      let c = Psst_client.connect (Psst_server.endpoint srv) in
      Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
          Psst_client.ping c))

let test_success_path_stays_zero () =
  let code, stderr = run_psst "generate -n 4 --seed 3" in
  Alcotest.(check int) "generate exits 0" 0 code;
  Alcotest.(check int) "generate prints nothing on stderr" 0
    (List.length stderr)

(* [psst index] builds on every core; the index it writes must equal an
   in-process one-domain build, section for section. The one section left
   out, [pmi.meta], records the wall-clock build time. *)
let test_index_matches_one_domain_build () =
  let ds =
    Generator.generate { Generator.default_params with num_graphs = 12; seed = 5 }
  in
  let corpus = Filename.temp_file "psst_cli" ".pgdb" in
  let via_cli = Filename.temp_file "psst_cli" ".psst" in
  let in_process = Filename.temp_file "psst_cli" ".psst" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ corpus; via_cli; in_process ])
    (fun () ->
      Pgraph_io.save_binary corpus ds.Generator.graphs;
      let code, _ =
        run_psst
          (Printf.sprintf "index --input %s -o %s" (Filename.quote corpus)
             (Filename.quote via_cli))
      in
      Alcotest.(check int) "psst index exits 0" 0 code;
      Query.save_database in_process
        (Query.index_database ~domains:1 (Pgraph_io.load_auto corpus));
      let sections path =
        Psst_store.read_file path ~kind:Psst_store.Database
        |> List.filter (fun (s : Psst_store.section) -> s.name <> "pmi.meta")
      in
      let a = sections via_cli and b = sections in_process in
      Alcotest.(check (list string)) "section names"
        (List.map (fun (s : Psst_store.section) -> s.name) b)
        (List.map (fun (s : Psst_store.section) -> s.name) a);
      List.iter2
        (fun (x : Psst_store.section) (y : Psst_store.section) ->
          Alcotest.(check bool) (x.name ^ " byte-identical") true
            (x.payload = y.payload))
        a b)

(* Run [args], return (exit code, stdout lines). stderr is discarded. *)
let run_psst_out args =
  let out = Filename.temp_file "psst_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >%s 2>/dev/null" (Filename.quote exe) args
             (Filename.quote out))
      in
      (code, In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n'))

let answers lines =
  List.filter (fun l -> String.length l > 10 && String.sub l 0 10 = "  answers:") lines

let contains line sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length line && (String.sub line i n = sub || at (i + 1)) in
  at 0

(* A binary [--input] corpus is only fingerprinted when an index of it is
   reused, and decoded when one is built: both must answer alike, a
   damaged file must still be refused, and an index of another corpus
   must be rebuilt. *)
let test_input_corpus_with_index () =
  let corpus seed =
    let path = Filename.temp_file "psst_cli" ".pgdb" in
    Pgraph_io.save_binary path
      (Generator.generate { Generator.default_params with num_graphs = 12; seed })
        .Generator.graphs;
    path
  in
  let c11 = corpus 11 and c12 = corpus 12 in
  let index = Filename.temp_file "psst_cli" ".psst" in
  let flipped = Filename.temp_file "psst_cli" ".pgdb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ c11; c12; index; flipped ])
    (fun () ->
      let q = Filename.quote in
      let code, _ = run_psst (Printf.sprintf "index --input %s -o %s" (q c11) (q index)) in
      Alcotest.(check int) "psst index exits 0" 0 code;
      let query c idx =
        let code, out =
          run_psst_out
            (Printf.sprintf "query --queries 3 --input %s%s" (q c)
               (match idx with Some i -> " --index " ^ q i | None -> ""))
        in
        Alcotest.(check int) "psst query exits 0" 0 code;
        out
      in
      let fresh = query c11 None and reused = query c11 (Some index) in
      Alcotest.(check bool) "the index is reused" true
        (List.exists (fun l -> contains l "index loaded") reused);
      Alcotest.(check (list string)) "reused index = fresh build" (answers fresh)
        (answers reused);
      (* One bit flipped inside the graphs payload: its frame CRC fails. *)
      let bytes = In_channel.with_open_bin c11 In_channel.input_all |> Bytes.of_string in
      let at = Bytes.length bytes - 40 in
      Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 1));
      Out_channel.with_open_bin flipped (fun oc -> Out_channel.output_bytes oc bytes);
      check_dies "query on a bit-flipped corpus with a reused index"
        (Printf.sprintf "query --input %s --index %s" (q flipped) (q index));
      let other = query c12 (Some index) in
      Alcotest.(check bool) "an index of another corpus is rebuilt" true
        (List.exists (fun l -> contains l "built for a different corpus; rebuilding") other);
      Alcotest.(check (list string)) "rebuilt index = fresh build"
        (answers (query c12 None)) (answers other))

(* [psst shard --index]: a reused index is mapped, and its shards copy
   the image's graph bytes; they equal, byte for byte, the shards of the
   run that built that index (the same build, so the same pmi.meta). An
   image with one flipped byte (in the graphs payload, in the graphs
   frame's CRC, in the PMI bounds or in the PMI postings) is rejected at
   load and rebuilt, as any damaged index is: the shards equal the built
   ones in every section but pmi.meta (the build's wall-clock time), so
   no shard file carries the damaged bytes. *)
let test_shard_reused_index () =
  let q = Filename.quote in
  let temp suffix = Filename.temp_file "psst_cli" suffix in
  let temp_dir () =
    let d = temp ".d" in
    Sys.remove d;
    Sys.mkdir d 0o700;
    d
  in
  let corpus = temp ".pgdb" and index = temp ".psst" and damaged = temp ".psst" in
  Sys.remove index;
  let dirs = List.init 6 (fun _ -> temp_dir ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
          Sys.rmdir d)
        dirs;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ corpus; index; damaged ])
    (fun () ->
      Pgraph_io.save_binary corpus
        (Generator.generate { Generator.default_params with num_graphs = 12; seed = 5 })
          .Generator.graphs;
      let shard idx dir =
        run_psst_out
          (Printf.sprintf "shard --input %s --index %s --shards 2 -o %s" (q corpus) (q idx)
             (q (Filename.concat dir "s.manifest")))
      in
      let file dir sid = Filename.concat dir (Printf.sprintf "s.shard%d" sid) in
      let bytes path = In_channel.with_open_bin path In_channel.input_all in
      let built, mapped, damage_dirs =
        match dirs with a :: b :: rest -> (a, b, rest) | _ -> assert false
      in
      let code, out = shard index built in
      Alcotest.(check int) "shard building the index exits 0" 0 code;
      Alcotest.(check bool) "the index is built" true
        (List.exists (fun l -> contains l "index built") out);
      let code, out = shard index mapped in
      Alcotest.(check int) "shard reusing the index exits 0" 0 code;
      Alcotest.(check bool) "the reused index is mapped" true
        (List.exists (fun l -> contains l "memory-mapped") out);
      List.iter
        (fun sid ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d: mapped copy = built encoding, byte for byte" sid)
            true
            (bytes (file built sid) = bytes (file mapped sid)))
        [ 0; 1 ];
      let sections path =
        Psst_store.read_file path ~kind:Psst_store.Database
        |> List.filter (fun (s : Psst_store.section) -> s.name <> "pmi.meta")
      in
      let span name =
        let _, start, stop =
          List.find (fun (n, _, _) -> n = name) (Psst_store.section_spans (bytes index))
        in
        (* The frame is name length (4), name, payload length (8), CRC (4),
           then the payload. *)
        let crc_at = start + 4 + String.length name + 8 in
        (crc_at, crc_at + 4, stop)
      in
      let middle name =
        let _, pos, stop = span name in
        (pos + stop) / 2
      in
      let graphs_crc, _, _ = span "graphs" in
      List.iter2
        (fun (what, at) dir ->
          let b = Bytes.of_string (bytes index) in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
          Out_channel.with_open_bin damaged (fun oc -> Out_channel.output_bytes oc b);
          let code, out = shard damaged dir in
          Alcotest.(check int) (what ^ ": shard exits 0") 0 code;
          Alcotest.(check bool) (what ^ ": rebuilt") true
            (List.exists (fun l -> contains l "rebuilding") out);
          List.iter
            (fun sid ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: shard %d = built shard but pmi.meta" what sid)
                true
                (sections (file built sid) = sections (file dir sid)))
            [ 0; 1 ])
        [
          ("flipped graphs payload byte", middle "graphs");
          ("flipped graphs frame CRC byte", graphs_crc);
          ("flipped bounds byte", middle "pmi.flat.bounds");
          ("flipped postings byte", middle "pmi.flat.postings");
        ]
        damage_dirs)

let suite =
  [
    Alcotest.test_case "missing files exit 1" `Quick test_missing_corpus;
    Alcotest.test_case "malformed text corpus exits 1" `Quick
      test_malformed_text_corpus;
    Alcotest.test_case "corrupt binary corpus exits 1" `Quick
      test_truncated_binary_corpus;
    Alcotest.test_case "unreachable server exits 1" `Quick
      test_unreachable_server;
    Alcotest.test_case "endpoint flag validation exits 1" `Quick
      test_endpoint_flag_validation;
    Alcotest.test_case "malformed endpoint strings exit 1" `Quick
      test_endpoint_string_matrix;
    Alcotest.test_case "ingest flag validation exits 1" `Quick
      test_ingest_flag_validation;
    Alcotest.test_case "experiment size validation exits 1" `Quick
      test_experiment_size_validation;
    Alcotest.test_case "healthy invocation exits 0" `Quick
      test_success_path_stays_zero;
    Alcotest.test_case "serve on a live socket exits 1" `Quick
      test_serve_on_live_socket;
    Alcotest.test_case "psst index = one-domain in-process build" `Quick
      test_index_matches_one_domain_build;
    Alcotest.test_case "--input corpus with a reused or stale index" `Quick
      test_input_corpus_with_index;
    Alcotest.test_case "shard: mapped --index = built, damage never copied" `Quick
      test_shard_reused_index;
  ]
