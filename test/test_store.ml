(* The persistent store (DESIGN.md §9): randomized round trips, bit-identical
   query answers from a loaded PMI, and a corruption suite — every truncation
   and byte flip must surface as [Psst_store.Store_error], never as
   [Failure], a segfault, or a silent success. *)

module S = Psst_store
module Prng = Psst_util.Prng

let with_tmp f =
  let path = Filename.temp_file "psst_store" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let lgraph_identical a b =
  Lgraph.vertex_labels a = Lgraph.vertex_labels b
  && Array.length (Lgraph.edges a) = Array.length (Lgraph.edges b)
  && Array.for_all2
       (fun (x : Lgraph.edge) (y : Lgraph.edge) ->
         x.u = y.u && x.v = y.v && x.label = y.label && x.id = y.id)
       (Lgraph.edges a) (Lgraph.edges b)

let pgraph_identical a b =
  lgraph_identical (Pgraph.skeleton a) (Pgraph.skeleton b)
  && Pgraph.uncertain_edges a = Pgraph.uncertain_edges b
  && List.length (Pgraph.factors a) = List.length (Pgraph.factors b)
  && List.for_all2
       (Factor.equal_approx ~eps:0.) (* bit-identical tables *)
       (Pgraph.factors a) (Pgraph.factors b)

(* --- primitives --- *)

let test_primitive_round_trip () =
  let e = S.encoder () in
  S.put_i64 e min_int;
  S.put_i64 e max_int;
  S.put_i64 e 0;
  S.put_f64 e 0.1;
  S.put_f64 e (-0.0);
  S.put_f64 e infinity;
  S.put_f64 e 1.0000000000000002;
  S.put_bool e true;
  S.put_bool e false;
  S.put_string e "";
  S.put_string e "hello\x00world";
  S.put_int_list e [ 3; 1; 4; 1; 5 ];
  S.put_i32 e 0xDEADBEEFl;
  let d = S.decoder (S.contents e) in
  Alcotest.(check bool) "min_int" true (S.get_i64 d = min_int);
  Alcotest.(check bool) "max_int" true (S.get_i64 d = max_int);
  Alcotest.(check int) "zero" 0 (S.get_i64 d);
  Alcotest.(check bool) "0.1 bits" true
    (Int64.bits_of_float (S.get_f64 d) = Int64.bits_of_float 0.1);
  Alcotest.(check bool) "-0.0 bits" true
    (Int64.bits_of_float (S.get_f64 d) = Int64.bits_of_float (-0.0));
  Alcotest.(check bool) "inf" true (S.get_f64 d = infinity);
  Alcotest.(check bool) "1+ulp" true (S.get_f64 d = 1.0000000000000002);
  Alcotest.(check bool) "true" true (S.get_bool d);
  Alcotest.(check bool) "false" false (S.get_bool d);
  Alcotest.(check string) "empty string" "" (S.get_string d);
  Alcotest.(check string) "nul string" "hello\x00world" (S.get_string d);
  Alcotest.(check (list int)) "int list" [ 3; 1; 4; 1; 5 ] (S.get_int_list d);
  Alcotest.(check int32) "i32" 0xDEADBEEFl (S.get_i32 d);
  S.expect_end d

let test_crc32_known_vectors () =
  (* Standard check values for the IEEE CRC-32. *)
  Alcotest.(check int32) "check string" 0xCBF43926l
    (Psst_util.Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Psst_util.Crc32.digest "");
  let whole = Psst_util.Crc32.digest "123456789" in
  let incr =
    Psst_util.Crc32.update
      (Psst_util.Crc32.update 0l "12345" ~pos:0 ~len:5)
      "6789" ~pos:0 ~len:4
  in
  Alcotest.(check int32) "incremental = whole" whole incr

(* The bytewise table loop over [int32] — the CRC before slicing-by-8 —
   as the oracle of the fast one. *)
let crc32_reference crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let bigbytes_of_string s =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (Bigarray.Array1.set b) s;
  b

(* Random strings (sometimes past 64 KiB, the chunk the mapped CRC once
   copied through), a random seed CRC, a random span and a random split
   of it into chained [update] calls: the string and the bigarray entry
   must both equal the bytewise reference. *)
let prop_crc32_matches_reference =
  let gen =
    let open QCheck.Gen in
    let* n = frequency [ (4, int_bound 300); (1, int_range 65_000 70_000) ] in
    let* s = string_size ~gen:char (return n) in
    let* pos = int_bound n in
    let* len = int_bound (n - pos) in
    let* cuts = list_size (int_bound 4) (int_bound len) in
    let* seed = ui32 in
    return (s, pos, len, List.sort_uniq compare cuts, seed)
  in
  QCheck.Test.make ~name:"crc32 = bytewise reference (spans, chains, bigarray)"
    ~count:300
    (QCheck.make gen ~print:(fun (s, pos, len, cuts, seed) ->
         Printf.sprintf "%d bytes, pos %d, len %d, cuts [%s], seed %08lx"
           (String.length s) pos len
           (String.concat "; " (List.map string_of_int cuts))
           seed))
    (fun (s, pos, len, cuts, seed) ->
      let expect = crc32_reference seed s ~pos ~len in
      let big = bigbytes_of_string s in
      let chained update =
        let stops = cuts @ [ len ] in
        fst
          (List.fold_left
             (fun (crc, at) stop ->
               (update crc ~pos:(pos + at) ~len:(stop - at), stop))
             (seed, 0) stops)
      in
      Psst_util.Crc32.update seed s ~pos ~len = expect
      && Psst_util.Crc32.update_bigbytes seed big ~pos ~len = expect
      && chained (fun crc -> Psst_util.Crc32.update crc s) = expect
      && chained (fun crc -> Psst_util.Crc32.update_bigbytes crc big) = expect)

(* A mapped section past 64 KiB: its payload CRC, read in place, is the
   digest of the payload string, and the file's frame checks pass. *)
let test_mapped_payload_crc () =
  let path = Filename.temp_file "psst_crc" ".psst" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let e = S.encoder () in
      S.put_string e (String.init 70_001 (fun i -> Char.chr ((i * 131) land 0xff)));
      let sec = S.section "big" e in
      S.write_file path ~kind:S.Pgdb [ sec ];
      let m = S.map_file path ~kind:S.Pgdb in
      Fun.protect
        ~finally:(fun () -> S.mapped_release m)
        (fun () ->
          Alcotest.(check int32) "mapped payload CRC = digest"
            (Psst_util.Crc32.digest sec.S.payload)
            (S.mapped_payload_crc m "big");
          Alcotest.(check int) "verified view" (String.length sec.S.payload)
            (Bigarray.Array1.dim (S.mapped_bytes m "big"))))

(* --- graph / pgraph round trips --- *)

let test_lgraph_round_trip () =
  let rng = Prng.make 2024 in
  for i = 0 to 199 do
    let g =
      if i mod 3 = 0 then Tgen.random_graph rng ~n:(1 + Prng.int rng 9) ~m:(Prng.int rng 12) ~vl:4 ~el:3
      else Tgen.random_connected_graph rng ~n:(2 + Prng.int rng 8) ~extra:(Prng.int rng 5) ~vl:4 ~el:3
    in
    let e = S.encoder () in
    S.put_lgraph e g;
    let d = S.decoder (S.contents e) in
    let g' = S.get_lgraph d in
    S.expect_end d;
    if not (lgraph_identical g g') then
      Alcotest.failf "lgraph %d not identical after round trip" i
  done

let test_pgraph_round_trip () =
  let rng = Prng.make 4711 in
  for i = 0 to 199 do
    let g = Tgen.random_pgraph rng ~n:(3 + Prng.int rng 6) ~extra:(Prng.int rng 4) ~vl:3 ~el:2 in
    let e = S.encoder () in
    Pgraph_io.encode_binary e g;
    let d = S.decoder (S.contents e) in
    let g' = Pgraph_io.decode_binary d in
    S.expect_end d;
    if not (pgraph_identical g g') then
      Alcotest.failf "pgraph %d not identical after round trip" i;
    (* Bit-identical factors imply bit-identical marginals. *)
    List.iter
      (fun eid ->
        if Pgraph.edge_marginal g eid <> Pgraph.edge_marginal g' eid then
          Alcotest.failf "pgraph %d: marginal of edge %d drifted" i eid)
      (Pgraph.uncertain_edges g)
  done

let test_pgdb_file_round_trip () =
  let rng = Prng.make 99 in
  let graphs =
    Array.init 50 (fun _ ->
        Tgen.random_pgraph rng ~n:(3 + Prng.int rng 5) ~extra:(Prng.int rng 3) ~vl:3 ~el:2)
  in
  with_tmp (fun path ->
      Pgraph_io.save_binary path graphs;
      let loaded = Pgraph_io.load_binary path in
      Alcotest.(check int) "count" 50 (Array.length loaded);
      Array.iteri
        (fun i g ->
          if not (pgraph_identical g loaded.(i)) then
            Alcotest.failf "graph %d not identical" i)
        graphs;
      (* load_auto sniffs binary... *)
      Alcotest.(check int) "auto binary" 50 (Array.length (Pgraph_io.load_auto path));
      (* ...and still reads text archives. *)
      Pgraph_io.save path graphs;
      Alcotest.(check int) "auto text" 50 (Array.length (Pgraph_io.load_auto path)))

let test_db_fingerprint_sensitivity () =
  let rng = Prng.make 7 in
  let graphs =
    Array.init 6 (fun _ -> Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:3 ~el:2)
  in
  let fp = Pgraph_io.db_fingerprint graphs in
  Alcotest.(check int32) "deterministic" fp (Pgraph_io.db_fingerprint graphs);
  let shorter = Array.sub graphs 0 5 in
  Alcotest.(check bool) "prefix differs" true
    (fp <> Pgraph_io.db_fingerprint shorter);
  let swapped = Array.copy graphs in
  swapped.(0) <- graphs.(1);
  swapped.(1) <- graphs.(0);
  Alcotest.(check bool) "order matters" true
    (fp <> Pgraph_io.db_fingerprint swapped)

(* --- features --- *)

let small_dataset seed n =
  Generator.generate
    { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
      max_vertices = 10; motif_edges = 3 }

open Tgen.Fixtures

let test_feature_round_trip () =
  let ds = small_dataset 5 8 in
  let skeletons = Array.map Pgraph.skeleton ds.graphs in
  let features = Selection.select skeletons small_mining in
  Alcotest.(check bool) "some features mined" true (List.length features > 0);
  List.iter
    (fun ({ feature = f; _ } : Selection.mined) ->
      let e = S.encoder () in
      Selection.encode_feature e f;
      let d = S.decoder (S.contents e) in
      let f' = Selection.decode_feature d in
      S.expect_end d;
      Alcotest.(check string) "key" f.key f'.key;
      if not (lgraph_identical f.graph f'.graph) then
        Alcotest.fail "feature graph not identical")
    features

(* --- PMI and whole-database round trips --- *)

let entry_identical (a : Pmi.entry) (b : Pmi.entry) =
  Int64.bits_of_float a.Bounds.lower = Int64.bits_of_float b.Bounds.lower
  && Int64.bits_of_float a.upper = Int64.bits_of_float b.upper
  && Int64.bits_of_float a.lower_safe = Int64.bits_of_float b.lower_safe
  && Int64.bits_of_float a.upper_safe = Int64.bits_of_float b.upper_safe
  && a.embeddings = b.embeddings && a.cuts = b.cuts

let check_pmi_identical pmi pmi' =
  Alcotest.(check int) "features" (Pmi.num_features pmi) (Pmi.num_features pmi');
  Alcotest.(check int) "graphs" (Pmi.num_graphs pmi) (Pmi.num_graphs pmi');
  Alcotest.(check bool) "config" true (Pmi.config pmi = Pmi.config pmi');
  for fi = 0 to Pmi.num_features pmi - 1 do
    for gi = 0 to Pmi.num_graphs pmi - 1 do
      match Pmi.lookup pmi ~feature:fi ~graph:gi,
            Pmi.lookup pmi' ~feature:fi ~graph:gi with
      | None, None -> ()
      | Some a, Some b when entry_identical a b -> ()
      | _ -> Alcotest.failf "entry (%d,%d) differs after round trip" fi gi
    done
  done

let counters (s : Query.stats) =
  ( s.relaxed_count, s.structural_candidates, s.prob_candidates,
    s.accepted_by_bounds, s.pruned_by_bounds )

let check_same_answers ds db db' =
  let rng = Prng.make 1234 in
  let config = { Query.default_config with epsilon = 0.4; delta = 1 } in
  for trial = 1 to 4 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let a = Query.run db q config in
    let b = Query.run db' q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d answers" trial)
      a.Query.answers b.Query.answers;
    if counters a.stats <> counters b.stats then
      Alcotest.failf "trial %d: pruning counters differ" trial
  done

(* The PMI of a saved image, loaded eagerly and mapped zero-copy, against
   the index that was saved. *)
let test_pmi_save_load_bit_identical () =
  let ds, db = make_db 11 10 in
  with_tmp (fun path ->
      Query.save_database path db;
      List.iter
        (fun mmap ->
          let pmi' = (Query.load_database ~mmap path).Query.pmi in
          check_pmi_identical db.Query.pmi pmi';
          let db' = { db with Query.pmi = pmi' } in
          check_same_answers ds db db')
        [ false; true ])

let test_database_save_load_bit_identical () =
  let ds, db = make_db 23 10 in
  with_tmp (fun path ->
      (match Query.save_database ~flat:false path db with
      | () -> Alcotest.fail "the retired classic layout (~flat:false) was written"
      | exception Invalid_argument _ -> ());
      Query.save_database path db;
      let db' = Query.load_database path in
      Alcotest.(check int) "graphs" (Corpus.length db.Query.graphs)
        (Corpus.length db'.Query.graphs);
      Array.iteri
        (fun i g ->
          if not (pgraph_identical g (Corpus.get db'.Query.graphs i)) then
            Alcotest.failf "stored graph %d differs" i)
        (Corpus.to_array db.Query.graphs);
      Alcotest.(check int) "feature count"
        (List.length db.Query.features)
        (List.length db'.Query.features);
      check_pmi_identical db.Query.pmi db'.Query.pmi;
      let qs =
        let rng = Prng.make 24 in
        List.init 4 (fun _ -> fst (Generator.extract_query rng ds ~edges:3))
      in
      Alcotest.(check (list (list int))) "structural candidates"
        (Tgen.structural_candidates db qs)
        (Tgen.structural_candidates db' qs);
      check_same_answers ds db db')

(* --- rejection: version skew, kind and fingerprint mismatches --- *)

let expect_store_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted instead of raising Store_error" what
  | exception S.Store_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: raised %s instead of Store_error" what
      (Printexc.to_string e)

(* Both loaders, eager and mapped, must refuse. *)
let expect_load_error what path =
  List.iter
    (fun mmap ->
      expect_store_error
        (Printf.sprintf "%s (mmap %b)" what mmap)
        (fun () -> Query.load_database ~mmap path))
    [ false; true ]

let test_version_skew_rejected () =
  let _, db = make_db 31 8 in
  with_tmp (fun path ->
      Query.save_database path db;
      let sections = S.read_file path ~kind:S.Database in
      S.write_file ~version:(S.format_version + 1) path ~kind:S.Database sections;
      expect_load_error "future version" path)

let test_kind_mismatch_rejected () =
  let ds, db = make_db 37 6 in
  with_tmp (fun path ->
      Pgraph_io.save_binary path ds.graphs;
      expect_load_error "pgdb loaded as database" path;
      Query.save_database path db;
      expect_store_error "database loaded as pgdb" (fun () ->
          Pgraph_io.load_binary path))

(* A file stitched from two stores: the graphs (and their offset table) of
   one, every other section of another. Only the fingerprint the PMI
   stored can tell, and the eager loader re-proves it; a graph count that
   disagrees is refused by both loaders. *)
let test_fingerprint_mismatch_rejected () =
  let _, db = make_db 41 8 in
  let stitched path ~graphs_of =
    with_tmp (fun other ->
        Query.save_database other graphs_of;
        let donor = S.read_file other ~kind:S.Database in
        Query.save_database path db;
        S.write_file path ~kind:S.Database
          (List.map
             (fun (s : S.section) ->
               if s.S.name = "graphs" || s.S.name = "graphs.offsets" then
                 { s with S.payload = S.find_section donor s.S.name }
               else s)
             (S.read_file path ~kind:S.Database)))
  in
  with_tmp (fun path ->
      stitched path ~graphs_of:(snd (make_db 999 8));
      (match Query.load_database path with
      | _ -> Alcotest.fail "different corpus: accepted"
      | exception S.Store_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "different corpus: fingerprint refused (%s)" msg)
          true
          (String.starts_with ~prefix:"database fingerprint mismatch" msg));
      stitched path ~graphs_of:(snd (make_db 43 5));
      expect_load_error "different size" path)

(* An index in the retired classic layout (a "structural" section) is
   refused by every loader, with a message that names the layout and says
   to re-index. *)
let test_retired_layout_refused () =
  let _, db = make_db 47 6 in
  with_tmp (fun path ->
      Query.save_database path db;
      let classic = S.encoder () in
      S.put_i64 classic 0;
      S.write_file path ~kind:S.Database
        (List.concat_map
           (fun (s : S.section) ->
             if s.S.name = "graphs.offsets" then [ s; S.section "structural" classic ]
             else [ s ])
           (S.read_file path ~kind:S.Database));
      List.iter
        (fun (salvage, mmap) ->
          match Query.load_database ~salvage ~mmap path with
          | _ -> Alcotest.failf "classic layout accepted (salvage %b, mmap %b)" salvage mmap
          | exception S.Store_error msg ->
            let has sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "message names the layout (%s)" msg)
              true
              (has "retired classic" && has "re-index"))
        [ (false, false); (false, true); (true, false); (true, true) ])

let test_missing_and_garbage_files () =
  expect_load_error "missing file" "/nonexistent/psst.db";
  with_tmp (fun path ->
      write_bytes path "";
      expect_store_error "empty file" (fun () -> Pgraph_io.load_binary path);
      write_bytes path "this is not a store file at all.............";
      expect_store_error "garbage file" (fun () -> Pgraph_io.load_binary path))

(* --- corruption: truncations and byte flips --- *)

(* Sample positions inside [start, stop): the framing fields live at the
   front, so always hit the first bytes, plus a spread through the payload. *)
let sample_positions start stop =
  let head = List.init (min 24 (stop - start)) (fun i -> start + i) in
  let spread =
    List.init 7 (fun i -> start + ((stop - start - 1) * (i + 1) / 8))
  in
  List.sort_uniq compare (head @ spread @ [ stop - 1 ])

let test_corruption_detected () =
  let _, db = make_db 53 8 in
  with_tmp (fun path ->
      Query.save_database path db;
      let original = read_bytes path in
      let spans = S.section_spans original in
      Alcotest.(check (list string))
        "image section layout"
        [
          "graphs"; "graphs.offsets"; "pmi.config"; "pmi.db"; "pmi.patterns";
          "pmi.flat.dir"; "pmi.flat.postings"; "pad.pmi.flat.bounds";
          "pmi.flat.bounds"; "pmi.meta";
        ]
        (List.map (fun (n, _, _) -> n) spans);
      let reload () = ignore (Query.load_database path) in
      (* Sanity: the pristine file loads. *)
      reload ();
      (* Truncate at every section boundary, inside every section, and at
         a few header offsets. *)
      let boundaries =
        0 :: 1 :: (S.header_bytes - 1) :: S.header_bytes
        :: List.concat_map
             (fun (_, start, stop) -> [ start; start + 3; stop - 1; stop ])
             spans
      in
      List.iter
        (fun cut ->
          if cut < String.length original then begin
            write_bytes path (String.sub original 0 cut);
            expect_store_error (Printf.sprintf "truncated at %d" cut) reload
          end)
        boundaries;
      (* Flip bytes: the whole header, and a sample of every section
         (framing fields, payload start/middle/end). *)
      let positions =
        List.init S.header_bytes Fun.id
        @ List.concat_map (fun (_, start, stop) -> sample_positions start stop) spans
      in
      List.iter
        (fun pos ->
          let corrupt = Bytes.of_string original in
          Bytes.set corrupt pos
            (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
          write_bytes path (Bytes.to_string corrupt);
          expect_store_error (Printf.sprintf "byte %d flipped" pos) reload)
        positions;
      (* Restore and confirm the error path never cached anything. *)
      write_bytes path original;
      reload ())

(* --- Corpus.append on a mapped corpus (ingest on a zero-copy load) --- *)

(* Appending to an mmap-backed corpus materialises it first; the result
   must be indistinguishable from appending to an eager load of the same
   file — same length, bit-identical graphs, same fingerprint — whether
   the mapping was still lazy or partially / fully decoded when the
   append happened. *)
let test_mapped_append_differential () =
  let ds = small_dataset 171 9 in
  let extra = (small_dataset 173 4).Generator.graphs in
  let db =
    Query.index_database ~mining:small_mining ~bounds:fast_bounds ds.graphs
  in
  with_tmp (fun path ->
      Query.save_database path db;
      let eager = (Query.load_database path).Query.graphs in
      let reference = Corpus.append eager extra in
      List.iter
        (fun (label, prime) ->
          let mapped = (Query.load_database ~mmap:true path).Query.graphs in
          (* Decode none / some / all graphs off the map before the
             append, so memoisation state cannot leak into the result. *)
          for i = 0 to prime - 1 do
            ignore (Corpus.get mapped i)
          done;
          let appended = Corpus.append mapped extra in
          Alcotest.(check int)
            (label ^ ": length")
            (Corpus.length reference) (Corpus.length appended);
          for i = 0 to Corpus.length reference - 1 do
            if not (pgraph_identical (Corpus.get reference i) (Corpus.get appended i))
            then Alcotest.failf "%s: graph %d differs" label i
          done;
          Alcotest.(check int32)
            (label ^ ": fingerprint")
            (Corpus.fingerprint reference)
            (Corpus.fingerprint appended);
          (* The source mapping is untouched: still its original length,
             still serving every graph. *)
          Alcotest.(check int)
            (label ^ ": source length unchanged")
            (Corpus.length eager) (Corpus.length mapped);
          if not (pgraph_identical (Corpus.get eager 0) (Corpus.get mapped 0))
          then Alcotest.failf "%s: source graph 0 changed" label)
        [ ("lazy", 0); ("partially decoded", 4); ("fully decoded", 9) ])

let test_materialise_is_identity_on_eager () =
  let ds = small_dataset 179 5 in
  let c = Corpus.of_array ds.Generator.graphs in
  let m = Corpus.materialise c in
  Alcotest.(check int32) "same fingerprint" (Corpus.fingerprint c)
    (Corpus.fingerprint m);
  Alcotest.(check int) "same length" (Corpus.length c) (Corpus.length m);
  (* Appending an empty array is a no-op in content. *)
  let a = Corpus.append c [||] in
  Alcotest.(check int32) "append [||] keeps fingerprint"
    (Corpus.fingerprint c) (Corpus.fingerprint a)

(* --- flat image: mmap vs eager differential --- *)

(* Same queries, same answers, same pruning counters — the built index vs
   the eager decode vs the zero-copy mmap of its image, for a
   single-domain and a 4-domain index build. Each comparison runs twice
   on the same mapped database: first cold (every graph decode hits the
   mapping) and then warm (the corpus cache is populated), so memoisation
   cannot change answers. *)
let test_flat_mmap_differential () =
  List.iter
    (fun domains ->
      let ds = small_dataset (100 + domains) 10 in
      let db =
        Query.index_database ~mining:small_mining ~bounds:fast_bounds ~domains
          ds.graphs
      in
      with_tmp (fun path ->
          Query.save_database path db;
          let db_flat = Query.load_database path in
          let db_mmap = Query.load_database ~mmap:true path in
          Alcotest.(check int32)
            (Printf.sprintf "fingerprint (%d domains)" domains)
            (Corpus.fingerprint db.Query.graphs)
            (Corpus.fingerprint db_mmap.Query.graphs);
          check_same_answers ds db db_flat;
          check_same_answers ds db db_mmap (* cold: decodes off the map *);
          check_same_answers ds db db_mmap (* warm: memoised corpus *);
          check_pmi_identical db.Query.pmi db_mmap.Query.pmi))
    [ 1; 4 ]

(* --- golden flat-image digest ---

   Every section of a saved database image, in file order, by name and
   the CRC-32 of its payload, hashed. "pmi.meta" is left out: it holds the
   wall-clock seconds of the PMI build. A change to the store codecs that
   moves a single byte of the image changes the digest. The same database
   built on 1 and on 3 domains writes the same image; the two files of a
   2-way shard split are pinned by a second digest. *)

let golden_image_digest = "ff2b6de5e8b83c97e1b9845e1d362b38"
let golden_shard_digest = "a4c755ade490ec743b0c0fa90a7cf5ab"

let image_digest paths =
  let b = Buffer.create 1024 in
  List.iter
    (fun path ->
      List.iter
        (fun (s : S.section) ->
          if s.S.name <> "pmi.meta" then
            Printf.bprintf b "%s %08lx\n" s.S.name
              (Psst_util.Crc32.digest s.S.payload))
        (S.read_file path ~kind:S.Database))
    paths;
  Digest.to_hex (Digest.string (Buffer.contents b))

let with_tmp_dir f =
  let dir = Filename.temp_file "psst_store_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_golden_image_digest () =
  let ds = small_dataset 2019 12 in
  let index domains =
    Query.index_database ~mining:small_mining ~bounds:fast_bounds ~domains
      ds.graphs
  in
  Alcotest.(check bool) "the image holds PMI entries" true
    (Pmi.filled_entries (index 1).Query.pmi > 0);
  List.iter
    (fun domains ->
      with_tmp (fun path ->
          Query.save_database path (index domains);
          Alcotest.(check string)
            (Printf.sprintf "image digest, %d domains" domains)
            golden_image_digest (image_digest [ path ])))
    [ 1; 3 ];
  (* The split's source: the built database, and its saved image loaded
     eagerly and mapped (whose shards copy the mapped graph bytes). *)
  let shard_digest what db =
    with_tmp_dir (fun dir ->
        let manifest_path = Filename.concat dir "golden.manifest" in
        let m =
          Psst_shard.split_to_files ~manifest_path db
            (Psst_shard.plan_even ~parts:2 ~total:12)
        in
        Alcotest.(check string) ("shard image digest, " ^ what) golden_shard_digest
          (image_digest
             (List.map
                (fun (e : Psst_shard.entry) -> Filename.concat dir e.Psst_shard.path)
                m.Psst_shard.entries)))
  in
  shard_digest "built" (index 1);
  with_tmp (fun path ->
      Query.save_database path (index 1);
      shard_digest "eager load" (Query.load_database path);
      shard_digest "mapped load" (Query.load_database ~mmap:true path))

(* --- flat image: hostile inputs --- *)

(* Decode every lazily-validated region of a mapped database: all graphs
   (structural decode) and every PMI entry (each lookup range-checks the
   counts it reads, the embedding counts the structural filter walks
   among them). Cheap, and it touches everything a query could. *)
let mmap_probe path =
  let db = Query.load_database ~mmap:true path in
  for gi = 0 to Corpus.length db.Query.graphs - 1 do
    ignore (Corpus.get db.Query.graphs gi)
  done;
  for fi = 0 to Pmi.num_features db.Query.pmi - 1 do
    for gi = 0 to Pmi.num_graphs db.Query.pmi - 1 do
      ignore (Pmi.lookup db.Query.pmi ~feature:fi ~graph:gi)
    done
  done

let test_flat_corruption_detected () =
  let ds, db = make_db 67 8 in
  with_tmp (fun path ->
      Query.save_database path db;
      let original = read_bytes path in
      let spans = S.section_spans original in
      (* Pristine image passes the full probe and the eager load. *)
      mmap_probe path;
      ignore (Query.load_database path);
      (* Truncations anywhere must fail cleanly at open (the directory
         walk or a missing required section catches them all). *)
      let boundaries =
        0 :: 1 :: (S.header_bytes - 1) :: S.header_bytes
        :: List.concat_map
             (fun (_, start, stop) -> [ start; start + 3; stop - 1; stop ])
             spans
      in
      List.iter
        (fun cut ->
          if cut < String.length original then begin
            write_bytes path (String.sub original 0 cut);
            expect_store_error
              (Printf.sprintf "truncated at %d" cut)
              (fun () -> mmap_probe path)
          end)
        boundaries;
      (* Byte flips: the eager loader checksums every payload, so it must
         always refuse. The mapped loader defers bulk checksums
         (DESIGN.md §15) — a flip may surface as Store_error at open or
         on access, or go structurally unnoticed in a lazily-read payload
         — but it must never escape the typed error space (no
         Invalid_argument, no Failure, no crash). *)
      let positions =
        List.init S.header_bytes Fun.id
        @ List.concat_map
            (fun (_, start, stop) -> sample_positions start stop)
            spans
      in
      List.iter
        (fun pos ->
          let corrupt = Bytes.of_string original in
          Bytes.set corrupt pos
            (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
          write_bytes path (Bytes.to_string corrupt);
          expect_store_error
            (Printf.sprintf "eager load, byte %d flipped" pos)
            (fun () -> ignore (Query.load_database path));
          match mmap_probe path with
          | () -> ()
          | exception S.Store_error _ -> ()
          | exception e ->
            Alcotest.failf "mmap probe, byte %d flipped: escaped as %s" pos
              (Printexc.to_string e))
        positions;
      (* Restore: nothing was cached across the error paths. *)
      write_bytes path original;
      mmap_probe path;
      let db' = Query.load_database ~mmap:true path in
      check_same_answers ds db db';
      (* A damaged postings section fails the mapping at open; the salvage
         + mmap fallback still yields a working (eager) database. *)
      let _, start, stop =
        List.find (fun (n, _, _) -> n = "pmi.flat.postings") spans
      in
      let corrupt = Bytes.of_string original in
      let pos = (start + stop) / 2 in
      Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
      write_bytes path (Bytes.to_string corrupt);
      expect_store_error "damaged postings refused under mmap" (fun () ->
          Query.load_database ~mmap:true path);
      let db' = Query.load_database ~salvage:true ~mmap:true path in
      check_same_answers ds db db')

(* The eager loader range-checks every bound count field at open, not at
   first lookup: an image whose bounds are CRC-valid but hold an
   impossible count is refused whole. The mapped loader defers the same
   check to the lookup that reads the record. *)
let test_bad_bound_counts_rejected () =
  let _, db = make_db 71 8 in
  with_tmp (fun path ->
      Query.save_database path db;
      let sections =
        List.filter
          (fun (s : S.section) -> not (String.starts_with ~prefix:"pad." s.S.name))
          (S.read_file path ~kind:S.Database)
      in
      let filled = Pmi.filled_entries db.Query.pmi in
      Alcotest.(check bool) "some entries" true (filled > 0);
      List.iter
        (fun (field, v) ->
          let rewritten =
            List.map
              (fun (s : S.section) ->
                if s.S.name <> "pmi.flat.bounds" then s
                else begin
                  let b = Bytes.of_string s.S.payload in
                  (* the last record, so the first features stay readable *)
                  Bytes.set_int64_le b
                    ((8 * ((6 * (filled - 1)) + field)))
                    (Int64.bits_of_float v);
                  { s with S.payload = Bytes.to_string b }
                end)
              sections
          in
          S.write_file path ~kind:S.Database
            (S.align_payloads ~targets:[ "pmi.flat.bounds" ] rewritten);
          let what = Printf.sprintf "count field %d = %h" field v in
          expect_store_error (what ^ ", eager load") (fun () ->
              Query.load_database path);
          expect_store_error (what ^ ", mapped lookup") (fun () -> mmap_probe path))
        [ (4, 0.5); (4, -1.); (4, Float.nan); (5, 0.5); (5, -1.); (5, Float.nan) ])

(* A database with no mined features (three vertexless graphs) keeps every
   graph on every path: the index has no feature rows, so its graph count
   must not be read off them. *)
let test_zero_feature_database () =
  let g = Pgraph_io.of_string "pgraph\nend\n" in
  let db = Query.index_database [| g; g; g |] in
  Alcotest.(check int) "no features" 0 (List.length db.Query.features);
  let q = Pgraph.skeleton g in
  let check what (db : Query.database) =
    let r = Query.run db q Query.default_config in
    Alcotest.(check (list int)) (what ^ ": answers") [ 0; 1; 2 ] r.Query.answers;
    Alcotest.(check int)
      (what ^ ": structural candidates")
      3 r.Query.stats.structural_candidates
  in
  check "built" db;
  with_tmp (fun path ->
      Query.save_database path db;
      check "eager load" (Query.load_database path);
      check "mapped load" (Query.load_database ~mmap:true path));
  let whole = Psst_shard.sub_database db ~base:0 ~count:3 in
  check "sub_database" whole;
  check "merge"
    (Psst_shard.merge
       [
         Psst_shard.sub_database whole ~base:0 ~count:1;
         Psst_shard.sub_database whole ~base:1 ~count:2;
       ])

(* --- Pgraph_io JPT row validation (regression) --- *)

let test_jpt_row_sum_rejected () =
  (* Grossly over unity: previously rejected by Pgraph.make's generic
     chain-consistency error; now rejected up front with a diagnostic. *)
  (try
     ignore
       (Pgraph_io.of_string "pgraph\nv 0\nv 1\ne 0 1 0\nfactor 0 0.3 0.9\nend\n");
     Alcotest.fail "row sum 1.2 accepted"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       (Printf.sprintf "diagnostic names the row (%s)" msg)
       true
       (String.length msg > 0
       && String.sub msg 0 9 = "Pgraph_io"
       && (let has_sub needle =
             let n = String.length needle and m = String.length msg in
             let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
             go 0
           in
           has_sub "summing")));
  (* Regression: 1 + 5e-7 is within Pgraph.make's 1e-6 chain tolerance and
     used to be accepted, silently producing probabilities > 1 in Exact. *)
  (try
     ignore
       (Pgraph_io.of_string
          "pgraph\nv 0\nv 1\ne 0 1 0\nfactor 0 0.3 0.7000005\nend\n");
     Alcotest.fail "row sum 1 + 5e-7 accepted"
   with Invalid_argument _ -> ());
  (* A conditional factor with one over-unity row among valid ones. *)
  (try
     ignore
       (Pgraph_io.of_string
          ("pgraph\nv 0\nv 1\nv 2\ne 0 1 0\ne 1 2 0\n"
          ^ "factor 0 0.5 0.5\nfactor 0,1 0.2 0.9 0.5 0.5\nend\n"));
     Alcotest.fail "over-unity conditional row accepted"
   with Invalid_argument _ -> ());
  (* Valid rows still parse. *)
  let g =
    Pgraph_io.of_string "pgraph\nv 0\nv 1\ne 0 1 0\nfactor 0 0.3 0.7\nend\n"
  in
  Tgen.check_close "marginal" 0.7 (Pgraph.edge_marginal g 0)

let test_jpt_row_sum_rejected_binary () =
  (* Hand-craft a binary pgdb whose single factor row sums to 1.2: the
     binary reader must reject it with Store_error, not Invalid_argument. *)
  let graph_payload =
    let e = S.encoder () in
    (* one graph: 2 vertices, 1 edge, factor over edge 0 with table [0.3;0.9] *)
    S.put_i64 e 1;
    S.put_lgraph e (Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ]);
    S.put_i64 e 1;
    (* one factor *)
    S.put_int_list e [ 0 ];
    S.put_f64 e 0.3;
    S.put_f64 e 0.9;
    e
  in
  let meta = S.encoder () in
  S.put_i64 meta 1;
  with_tmp (fun path ->
      S.write_file path ~kind:S.Pgdb
        [ S.section "meta" meta; S.section "graphs" graph_payload ];
      expect_store_error "binary over-unity row" (fun () ->
          Pgraph_io.load_binary path))

(* --- ingest delta files (DESIGN.md §16, §17) --- *)

(* A delta side file is a regular sectioned store file, so it inherits
   the whole corruption discipline above. Pin the section layout the
   replication stream depends on, and that [Psst_ingest.delta_bytes]
   checksum-verifies the bytes before they leave the process — a
   primary's local disk rot is caught at the source, never streamed to
   a standby. Truncate at every byte boundary and flip every byte: the
   file is tiny, so the sweep is exhaustive. *)
let test_delta_file_checksummed () =
  let _, db = make_db 57 6 in
  with_tmp (fun path ->
      Query.save_database path db;
      let _, chain = Psst_ingest.load path in
      let extra = (small_dataset 59 2).Generator.graphs in
      Psst_ingest.save_delta chain ~prev_count:6 extra;
      let dpath = Psst_ingest.delta_path path 1 in
      Fun.protect
        ~finally:(fun () -> try Sys.remove dpath with Sys_error _ -> ())
        (fun () ->
          let original = read_bytes dpath in
          Alcotest.(check (list string))
            "delta section layout"
            [ "delta.meta"; "delta.graphs" ]
            (List.map (fun (n, _, _) -> n) (S.section_spans original));
          Alcotest.(check string) "pristine bytes pass verification" original
            (Psst_ingest.delta_bytes chain ~seq:1);
          for cut = 0 to String.length original - 1 do
            write_bytes dpath (String.sub original 0 cut);
            expect_store_error
              (Printf.sprintf "delta truncated at %d" cut)
              (fun () -> Psst_ingest.delta_bytes chain ~seq:1)
          done;
          for pos = 0 to String.length original - 1 do
            let corrupt = Bytes.of_string original in
            Bytes.set corrupt pos
              (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xFF));
            write_bytes dpath (Bytes.to_string corrupt);
            expect_store_error
              (Printf.sprintf "delta byte %d flipped" pos)
              (fun () -> Psst_ingest.delta_bytes chain ~seq:1)
          done;
          write_bytes dpath original;
          Alcotest.(check string) "restored bytes pass again" original
            (Psst_ingest.delta_bytes chain ~seq:1)))

(* --- the structural filter as a view over the PMI ---

   The database's structural index reads its counts from the PMI bound
   records. On every form a database takes — built, loaded eagerly,
   mapped, sliced into shards, merged back, grown by ingest — it must
   answer as the standalone Grafil index counted with VF2 at the PMI's
   cap, and the PMI postings, the one record of where each feature
   occurs, must name exactly the graphs whose skeleton holds it. *)

let skeletons (db : Query.database) =
  Array.map Pgraph.skeleton (Corpus.to_array db.Query.graphs)

let reference_structural (db : Query.database) =
  let skels = skeletons db in
  Structural.build skels (Tgen.mined_over skels db.Query.features)
    ~emb_cap:(Pmi.config db.Query.pmi).Bounds.emb_cap

let view_candidates (db : Query.database) q ~delta =
  Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
    ~delta

let prop_view_equals_build =
  QCheck.Test.make ~name:"structural: PMI view = Structural.build on every form"
    ~count:12
    QCheck.(quad (int_bound 10_000) (int_range 4 9) (int_range 1 3) (oneofl [ 1; 2; 3; 48 ]))
    (fun (seed, n, extra, emb_cap) ->
      let ds = small_dataset seed (n + extra) in
      let bounds = { fast_bounds with mc_samples = 50; emb_cap } in
      let db =
        Query.index_database ~mining:small_mining ~bounds
          (Array.sub ds.Generator.graphs 0 n)
      in
      let rng = Prng.make (seed + 1) in
      let qs =
        List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:(2 + Prng.int rng 3)))
        @ [ Tgen.random_connected_graph rng ~n:4 ~extra:1 ~vl:3 ~el:2 ]
      in
      let agrees what (db : Query.database) =
        if Tgen.postings db <> Tgen.occurrences db.Query.features (skeletons db) then
          QCheck.Test.fail_reportf "%s: postings differ from the VF2 occurrences" what;
        let reference = reference_structural db in
        List.iter
          (fun q ->
            for delta = 0 to 2 do
              let expect =
                Structural.candidates reference ~skeleton:(Corpus.skeleton db.Query.graphs) q
                  ~delta
              in
              if view_candidates db q ~delta <> expect then
                QCheck.Test.fail_reportf "%s: candidates differ at delta %d" what delta
            done)
          qs
      in
      agrees "built" db;
      with_tmp (fun path ->
          Query.save_database path db;
          agrees "eager load" (Query.load_database path);
          agrees "mmap load" (Query.load_database ~mmap:true path));
      let cut = 1 + (seed mod (n - 1)) in
      let parts =
        [ Psst_shard.sub_database db ~base:0 ~count:cut;
          Psst_shard.sub_database db ~base:cut ~count:(n - cut) ]
      in
      List.iteri (fun i p -> agrees (Printf.sprintf "shard %d" i) p) parts;
      agrees "merge" (Psst_shard.merge parts);
      agrees "add_graphs"
        (Query.add_graphs db (Array.sub ds.Generator.graphs n extra));
      true)

(* The view keeps every graph within distance delta, mapped or not. *)
let test_view_no_false_dismissals () =
  let ds, db = make_db 83 12 in
  with_tmp (fun path ->
      Query.save_database path db;
      let mapped = Query.load_database ~mmap:true path in
      let rng = Prng.make 84 in
      for trial = 1 to 6 do
        let q = fst (Generator.extract_query rng ds ~edges:(2 + Prng.int rng 3)) in
        for delta = 0 to 2 do
          List.iter
            (fun (what, (d : Query.database)) ->
              let cands = view_candidates d q ~delta in
              for gi = 0 to Corpus.length d.Query.graphs - 1 do
                if Distance.within q (Corpus.skeleton d.Query.graphs gi) ~delta
                   && not (List.mem gi cands)
                then
                  Alcotest.failf "%s trial %d delta %d: graph %d dismissed" what trial
                    delta gi
              done)
            [ ("built", db); ("mapped", mapped) ]
        done
      done)

(* An image written when the structural counts had sections of their own
   — a "structural.flat.dir" directory and u16 "structural.flat.counts"
   cells behind a pad — loads eagerly and mapped, ignoring them, and
   answers as the image without them. *)
let test_retired_structural_sections_ignored () =
  let ds, db = make_db 89 10 in
  with_tmp (fun fresh ->
      Query.save_database fresh db;
      let nf = Pmi.num_features db.Query.pmi and ng = Pmi.num_graphs db.Query.pmi in
      let dir = S.encoder () in
      List.iter (S.put_i64 dir) [ 64; nf; ng ];
      let cells = Bytes.make (2 * nf * ng) '\000' in
      for fi = 0 to nf - 1 do
        for gi = 0 to ng - 1 do
          match Pmi.lookup db.Query.pmi ~feature:fi ~graph:gi with
          | Some e -> Bytes.set_uint16_le cells (2 * ((fi * ng) + gi)) e.Bounds.embeddings
          | None -> ()
        done
      done;
      let structural =
        [ S.section "structural.flat.dir" dir;
          { S.name = "structural.flat.counts"; payload = Bytes.to_string cells } ]
      in
      let sections =
        List.concat_map
          (fun (s : S.section) ->
            if s.S.name = "graphs.offsets" then s :: structural
            else if String.starts_with ~prefix:"pad." s.S.name then []
            else [ s ])
          (S.read_file fresh ~kind:S.Database)
      in
      with_tmp (fun old ->
          S.write_file old ~kind:S.Database
            (S.align_payloads ~targets:[ "structural.flat.counts"; "pmi.flat.bounds" ]
               sections);
          Alcotest.(check bool) "the old image has the structural sections" true
            (List.mem "structural.flat.counts"
               (List.map (fun (n, _, _) -> n) (S.section_spans (read_bytes old))));
          let rng = Prng.make 90 in
          let qs = List.init 4 (fun _ -> fst (Generator.extract_query rng ds ~edges:3)) in
          List.iter
            (fun mmap ->
              let loaded = Query.load_database ~mmap old in
              let fresh_loaded = Query.load_database ~mmap fresh in
              Alcotest.(check (list (list int)))
                (Printf.sprintf "structural candidates (mmap %b)" mmap)
                (Tgen.structural_candidates fresh_loaded qs)
                (Tgen.structural_candidates loaded qs);
              check_pmi_identical fresh_loaded.Query.pmi loaded.Query.pmi;
              check_same_answers ds fresh_loaded loaded)
            [ false; true ]))

(* An image written before "pmi.patterns" existed holds the features in
   "pmi.features": each pattern and key followed by its mined support and
   strong support as int lists. Both loaders and salvage read it, dropping
   the lists, and it answers as the same image in today's layout; saved
   again, it is that image byte for byte. *)
let test_parent_feature_section_loads () =
  let ds, db = make_db 97 10 in
  let mined =
    Selection.select (Array.map Pgraph.skeleton ds.Generator.graphs) small_mining
  in
  Alcotest.(check (list string)) "the database holds the mined features"
    (List.map (fun (m : Selection.mined) -> m.feature.key) mined)
    (List.map (fun (f : Selection.feature) -> f.key) db.Query.features);
  with_tmp (fun fresh ->
      Query.save_database fresh db;
      let features = S.encoder () in
      S.put_array features
        (fun e (m : Selection.mined) ->
          S.put_lgraph e m.feature.graph;
          S.put_string e m.feature.key;
          S.put_int_list e m.support;
          S.put_int_list e m.strong_support)
        (Array.of_list mined);
      let sections =
        List.filter_map
          (fun (s : S.section) ->
            if s.S.name = "pmi.patterns" then Some (S.section "pmi.features" features)
            else if String.starts_with ~prefix:"pad." s.S.name then None
            else Some s)
          (S.read_file fresh ~kind:S.Database)
      in
      with_tmp (fun old ->
          S.write_file old ~kind:S.Database
            (S.align_payloads ~targets:[ "pmi.flat.bounds" ] sections);
          let names = List.map (fun (n, _, _) -> n) (S.section_spans (read_bytes old)) in
          Alcotest.(check bool) "the old image has pmi.features, not pmi.patterns" true
            (List.mem "pmi.features" names && not (List.mem "pmi.patterns" names));
          let same what (loaded : Query.database) =
            let reference = Query.load_database fresh in
            Alcotest.(check (list string)) (what ^ ": features")
              (List.map (fun (f : Selection.feature) -> f.key) reference.Query.features)
              (List.map (fun (f : Selection.feature) -> f.key) loaded.Query.features);
            check_pmi_identical reference.Query.pmi loaded.Query.pmi;
            check_same_answers ds reference loaded
          in
          same "eager" (Query.load_database old);
          same "mmap" (Query.load_database ~mmap:true old);
          same "salvage, intact" (Query.load_database ~salvage:true old);
          with_tmp (fun resaved ->
              Query.save_database resaved (Query.load_database old);
              Alcotest.(check bool) "re-saved as today's image" true
                (read_bytes resaved = read_bytes fresh));
          let _, start, stop =
            List.find (fun (n, _, _) -> n = "pmi.flat.bounds") (S.section_spans (read_bytes old))
          in
          let damaged = Bytes.of_string (read_bytes old) in
          let pos = start + ((stop - start) / 2) in
          Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor 0x20));
          write_bytes old (Bytes.to_string damaged);
          same "salvage, damaged bounds" (Query.load_database ~salvage:true old)))

(* [Crc32.combine] against the direct digest: the CRC of a concatenation
   from its parts' CRCs, and a suffix's CRC back from the whole's, over
   random splits (empty parts and lengths past 64 KiB included). *)
let prop_crc32_combine =
  let gen =
    let open QCheck.Gen in
    let* n = frequency [ (4, int_bound 300); (1, int_range 65_000 70_000) ] in
    let* s = string_size ~gen:char (return n) in
    let* cut = int_bound n in
    return (s, cut)
  in
  QCheck.Test.make ~name:"crc32 combine = direct digest over random splits"
    ~count:300
    (QCheck.make gen ~print:(fun (s, cut) ->
         Printf.sprintf "%d bytes cut at %d" (String.length s) cut))
    (fun (s, cut) ->
      let d = Psst_util.Crc32.digest in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      let len2 = String.length b in
      Psst_util.Crc32.combine (d a) (d b) len2 = d s
      && Psst_util.Crc32.combine (d a) (d s) len2 = d b)

let suite =
  [
    Alcotest.test_case "primitive round trip" `Quick test_primitive_round_trip;
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "lgraph round trip x200" `Quick test_lgraph_round_trip;
    Alcotest.test_case "pgraph round trip x200" `Quick test_pgraph_round_trip;
    Alcotest.test_case "pgdb file round trip" `Quick test_pgdb_file_round_trip;
    Alcotest.test_case "db fingerprint sensitivity" `Quick
      test_db_fingerprint_sensitivity;
    Alcotest.test_case "feature round trip" `Quick test_feature_round_trip;
    Alcotest.test_case "pmi save/load bit-identical" `Slow
      test_pmi_save_load_bit_identical;
    Alcotest.test_case "database save/load bit-identical" `Slow
      test_database_save_load_bit_identical;
    Alcotest.test_case "version skew rejected" `Quick test_version_skew_rejected;
    Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
    Alcotest.test_case "fingerprint mismatch rejected" `Quick
      test_fingerprint_mismatch_rejected;
    Alcotest.test_case "missing and garbage files" `Quick
      test_missing_and_garbage_files;
    Alcotest.test_case "corruption detected everywhere" `Slow
      test_corruption_detected;
    Alcotest.test_case "mapped append = eager append (lazy/partial/full)" `Quick
      test_mapped_append_differential;
    Alcotest.test_case "materialise is identity on eager corpora" `Quick
      test_materialise_is_identity_on_eager;
    Alcotest.test_case "flat mmap = eager (1 and 4 domains, cold+warm)" `Slow
      test_flat_mmap_differential;
    Alcotest.test_case "golden flat-image digest (1/3 domains, shards)" `Slow
      test_golden_image_digest;
    Alcotest.test_case "retired classic layout refused" `Quick
      test_retired_layout_refused;
    Alcotest.test_case "flat corruption detected or contained" `Slow
      test_flat_corruption_detected;
    Alcotest.test_case "delta files checksummed end to end" `Quick
      test_delta_file_checksummed;
    Alcotest.test_case "jpt row sums rejected (text)" `Quick
      test_jpt_row_sum_rejected;
    Alcotest.test_case "jpt row sums rejected (binary)" `Quick
      test_jpt_row_sum_rejected_binary;
    Alcotest.test_case "bad bound counts rejected at eager load" `Quick
      test_bad_bound_counts_rejected;
    Alcotest.test_case "zero-feature database on every path" `Quick
      test_zero_feature_database;
    QCheck_alcotest.to_alcotest prop_view_equals_build;
    Alcotest.test_case "structural view: no false dismissals" `Slow
      test_view_no_false_dismissals;
    Alcotest.test_case "retired structural sections ignored" `Quick
      test_retired_structural_sections_ignored;
    Alcotest.test_case "parent-format pmi.features loads" `Quick
      test_parent_feature_section_loads;
    QCheck_alcotest.to_alcotest prop_crc32_matches_reference;
    Alcotest.test_case "mapped payload crc past 64 KiB" `Quick test_mapped_payload_crc;
    QCheck_alcotest.to_alcotest prop_crc32_combine;
  ]
