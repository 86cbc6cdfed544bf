(* Dynamic-update correctness: incremental insertion must enter each new
   graph in the postings of exactly the features occurring in it — the
   postings are each feature's support, and the only record of it, so a
   missed one silently drops the graph from the index — and the batched
   insertion paths must be observationally identical to the sequential
   folds. *)

module Prng = Psst_util.Prng

let fast_bounds = { Bounds.default_config with mc_samples = 200 }
let mining = { Selection.default_params with max_edges = 2; beta = 0.2 }

let dataset seed n =
  Generator.generate
    { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
      max_vertices = 10; motif_edges = 3 }

(* Index the first [base] graphs; the rest are the arrival stream. *)
let split_db seed ~base ~extra =
  let ds = dataset seed (base + extra) in
  let db =
    Query.index_database ~mining ~bounds:fast_bounds
      (Array.sub ds.Generator.graphs 0 base)
  in
  (ds, db, Array.sub ds.Generator.graphs base extra)

let supports = Tgen.postings

let test_add_graph_syncs_supports () =
  let _, db, extra = split_db 101 ~base:8 ~extra:1 in
  let g = extra.(0) in
  let gi = Corpus.length db.Query.graphs in
  let db' = Query.add_graph db g in
  let gc = Pgraph.skeleton g in
  List.iter2
    (fun (f : Selection.feature) support ->
      let occurs = Vf2.exists f.graph gc in
      Alcotest.(check bool)
        "new graph in support iff the feature occurs in it" occurs
        (List.mem gi support))
    db'.Query.features (supports db');
  (* The old graphs keep their postings. *)
  Alcotest.(check bool) "old postings kept" true
    (List.map (List.filter (fun g -> g < gi)) (supports db') = supports db);
  (* The database copy and the PMI's own copy must agree. *)
  Alcotest.(check (list string)) "db features = pmi features"
    (List.map (fun (f : Selection.feature) -> f.key) db'.Query.features)
    (List.map
       (fun (f : Selection.feature) -> f.key)
       (Array.to_list (Pmi.features db'.Query.pmi)))

(* After a batch, every feature's postings are its VF2 occurrences over
   the whole corpus, and the image reloads: both loaders walk every
   posting and refuse graph ids that are not strictly increasing. *)
let test_supports_stay_sorted_unique () =
  let _, db, extra = split_db 103 ~base:6 ~extra:4 in
  let db' = Query.add_graphs db extra in
  Alcotest.(check bool) "postings = occurrences" true
    (supports db'
    = Tgen.occurrences db'.Query.features
        (Array.map Pgraph.skeleton (Corpus.to_array db'.Query.graphs)));
  let path = Filename.temp_file "psst_dynamic" ".pgdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Query.save_database path db';
      List.iter
        (fun mmap ->
          Alcotest.(check bool) "reloaded postings equal" true
            (supports (Query.load_database ~mmap path) = supports db'))
        [ false; true ])

(* The original defect: after add_graph -> save -> load, the reloaded
   index had no trace of the new graph in any support list, so it was
   invisible to an index rebuilt from those features. *)
let test_add_then_roundtrip_preserves_index () =
  let ds, db, extra = split_db 107 ~base:8 ~extra:1 in
  let db' = Query.add_graph db extra.(0) in
  let path = Filename.temp_file "psst_dynamic" ".pgdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Query.save_database path db';
      let loaded = Query.load_database path in
      Alcotest.(check int) "graph count survives" 9
        (Corpus.length loaded.Query.graphs);
      Alcotest.(check bool) "supports survive" true
        (supports db' = supports loaded);
      Alcotest.(check int) "pmi sees every graph" 9
        (Pmi.num_graphs loaded.Query.pmi);
      (* Bit-identical answers, fresh vs reloaded. *)
      let rng = Prng.make 113 in
      let config =
        { Query.default_config with epsilon = 0.4; delta = 1;
          verifier = `Exact }
      in
      for _ = 1 to 3 do
        let q, _ = Generator.extract_query rng ds ~edges:4 in
        let a = Query.run db' q config and b = Query.run loaded q config in
        Alcotest.(check (list int)) "answers identical" a.Query.answers
          b.Query.answers;
        Alcotest.(check int) "same structural candidates"
          a.Query.stats.structural_candidates
          b.Query.stats.structural_candidates;
        Alcotest.(check int) "same accepted" a.Query.stats.accepted_by_bounds
          b.Query.stats.accepted_by_bounds;
        Alcotest.(check int) "same pruned" a.Query.stats.pruned_by_bounds
          b.Query.stats.pruned_by_bounds
      done)

let test_batch_equals_sequential () =
  let ds, db, extra = split_db 109 ~base:6 ~extra:4 in
  let seq = Array.fold_left Query.add_graph db extra in
  let batch = Query.add_graphs db extra in
  Alcotest.(check bool) "supports equal" true (supports seq = supports batch);
  let qs =
    let rng = Prng.make 110 in
    List.init 4 (fun _ -> fst (Generator.extract_query rng ds ~edges:3))
  in
  Alcotest.(check (list (list int))) "structural candidates equal"
    (Tgen.structural_candidates seq qs)
    (Tgen.structural_candidates batch qs);
  let nf = Pmi.num_features seq.Query.pmi in
  let ng = Corpus.length seq.Query.graphs in
  Alcotest.(check int) "pmi num_graphs" ng (Pmi.num_graphs batch.Query.pmi);
  for fi = 0 to nf - 1 do
    for gi = 0 to ng - 1 do
      let a = Pmi.lookup seq.Query.pmi ~feature:fi ~graph:gi in
      let b = Pmi.lookup batch.Query.pmi ~feature:fi ~graph:gi in
      if a <> b then Alcotest.failf "entry (%d, %d) differs" fi gi
    done
  done;
  let rng = Prng.make 127 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
  in
  for _ = 1 to 3 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    Alcotest.(check (list int)) "answers identical"
      (Query.run seq q config).Query.answers
      (Query.run batch q config).Query.answers
  done

(* Ingest is the same whatever form the index is held in: a database as
   built, loaded eagerly and mapped takes the same batch to the same
   answers and the same image (bar the build-time metadata). *)
let test_ingest_same_on_every_form () =
  let ds, db, extra = split_db 131 ~base:7 ~extra:3 in
  let tmp () = Filename.temp_file "psst_dynamic" ".pgdb" in
  let paths = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !paths)
    (fun () ->
      let saved db =
        let p = tmp () in
        paths := p :: !paths;
        Query.save_database p db;
        p
      in
      let base = saved db in
      let forms =
        [
          ("built", db);
          ("eager", Query.load_database base);
          ("mapped", Query.load_database ~mmap:true base);
        ]
        |> List.map (fun (name, db) -> (name, Query.add_graphs db extra))
      in
      let image db =
        List.filter
          (fun (s : Psst_store.section) -> s.Psst_store.name <> "pmi.meta")
          (Psst_store.read_file (saved db) ~kind:Psst_store.Database)
      in
      let reference = image (List.assoc "built" forms) in
      let rng = Prng.make 137 in
      let config =
        { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
      in
      let queries = List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4)) in
      List.iter
        (fun (name, db') ->
          Alcotest.(check bool) (name ^ ": image identical") true (image db' = reference);
          List.iter
            (fun q ->
              Alcotest.(check (list int))
                (name ^ ": answers")
                (Query.run (List.assoc "built" forms) q config).Query.answers
                (Query.run db' q config).Query.answers)
            queries)
        forms)

let test_empty_batch_is_identity () =
  let _, db, _ = split_db 111 ~base:5 ~extra:1 in
  let db' = Query.add_graphs db [||] in
  Alcotest.(check int) "no graphs added" (Corpus.length db.Query.graphs)
    (Corpus.length db'.Query.graphs);
  Alcotest.(check bool) "supports untouched" true (supports db = supports db')

let suite =
  [
    Alcotest.test_case "add_graph syncs supports" `Slow
      test_add_graph_syncs_supports;
    Alcotest.test_case "supports stay sorted" `Slow
      test_supports_stay_sorted_unique;
    Alcotest.test_case "add + save/load round trip" `Slow
      test_add_then_roundtrip_preserves_index;
    Alcotest.test_case "batch = sequential adds" `Slow
      test_batch_equals_sequential;
    Alcotest.test_case "empty batch is identity" `Quick
      test_empty_batch_is_identity;
    Alcotest.test_case "ingest same on every form" `Slow
      test_ingest_same_on_every_form;
  ]
