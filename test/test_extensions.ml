(* Tests for the library extensions: top-k search, serialisation and
   incremental index maintenance. *)

module Prng = Psst_util.Prng

let fast_bounds = { Bounds.default_config with mc_samples = 300 }

let small_dataset seed n =
  Generator.generate
    { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
      max_vertices = 10; motif_edges = 3 }

let small_db ?(n = 10) seed =
  let ds = small_dataset seed n in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  (ds, db)

(* --- Top-k --- *)

let test_topk_matches_exhaustive_ranking () =
  let ds, db = small_db 3 in
  let rng = Prng.make 5 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let config = { Query.default_config with delta = 1; verifier = `Exact } in
  let out = Topk.run db q ~k:3 config in
  (* Exhaustive: exact SSP of every graph. *)
  let relaxed, _ = Relax.relaxed_set q ~delta:1 in
  let all =
    List.init (Array.length ds.graphs) (fun gi ->
        (gi, Verify.exact ds.graphs.(gi) relaxed))
    |> List.filter (fun (_, p) -> p > 0.)
    |> List.sort (fun (g1, a) (g2, b) ->
           match compare b a with 0 -> compare g1 g2 | c -> c)
  in
  let expected = List.filteri (fun i _ -> i < 3) all in
  Alcotest.(check int) "hit count" (List.length expected) (List.length out.Topk.hits);
  List.iter2
    (fun (gi, p) (h : Topk.hit) ->
      Alcotest.(check int) "graph id" gi h.graph;
      Tgen.check_close ~eps:1e-9 "ssp" p h.ssp)
    expected out.Topk.hits

let test_topk_skips_candidates () =
  let ds, db = small_db ~n:14 7 in
  let rng = Prng.make 9 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let config = { Query.default_config with delta = 1; verifier = `Exact } in
  let out = Topk.run db q ~k:1 config in
  Alcotest.(check bool) "bounds saved some verifications" true
    (out.Topk.stats.verified <= out.Topk.stats.structural_candidates);
  Alcotest.(check int) "partition" out.Topk.stats.structural_candidates
    (out.Topk.stats.verified + out.Topk.stats.bound_skipped)

let test_topk_k_validation () =
  let _, db = small_db 3 in
  let q = Lgraph.create ~vlabels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  Alcotest.check_raises "k=0 rejected" (Invalid_argument "Topk.run: k must be positive")
    (fun () -> ignore (Topk.run db q ~k:0 Query.default_config))

let test_topk_sorted_descending () =
  let ds, db = small_db 11 in
  let rng = Prng.make 13 in
  let q, _ = Generator.extract_query rng ds ~edges:3 in
  let config = { Query.default_config with delta = 1; verifier = `Exact } in
  let out = Topk.run db q ~k:5 config in
  let rec sorted = function
    | (a : Topk.hit) :: (b :: _ as rest) -> a.ssp >= b.ssp && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (sorted out.Topk.hits)

(* --- Pgraph serialisation --- *)

let test_pgraph_io_roundtrip_hand () =
  let skeleton =
    Lgraph.create ~vlabels:[| 0; 1; 2 |] ~edges:[ (0, 1, 5); (1, 2, 6) ]
  in
  let f1 = Factor.create [| 0 |] [| 0.3; 0.7 |] in
  let f2 = Factor.create [| 0; 1 |] [| 0.5; 0.1; 0.5; 0.9 |] in
  let g = Pgraph.make skeleton [ f1; f2 ] in
  let g' = Pgraph_io.of_string (Pgraph_io.to_string g) in
  Alcotest.(check bool) "skeleton equal" true
    (Lgraph.equal_structure (Pgraph.skeleton g) (Pgraph.skeleton g'));
  (* Same joint distribution. *)
  List.iter
    (fun vars ->
      Tgen.check_close ~eps:1e-12 "conjunction prob"
        (Velim.prob_all_present (Pgraph.factors g) vars)
        (Velim.prob_all_present (Pgraph.factors g') vars))
    [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]

let prop_pgraph_io_roundtrip =
  QCheck.Test.make ~name:"pgraph_io roundtrip preserves distribution" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 31) in
      let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:3 ~el:2 in
      let g' = Pgraph_io.of_string (Pgraph_io.to_string g) in
      Lgraph.equal_structure (Pgraph.skeleton g) (Pgraph.skeleton g')
      && List.for_all
           (fun e ->
             Tgen.close ~eps:1e-9 (Pgraph.edge_marginal g e)
               (Pgraph.edge_marginal g' e))
           (Pgraph.uncertain_edges g))

let test_pgraph_io_rejects_garbage () =
  (try
     ignore (Pgraph_io.of_string "pgraph\nv 0\nxyz\nend\n");
     Alcotest.fail "garbage accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Pgraph_io.of_string "pgraph\nv 0\nfactor 0 0.5 0.9\nend\n");
    (* single factor over var 0 of a graph without edges: scope invalid *)
    Alcotest.fail "invalid scope accepted"
  with Invalid_argument _ -> ()

let test_pgraph_io_archive () =
  let ds = small_dataset 17 5 in
  let path = Filename.temp_file "psst" ".pgdb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pgraph_io.save path ds.graphs;
      let loaded = Pgraph_io.load path in
      Alcotest.(check int) "count" 5 (Array.length loaded);
      Array.iteri
        (fun i g ->
          Alcotest.(check bool) "skeleton preserved" true
            (Lgraph.equal_structure (Pgraph.skeleton ds.graphs.(i)) (Pgraph.skeleton g)))
        loaded)

(* --- Incremental maintenance --- *)

let test_add_graph_extends_database () =
  let ds = small_dataset 43 8 in
  let base = Array.sub ds.graphs 0 7 in
  let extra = ds.graphs.(7) in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds base
  in
  let db' = Query.add_graph db extra in
  Alcotest.(check int) "graph count" 8 (Corpus.length db'.Query.graphs);
  Alcotest.(check int) "pmi columns" 8 (Pmi.num_graphs db'.Query.pmi)

let test_add_graph_queries_stay_exact () =
  let ds = small_dataset 47 8 in
  let base = Array.sub ds.graphs 0 6 in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds base
  in
  let db' = Query.add_graph (Query.add_graph db ds.graphs.(6)) ds.graphs.(7) in
  let rng = Prng.make 53 in
  for trial = 1 to 3 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let config =
      { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
    in
    let out = Query.run db' q config in
    let truth = Query.ground_truth db' q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d incremental db answers" trial)
      truth out.Query.answers
  done

let test_add_graph_pmi_entry_matches_direct () =
  let ds = small_dataset 59 4 in
  let base = Array.sub ds.graphs 0 3 in
  let skeletons = Array.map Pgraph.skeleton base in
  let features =
    Selection.select skeletons { Selection.default_params with max_edges = 2; beta = 0.2 }
  in
  let pmi = Pmi.build ~config:fast_bounds base features in
  let pmi' = Pmi.add_graphs pmi [| ds.graphs.(3) |] in
  let column = Bounds.column fast_bounds ds.graphs.(3) in
  List.iteri
    (fun fi ({ feature = f; _ } : Selection.mined) ->
      match Pmi.lookup pmi' ~feature:fi ~graph:3 with
      | None ->
        Alcotest.(check bool) "absent feature" false
          (Vf2.exists f.graph (Pgraph.skeleton ds.graphs.(3)))
      | Some e ->
        let direct = Bounds.compute fast_bounds ~column ds.graphs.(3) f.graph in
        Tgen.check_close ~eps:1e-12 "upper matches" direct.Bounds.upper e.Bounds.upper;
        Tgen.check_close ~eps:1e-12 "lower matches" direct.Bounds.lower e.Bounds.lower)
    features

(* Ingest must leave the index a rebuild would produce: [add_graphs] over
   a base index equals [build] over the extended corpus with the features'
   supports over it (their VF2 occurrences), entry for entry, including where entries are absent (vertex
   features missing from a new graph have none). *)
let test_add_graphs_equals_rebuild () =
  let ds = small_dataset 67 10 in
  let base = Array.sub ds.graphs 0 6 in
  let features =
    Selection.select (Array.map Pgraph.skeleton base)
      { Selection.default_params with max_edges = 2; beta = 0.2 }
  in
  let added = Pmi.add_graphs (Pmi.build ~config:fast_bounds base features) (Array.sub ds.graphs 6 4) in
  let rebuilt =
    Pmi.build ~config:fast_bounds ds.graphs
      (Tgen.mined_over (Array.map Pgraph.skeleton ds.graphs)
         (Array.to_list (Pmi.features added)))
  in
  Alcotest.(check int) "filled entries" (Pmi.filled_entries rebuilt) (Pmi.filled_entries added);
  let absent_vertex_feature = ref false in
  for fi = 0 to Pmi.num_features added - 1 do
    for gi = 0 to 9 do
      match (Pmi.lookup added ~feature:fi ~graph:gi, Pmi.lookup rebuilt ~feature:fi ~graph:gi) with
      | None, None ->
        if gi >= 6 && Lgraph.num_edges (Pmi.features added).(fi).graph = 0 then
          absent_vertex_feature := true
      | Some a, Some b when a = b -> ()
      | _ -> Alcotest.failf "entry (%d,%d) differs from the rebuild" fi gi
    done
  done;
  Alcotest.(check bool) "a vertex feature is absent from a new graph" true
    !absent_vertex_feature

let test_parallel_pmi_build_identical () =
  let ds = small_dataset 61 6 in
  let skeletons = Array.map Pgraph.skeleton ds.graphs in
  let features =
    Selection.select skeletons { Selection.default_params with max_edges = 2; beta = 0.2 }
  in
  let p1 = Pmi.build ~config:fast_bounds ~domains:1 ds.graphs features in
  let p3 = Pmi.build ~config:fast_bounds ~domains:3 ds.graphs features in
  for fi = 0 to Pmi.num_features p1 - 1 do
    for gi = 0 to Array.length ds.graphs - 1 do
      match
        (Pmi.lookup p1 ~feature:fi ~graph:gi, Pmi.lookup p3 ~feature:fi ~graph:gi)
      with
      | None, None -> ()
      | Some a, Some b when a = b -> ()
      | _ -> Alcotest.failf "entry (%d,%d) differs across domain counts" fi gi
    done
  done

let suite =
  [
    Alcotest.test_case "parallel pmi build deterministic" `Slow
      test_parallel_pmi_build_identical;
    Alcotest.test_case "topk = exhaustive ranking" `Slow
      test_topk_matches_exhaustive_ranking;
    Alcotest.test_case "topk skips candidates" `Slow test_topk_skips_candidates;
    Alcotest.test_case "topk k validation" `Quick test_topk_k_validation;
    Alcotest.test_case "topk sorted" `Slow test_topk_sorted_descending;
    Alcotest.test_case "pgraph_io roundtrip" `Quick test_pgraph_io_roundtrip_hand;
    QCheck_alcotest.to_alcotest prop_pgraph_io_roundtrip;
    Alcotest.test_case "pgraph_io rejects garbage" `Quick test_pgraph_io_rejects_garbage;
    Alcotest.test_case "pgraph_io archive" `Quick test_pgraph_io_archive;
    Alcotest.test_case "add_graph extends" `Quick test_add_graph_extends_database;
    Alcotest.test_case "add_graph queries exact" `Slow test_add_graph_queries_stay_exact;
    Alcotest.test_case "add_graph pmi entries" `Quick
      test_add_graph_pmi_entry_matches_direct;
    Alcotest.test_case "add_graphs = rebuild over the extended corpus" `Quick
      test_add_graphs_equals_rebuild;
  ]
