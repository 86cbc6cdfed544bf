(* Edge-case coverage across modules: error paths, guards, degenerate
   inputs, budget exhaustion. *)

module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

(* --- Lgraph --- *)

let test_lgraph_of_string_errors () =
  let bad s = try ignore (Lgraph.of_string s); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "garbage line" true (bad "v 0\nblah\n");
  Alcotest.(check bool) "edge before both vertices" true (bad "v 0\ne 0 1 0\n");
  Alcotest.(check bool) "comments and blanks ok" true
    (not (bad "# header\nv 0\nv 1\n\ne 0 1 3\n"))

let test_lgraph_empty () =
  let g = Lgraph.vertices_only ~vlabels:[||] in
  Alcotest.(check int) "no vertices" 0 (Lgraph.num_vertices g);
  Alcotest.(check bool) "empty connected" true (Lgraph.is_connected g);
  Alcotest.(check (list (list int))) "no components" [] (Lgraph.components g);
  Alcotest.(check string) "empty canon" "" (Canon.code g)

let test_lgraph_with_empty_mask () =
  let g = Lgraph.create ~vlabels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  let sub, map = Lgraph.with_edge_mask g (Bitset.create 1) in
  Alcotest.(check int) "no edges" 0 (Lgraph.num_edges sub);
  Alcotest.(check int) "vertices kept" 2 (Lgraph.num_vertices sub);
  Alcotest.(check (array int)) "empty map" [||] map

let test_lgraph_find_edge_symmetric () =
  let g = Lgraph.create ~vlabels:[| 0; 1 |] ~edges:[ (1, 0, 7) ] in
  (match Lgraph.find_edge g 0 1 with
  | Some e -> Alcotest.(check int) "label" 7 e.label
  | None -> Alcotest.fail "edge lost");
  match Lgraph.find_edge g 1 0 with
  | Some _ -> ()
  | None -> Alcotest.fail "reversed lookup failed"

let test_canon_disconnected () =
  let a =
    Lgraph.create ~vlabels:[| 0; 0; 1; 1 |] ~edges:[ (0, 1, 0); (2, 3, 1) ]
  in
  let b =
    Lgraph.create ~vlabels:[| 1; 1; 0; 0 |] ~edges:[ (0, 1, 1); (2, 3, 0) ]
  in
  Alcotest.(check bool) "disconnected iso" true (Canon.equal_iso a b)

let test_canon_regular_graph () =
  (* A 6-cycle: vertex-transitive, colour refinement cannot split it; the
     canonical search must still terminate and be permutation invariant. *)
  let cycle perm =
    let edges = List.init 6 (fun i -> (perm.(i), perm.((i + 1) mod 6), 0)) in
    Lgraph.create ~vlabels:(Array.make 6 0) ~edges
  in
  let id = [| 0; 1; 2; 3; 4; 5 |] and shuffled = [| 3; 5; 0; 2; 4; 1 |] in
  Alcotest.(check string) "cycle canon invariant" (Canon.code (cycle id))
    (Canon.code (cycle shuffled))

(* --- Factor / pgm guards --- *)

let test_factor_scope_cap () =
  let vars = Array.init (Factor.max_vars + 1) (fun i -> i) in
  try
    ignore (Factor.of_fun vars (fun _ -> 1.));
    Alcotest.fail "scope cap not enforced"
  with Invalid_argument _ -> ()

let test_factor_normalize_zero () =
  let f = Factor.create [| 0 |] [| 0.; 0. |] in
  try
    ignore (Factor.normalize f);
    Alcotest.fail "zero total accepted"
  with Invalid_argument _ -> ()

let test_velim_no_factors () =
  Tgen.check_close "empty product partition" 1. (Velim.partition_value []);
  let m = Velim.marginal [] [] in
  Tgen.check_close "empty marginal" 1. (Factor.value m 0)

let test_marginal_onto_everything () =
  let f = Factor.create [| 1; 2 |] [| 0.1; 0.2; 0.3; 0.4 |] in
  let m = Factor.marginal_onto f [ 1; 2 ] in
  Alcotest.(check bool) "identity" true (Factor.equal_approx ~eps:0. f m)

(* --- Pgraph guards --- *)

let test_independent_probability_range () =
  let g = Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] in
  try
    ignore (Pgraph.independent g [ (0, 1.5) ]);
    Alcotest.fail "p > 1 accepted"
  with Invalid_argument _ -> ()

let test_pgraph_jpt_with_certain_edges () =
  let skeleton =
    Lgraph.create ~vlabels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0) ]
  in
  let g = Pgraph.make skeleton [ Factor.create [| 0 |] [| 0.3; 0.7 |] ] in
  (* Scope mixes an uncertain edge (0) and a certain edge (1). *)
  let jpt = Pgraph.jpt g [ 0; 1 ] in
  Tgen.check_close ~eps:1e-9 "mass on certain-present rows" 1.
    (Factor.value jpt 2 +. Factor.value jpt 3);
  Tgen.check_close ~eps:1e-9 "both present" 0.7 (Factor.value jpt 3)

(* --- Mcs / Distance budgets --- *)

let test_mcs_node_budget_is_lower_bound () =
  let rng = Prng.make 3 in
  let a = Tgen.random_connected_graph rng ~n:6 ~extra:4 ~vl:2 ~el:1 in
  let b = Tgen.random_connected_graph rng ~n:6 ~extra:4 ~vl:2 ~el:1 in
  let cheap = Mcs.common_edges ~node_budget:5 a b in
  let full = Mcs.common_edges a b in
  Alcotest.(check bool) "budgeted <= exact" true (cheap <= full);
  Alcotest.(check bool) "non-negative" true (cheap >= 0)

(* --- Clique budgets --- *)

let test_clique_budget_still_valid () =
  let rng = Prng.make 11 in
  let n = 12 in
  let weights = Array.init n (fun _ -> Prng.float rng 2.0) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng 0.6 then edges := (u, v) :: !edges
    done
  done;
  let g = Mwc.make ~weights ~edges:!edges in
  let clique, w = Mwc.max_weight_clique ~node_budget:3 g in
  Alcotest.(check bool) "valid clique under budget" true (Mwc.is_clique g clique);
  let recomputed = List.fold_left (fun acc v -> acc +. weights.(v)) 0. clique in
  Tgen.check_close ~eps:1e-9 "weight consistent" recomputed w

(* --- Set cover / QP degenerate inputs --- *)

let test_set_cover_empty_universe () =
  let r = Set_cover.greedy ~universe:0 [||] in
  Alcotest.(check (list int)) "nothing chosen" [] r.chosen;
  Tgen.check_close "zero weight" 0. r.weight

let test_qp_no_sets () =
  let inst = { Qp.universe = 0; sets = [||] } in
  let sol = Qp.solve inst in
  Alcotest.(check bool) "feasible vacuously" true sol.feasible;
  Tgen.check_close "objective" 0. sol.objective

let test_qp_uncoverable_flagged () =
  let inst =
    { Qp.universe = 2; sets = [| (Bitset.of_list 2 [ 0 ], 0.5, 0.5) |] }
  in
  let sol = Qp.solve inst in
  Alcotest.(check bool) "infeasible flagged" false sol.feasible

(* --- Relax / structural --- *)

let test_relax_deletion_sets_count () =
  let rng = Prng.make 5 in
  let q = Tgen.random_connected_graph rng ~n:5 ~extra:2 ~vl:2 ~el:1 in
  Alcotest.(check int) "C(m,2)"
    (Psst_util.Combin.binomial (Lgraph.num_edges q) 2)
    (Relax.deletion_sets q ~delta:2)

let test_relax_negative_delta () =
  let q = Lgraph.create ~vlabels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  try
    ignore (Relax.relaxed_set q ~delta:(-1));
    Alcotest.fail "negative delta accepted"
  with Invalid_argument _ -> ()

let test_structural_verify_candidate () =
  let rng = Prng.make 7 in
  let g = Tgen.random_connected_graph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
  let q = Lgraph.delete_edges g [ 0 ] in
  let q, _ = Lgraph.drop_isolated q in
  Alcotest.(check bool) "subgraph verifies at delta 0" true
    (Structural.verify_candidate ~skeleton:(fun _ -> g) q ~delta:0 0)

(* --- Bounds / verification misc --- *)

let test_bounds_first_fit_ordered () =
  let rng = Prng.make 13 in
  let g = Tgen.random_pgraph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
  let gc = Pgraph.skeleton g in
  let feature =
    let e0 = Lgraph.edge gc 0 in
    let sub, _ =
      Lgraph.induced_subgraph gc [ e0.Lgraph.u; e0.Lgraph.v ]
    in
    sub
  in
  let config = { Bounds.default_config with tightest = false; mc_samples = 200 } in
  let b = Bounds.compute config g feature in
  Alcotest.(check bool) "interval ordered" true (b.Bounds.lower <= b.Bounds.upper +. 1e-9)

let test_verify_num_samples_monotone () =
  let s tau = Verify.num_samples { Verify.default_config with tau } in
  Alcotest.(check bool) "smaller tau, more samples" true
    (s 0.05 > s 0.1 && s 0.1 > s 0.2)

let test_smp_deterministic_given_seed () =
  let rng () = Prng.make 77 in
  let g =
    let r = Prng.make 17 in
    Tgen.random_pgraph r ~n:6 ~extra:2 ~vl:2 ~el:1
  in
  let q =
    let gc = Pgraph.skeleton g in
    let sub, _ = Lgraph.with_edge_mask gc (Bitset.of_list (Lgraph.num_edges gc) [ 0; 1 ]) in
    fst (Lgraph.drop_isolated sub)
  in
  let relaxed, _ = Relax.relaxed_set q ~delta:1 in
  Tgen.check_close ~eps:0. "same seed same estimate"
    (Verify.smp (rng ()) g relaxed)
    (Verify.smp (rng ()) g relaxed)

(* --- Transversal cap --- *)

let test_transversal_cap_respected () =
  (* 6 pairwise-disjoint 2-element sets: 2^6 = 64 minimal transversals. *)
  let sets = List.init 6 (fun i -> Bitset.of_list 12 [ 2 * i; (2 * i) + 1 ]) in
  let cuts = Transversal.minimal_hitting_sets ~cap:10 sets in
  Alcotest.(check bool) "cap respected" true (List.length cuts <= 10);
  List.iter
    (fun c ->
      Alcotest.(check bool) "still hitting" true (Transversal.is_hitting_set sets c))
    cuts

let test_query_config_validation () =
  let g = Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] in
  let pg = Pgraph.independent g [ (0, 0.5) ] in
  let db = Query.index_database [| pg |] in
  let bad config =
    try
      ignore (Query.run db g config);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "epsilon 0 rejected" true
    (bad { Query.default_config with epsilon = 0. });
  Alcotest.(check bool) "epsilon > 1 rejected" true
    (bad { Query.default_config with epsilon = 1.5 });
  Alcotest.(check bool) "negative delta rejected" true
    (bad { Query.default_config with delta = -1 })

(* A relaxation the pipelines cannot run is rejected by every entry point
   before any work: with [relax_cap = 0] nothing is relaxed, so no
   truncation is counted. *)
let test_relaxation_config_rejected_first () =
  let g = Lgraph.create ~vlabels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  let pg = Pgraph.independent g [ (0, 0.5); (1, 0.5) ] in
  let db = Query.index_database [| pg |] in
  let truncated () = Psst_obs.counter_value (Psst_obs.counter "relax.truncated") in
  List.iter
    (fun (what, config) ->
      List.iter
        (fun (entry, run) ->
          let before = truncated () in
          (match run config with
          | () -> Alcotest.failf "%s: %s accepted" entry what
          | exception Invalid_argument _ -> ());
          Alcotest.(check int) (entry ^ ": nothing relaxed") before (truncated ()))
        [
          ("run", fun c -> ignore (Query.run db g c));
          ("run_bounds_only", fun c -> ignore (Query.run_bounds_only db g c));
          ("Topk.run", fun c -> ignore (Topk.run db g ~k:1 c));
        ])
    [
      ("relax_cap 0", { Query.default_config with relax_cap = 0 });
      ("relax_cap -1", { Query.default_config with relax_cap = -1 });
      ("delta -1", { Query.default_config with delta = -1 });
    ]

(* [Structural.build] needs a cap of at least one embedding. *)
let test_structural_emb_cap_range () =
  let g = Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] in
  List.iter
    (fun emb_cap ->
      match Structural.build [| g |] [] ~emb_cap with
      | _ -> Alcotest.failf "emb_cap %d accepted" emb_cap
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  List.iter
    (fun emb_cap -> ignore (Structural.build [| g |] [] ~emb_cap))
    [ 1; 65_535 ]

(* --- Cross-cutting properties --- *)

let prop_mined_features_connected =
  QCheck.Test.make ~name:"mined features with edges are connected" ~count:20
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 3) in
      let db =
        Array.init 4 (fun _ -> Tgen.random_connected_graph rng ~n:6 ~extra:2 ~vl:2 ~el:2)
      in
      let features =
        Selection.select db
          { Selection.default_params with max_edges = 3; beta = 0.2; gamma = 0.0 }
      in
      List.for_all
        (fun ({ feature = f; _ } : Selection.mined) ->
          Lgraph.num_edges f.graph = 0 || Lgraph.is_connected f.graph)
        features)

let prop_relaxed_set_pairwise_noniso =
  QCheck.Test.make ~name:"relaxed queries are pairwise non-isomorphic" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 7) in
      let q = Tgen.random_connected_graph rng ~n:5 ~extra:2 ~vl:2 ~el:2 in
      let rqs, _ = Relax.relaxed_set q ~delta:1 in
      let codes = List.map Canon.code rqs in
      List.length codes = List.length (List.sort_uniq compare codes))

let prop_pruning_decisions_consistent =
  QCheck.Test.make ~name:"pruning decision consistent with its own bounds"
    ~count:8 QCheck.small_int
    (fun seed ->
      let rng0 = Prng.make (seed + 11) in
      let ds =
        Generator.generate
          { Generator.default_params with num_graphs = 6; seed = seed + 500;
            min_vertices = 6; max_vertices = 9; motif_edges = 3 }
      in
      let skeletons = Array.map Pgraph.skeleton ds.graphs in
      let features =
        Selection.select skeletons
          { Selection.default_params with max_edges = 2; beta = 0.2 }
      in
      let pmi =
        Pmi.build ~config:{ Bounds.default_config with mc_samples = 200 }
          ds.graphs features
      in
      let q, _ = Generator.extract_query rng0 ds ~edges:3 in
      let relaxed, _ = Relax.relaxed_set q ~delta:1 in
      let prepared = Pruning.prepare pmi ~relaxed in
      List.for_all
        (fun gi ->
          let r =
            Pruning.evaluate (Prng.make 3) pmi prepared ~graph:gi ~epsilon:0.5
              ~mode:Pruning.Optimized
          in
          match r.Pruning.decision with
          | `Pruned -> r.Pruning.usim < 0.5
          | `Accepted -> r.Pruning.usim >= 0.5 && r.Pruning.lsim_safe >= 0.5
          | `Candidate -> r.Pruning.usim >= 0.5 && r.Pruning.lsim_safe < 0.5)
        [ 0; 2; 4 ])

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:100
    QCheck.(make Gen.(list_size (int_range 1 20) (float_bound_exclusive 10.)))
    (fun xs ->
      let lo, hi = Psst_util.Stats.min_max xs in
      let p = Psst_util.Stats.percentile 37.5 xs in
      lo -. 1e-9 <= p && p <= hi +. 1e-9)

let suite =
  [
    Alcotest.test_case "query config validation" `Quick test_query_config_validation;
    Alcotest.test_case "relaxation config rejected first" `Quick
      test_relaxation_config_rejected_first;
    QCheck_alcotest.to_alcotest prop_mined_features_connected;
    QCheck_alcotest.to_alcotest prop_relaxed_set_pairwise_noniso;
    QCheck_alcotest.to_alcotest prop_pruning_decisions_consistent;
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    Alcotest.test_case "lgraph of_string errors" `Quick test_lgraph_of_string_errors;
    Alcotest.test_case "lgraph empty" `Quick test_lgraph_empty;
    Alcotest.test_case "lgraph empty mask" `Quick test_lgraph_with_empty_mask;
    Alcotest.test_case "lgraph find_edge symmetric" `Quick test_lgraph_find_edge_symmetric;
    Alcotest.test_case "canon disconnected" `Quick test_canon_disconnected;
    Alcotest.test_case "canon regular graph" `Quick test_canon_regular_graph;
    Alcotest.test_case "factor scope cap" `Quick test_factor_scope_cap;
    Alcotest.test_case "factor normalize zero" `Quick test_factor_normalize_zero;
    Alcotest.test_case "velim no factors" `Quick test_velim_no_factors;
    Alcotest.test_case "marginal_onto identity" `Quick test_marginal_onto_everything;
    Alcotest.test_case "independent probability range" `Quick
      test_independent_probability_range;
    Alcotest.test_case "jpt with certain edges" `Quick test_pgraph_jpt_with_certain_edges;
    Alcotest.test_case "mcs budget lower bound" `Quick test_mcs_node_budget_is_lower_bound;
    Alcotest.test_case "clique budget valid" `Quick test_clique_budget_still_valid;
    Alcotest.test_case "set cover empty universe" `Quick test_set_cover_empty_universe;
    Alcotest.test_case "qp no sets" `Quick test_qp_no_sets;
    Alcotest.test_case "qp uncoverable" `Quick test_qp_uncoverable_flagged;
    Alcotest.test_case "relax deletion count" `Quick test_relax_deletion_sets_count;
    Alcotest.test_case "relax negative delta" `Quick test_relax_negative_delta;
    Alcotest.test_case "structural verify candidate" `Quick test_structural_verify_candidate;
    Alcotest.test_case "bounds first-fit ordered" `Quick test_bounds_first_fit_ordered;
    Alcotest.test_case "verify samples monotone" `Quick test_verify_num_samples_monotone;
    Alcotest.test_case "smp deterministic" `Quick test_smp_deterministic_given_seed;
    Alcotest.test_case "transversal cap" `Quick test_transversal_cap_respected;
    Alcotest.test_case "structural build emb_cap >= 1" `Quick
      test_structural_emb_cap_range;
  ]
