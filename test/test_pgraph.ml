module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

(* A small hand-built probabilistic graph in the style of the paper's graph
   002 (Fig 1): skeleton a-a-b triangle plus b-b and b-c pendant edges, JPT1
   over {e0,e1,e2} (triangle) and JPT2 over {e2,e3,e4} conditioned on e2. *)
let paper_like_pgraph () =
  let skeleton =
    Lgraph.create
      ~vlabels:[| 0; 0; 1; 1; 2 |]
      ~edges:[ (0, 1, 0); (0, 2, 0); (1, 2, 0); (2, 3, 0); (2, 4, 0) ]
  in
  (* JPT1: joint over e0,e1,e2 — mildly positively correlated. *)
  let jpt1 =
    Factor.create [| 0; 1; 2 |]
      [| 0.10; 0.08; 0.08; 0.10; 0.08; 0.10; 0.10; 0.36 |]
  in
  (* JPT2: conditional of e3,e4 given e2 — each e2 slice sums to 1.
     vars [2;3;4], bit0 = e2. Slices: e2=0 -> entries with bit0=0. *)
  let jpt2 =
    Factor.create [| 2; 3; 4 |]
      [| 0.4; 0.2; 0.2; 0.2; 0.2; 0.2; 0.2; 0.4 |]
  in
  Pgraph.make skeleton [ jpt1; jpt2 ]

let test_make_validates () =
  let skeleton = Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] in
  let bad_scope = Factor.create [| 3 |] [| 0.5; 0.5 |] in
  (try
     ignore (Pgraph.make skeleton [ bad_scope ]);
     Alcotest.fail "scope validation missed"
   with Invalid_argument _ -> ());
  let not_chain = Factor.create [| 0 |] [| 0.5; 0.9 |] in
  try
    ignore (Pgraph.make skeleton [ not_chain ]);
    Alcotest.fail "chain validation missed"
  with Invalid_argument _ -> ()

let test_world_probs_sum_to_one () =
  let g = paper_like_pgraph () in
  let total = ref 0. in
  Pgraph.iter_worlds g (fun _ p -> total := !total +. p);
  Tgen.check_close ~eps:1e-9 "sum over worlds" 1.0 !total

let test_certain_edges () =
  let skeleton =
    Lgraph.create ~vlabels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0) ]
  in
  let g = Pgraph.make skeleton [ Factor.create [| 0 |] [| 0.3; 0.7 |] ] in
  Alcotest.(check (list int)) "uncertain" [ 0 ] (Pgraph.uncertain_edges g);
  Alcotest.(check (list int)) "certain" [ 1 ] (Pgraph.certain_edges g);
  Tgen.check_close "certain marginal" 1.0 (Pgraph.edge_marginal g 1);
  Tgen.check_close "uncertain marginal" 0.7 (Pgraph.edge_marginal g 0);
  (* Worlds lacking the certain edge have probability 0. *)
  let w = Bitset.of_list 2 [ 0 ] in
  Tgen.check_close "certain edge absent -> 0" 0. (Pgraph.world_prob g w)

let test_edge_marginal_vs_worlds () =
  let g = paper_like_pgraph () in
  let by_worlds eid =
    let acc = ref 0. in
    Pgraph.iter_worlds g (fun mask p -> if Bitset.mem mask eid then acc := !acc +. p);
    !acc
  in
  for eid = 0 to 4 do
    Tgen.check_close ~eps:1e-9
      (Printf.sprintf "marginal e%d" eid)
      (by_worlds eid) (Pgraph.edge_marginal g eid)
  done

let test_jpt_marginal () =
  let g = paper_like_pgraph () in
  let jpt = Pgraph.jpt g [ 0; 1 ] in
  Tgen.check_close ~eps:1e-9 "jpt normalised" 1.0 (Factor.total jpt);
  (* Cross-check one entry against world enumeration. *)
  let acc = ref 0. in
  Pgraph.iter_worlds g (fun mask p ->
      if Bitset.mem mask 0 && not (Bitset.mem mask 1) then acc := !acc +. p);
  Tgen.check_close ~eps:1e-9 "jpt entry" !acc (Factor.value jpt 1)

let test_sampling_matches_marginals () =
  let g = paper_like_pgraph () in
  let rng = Prng.make 123 in
  let n = 20000 in
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let mask, world, _ = Pgraph.sample_world rng g in
    Alcotest.(check int) "world keeps vertices" 5 (Lgraph.num_vertices world);
    for e = 0 to 4 do
      if Bitset.mem mask e then counts.(e) <- counts.(e) + 1
    done
  done;
  for e = 0 to 4 do
    let freq = float_of_int counts.(e) /. float_of_int n in
    let exact = Pgraph.edge_marginal g e in
    if Float.abs (freq -. exact) > 0.02 then
      Alcotest.failf "edge %d: freq %.3f vs exact %.3f" e freq exact
  done

let test_sample_mask_is_sample_world_mask () =
  let rng = Prng.make 31 in
  let g = Tgen.random_pgraph rng ~n:7 ~extra:3 ~vl:2 ~el:1 in
  let a = Prng.make 5 and b = Prng.make 5 in
  for _ = 1 to 200 do
    let mask, world, _ = Pgraph.sample_world a g in
    let m = Pgraph.sample_mask b g in
    Alcotest.(check bool) "same mask" true (Bitset.equal mask m);
    Alcotest.(check int) "world edges" (Bitset.cardinal m) (Lgraph.num_edges world);
    List.iter
      (fun e -> Alcotest.(check bool) "certain edge present" true (Bitset.mem m e))
      (Pgraph.certain_edges g)
  done

let test_to_independent_preserves_marginals () =
  let g = paper_like_pgraph () in
  let ind = Pgraph.to_independent g in
  for e = 0 to 4 do
    Tgen.check_close ~eps:1e-9 "marginal preserved" (Pgraph.edge_marginal g e)
      (Pgraph.edge_marginal ind e)
  done;
  (* But the joint differs: correlated triangle vs independent product. *)
  let joint_cor = Velim.prob_all_present (Pgraph.factors g) [ 0; 1; 2 ] in
  let joint_ind = Velim.prob_all_present (Pgraph.factors ind) [ 0; 1; 2 ] in
  Alcotest.(check bool) "correlation matters" true
    (Float.abs (joint_cor -. joint_ind) > 1e-3)

let test_table_entries () =
  let g = paper_like_pgraph () in
  Alcotest.(check int) "table entries" 16 (Pgraph.table_entries g)

let prop_random_pgraph_consistent =
  QCheck.Test.make ~name:"random pgraphs: worlds sum to 1" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 71) in
      let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:2 ~el:2 in
      let total = ref 0. in
      Pgraph.iter_worlds g (fun _ p -> total := !total +. p);
      Tgen.close ~eps:1e-6 1.0 !total)

(* --- Exact probabilities --- *)

let test_prob_any_present_single () =
  let g = paper_like_pgraph () in
  let s = Bitset.of_list 5 [ 0; 1 ] in
  let direct = Velim.prob_all_present (Pgraph.factors g) [ 0; 1 ] in
  Tgen.check_close ~eps:1e-9 "single set = conjunction" direct
    (Exact.prob_any_present g [ s ])

let test_prob_any_present_union () =
  let g = paper_like_pgraph () in
  let s1 = Bitset.of_list 5 [ 0 ] and s2 = Bitset.of_list 5 [ 3 ] in
  (* P(e0 or e3) by worlds. *)
  let acc = ref 0. in
  Pgraph.iter_worlds g (fun mask p ->
      if Bitset.mem mask 0 || Bitset.mem mask 3 then acc := !acc +. p);
  Tgen.check_close ~eps:1e-9 "union" !acc (Exact.prob_any_present g [ s1; s2 ])

let test_prob_any_present_superset_pruned () =
  let g = paper_like_pgraph () in
  let s1 = Bitset.of_list 5 [ 0 ] in
  let s2 = Bitset.of_list 5 [ 0; 1 ] in
  (* s2 ⊇ s1 so the answer is just P(e0). *)
  Tgen.check_close ~eps:1e-9 "superset ignored" (Pgraph.edge_marginal g 0)
    (Exact.prob_any_present g [ s1; s2 ])

let test_prob_any_present_empty () =
  let g = paper_like_pgraph () in
  Tgen.check_close "no sets" 0. (Exact.prob_any_present g []);
  (* A set of only certain edges is always present. *)
  let skeleton = Lgraph.create ~vlabels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] in
  let certain = Pgraph.make skeleton [] in
  Tgen.check_close "certain set" 1.0
    (Exact.prob_any_present certain [ Bitset.of_list 1 [ 0 ] ])

(* Twenty pairs over a 21-edge star of correlations: the union scope has 20
   edges, but marginalising onto it eliminates edge 0 in one bucket of all
   21 factors, wider than a factor can hold. The answer comes from
   inclusion-exclusion instead. Given edge 0, the pairs are independent,
   which gives the closed form below; [prob_any_present_naive] (2^21
   worlds, seconds) gives 0.84351929820762428. *)
let test_prob_any_present_wide_bucket () =
  let skeleton =
    Lgraph.create ~vlabels:(Array.make 22 0) ~edges:(List.init 21 (fun i -> (i, i + 1, 0)))
  in
  let g =
    Pgraph.make skeleton
      (Factor.create [| 0 |] [| 0.4; 0.6 |]
      :: List.init 20 (fun i -> Factor.create [| 0; i + 1 |] [| 0.7; 0.3; 0.3; 0.7 |]))
  in
  let sets = List.init 10 (fun i -> Bitset.of_list 21 [ (2 * i) + 1; (2 * i) + 2 ]) in
  let any_pair p_edge = 1. -. ((1. -. (p_edge *. p_edge)) ** 10.) in
  let expected = (0.6 *. any_pair 0.7) +. (0.4 *. any_pair 0.3) in
  Tgen.check_close ~eps:1e-9 "closed form = naive" 0.84351929820762428 expected;
  Tgen.check_close ~eps:1e-9 "prob_any_present" expected (Exact.prob_any_present g sets)

let test_naive_matches_smart () =
  let g = paper_like_pgraph () in
  let cases =
    [
      [ Bitset.of_list 5 [ 0; 1 ] ];
      [ Bitset.of_list 5 [ 0 ]; Bitset.of_list 5 [ 3 ] ];
      [ Bitset.of_list 5 [ 0; 1; 2 ]; Bitset.of_list 5 [ 2; 3 ]; Bitset.of_list 5 [ 4 ] ];
    ]
  in
  List.iter
    (fun sets ->
      Tgen.check_close ~eps:1e-9 "naive = smart"
        (Exact.prob_any_present g sets)
        (Exact.prob_any_present_naive g sets))
    cases;
  (* Empty set list: the naive scan still returns 0. *)
  Tgen.check_close "naive empty" 0. (Exact.prob_any_present_naive g [])

let prop_naive_matches_smart =
  QCheck.Test.make ~name:"naive world scan = antichain exact" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 87) in
      let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:2 ~el:1 in
      let m = Lgraph.num_edges (Pgraph.skeleton g) in
      let k = 1 + Prng.int rng 3 in
      let sets =
        List.init k (fun _ ->
            let size = 1 + Prng.int rng (min 3 m) in
            Bitset.of_list m (Prng.sample_without_replacement rng size m))
      in
      Tgen.close ~eps:1e-9
        (Exact.prob_any_present g sets)
        (Exact.prob_any_present_naive g sets))

let test_exact_sip_triangle () =
  let g = paper_like_pgraph () in
  let triangle =
    Lgraph.create ~vlabels:[| 0; 0; 1 |] ~edges:[ (0, 1, 0); (0, 2, 0); (1, 2, 0) ]
  in
  (* The only embedding of the a-a-b triangle is edges {0,1,2}. *)
  let expected = Velim.prob_all_present (Pgraph.factors g) [ 0; 1; 2 ] in
  Tgen.check_close ~eps:1e-9 "sip triangle" expected (Exact.sip g triangle)

let test_exact_sip_vs_worlds () =
  let g = paper_like_pgraph () in
  let pattern = Lgraph.create ~vlabels:[| 1; 2 |] ~edges:[ (0, 1, 0) ] in
  (* b-c edge: embeds only as e4. *)
  let by_worlds = ref 0. in
  Pgraph.iter_worlds g (fun mask p ->
      let world, _ = Lgraph.with_edge_mask (Pgraph.skeleton g) mask in
      if Vf2.exists pattern world then by_worlds := !by_worlds +. p);
  Tgen.check_close ~eps:1e-9 "sip = world sum" !by_worlds (Exact.sip g pattern)

let prop_exact_sip_matches_worlds =
  QCheck.Test.make ~name:"exact sip = brute-force world sum" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 83) in
      let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:2 ~el:1 in
      let pattern = Tgen.random_connected_graph rng ~n:3 ~extra:0 ~vl:2 ~el:1 in
      let by_worlds = ref 0. in
      Pgraph.iter_worlds g (fun mask p ->
          let world, _ = Lgraph.with_edge_mask (Pgraph.skeleton g) mask in
          if Vf2.exists pattern world then by_worlds := !by_worlds +. p);
      Tgen.close ~eps:1e-6 !by_worlds (Exact.sip g pattern))

let test_exact_ssp_vs_worlds () =
  let g = paper_like_pgraph () in
  let q =
    Lgraph.create ~vlabels:[| 0; 0; 1; 2 |]
      ~edges:[ (0, 1, 0); (0, 2, 0); (1, 2, 0); (2, 3, 0) ]
  in
  let delta = 1 in
  let by_worlds = ref 0. in
  Pgraph.iter_worlds g (fun mask p ->
      let world, _ = Lgraph.with_edge_mask (Pgraph.skeleton g) mask in
      if Distance.within q world ~delta then by_worlds := !by_worlds +. p);
  Tgen.check_close ~eps:1e-9 "ssp = world sum" !by_worlds (Exact.ssp g q ~delta)

let test_ssp_monotone_in_delta () =
  let g = paper_like_pgraph () in
  let q =
    Lgraph.create ~vlabels:[| 0; 0; 1; 2 |]
      ~edges:[ (0, 1, 0); (0, 2, 0); (1, 2, 0); (2, 3, 0) ]
  in
  let p0 = Exact.ssp g q ~delta:0 in
  let p1 = Exact.ssp g q ~delta:1 in
  let p2 = Exact.ssp g q ~delta:2 in
  Alcotest.(check bool) "monotone" true (p0 <= p1 +. 1e-12 && p1 <= p2 +. 1e-12)

let suite =
  [
    Alcotest.test_case "make validates" `Quick test_make_validates;
    Alcotest.test_case "world probs sum to 1" `Quick test_world_probs_sum_to_one;
    Alcotest.test_case "certain edges" `Quick test_certain_edges;
    Alcotest.test_case "edge marginal vs worlds" `Quick test_edge_marginal_vs_worlds;
    Alcotest.test_case "jpt marginal" `Quick test_jpt_marginal;
    Alcotest.test_case "sampling matches marginals" `Slow test_sampling_matches_marginals;
    Alcotest.test_case "sample_mask = sample_world's mask" `Quick
      test_sample_mask_is_sample_world_mask;
    Alcotest.test_case "to_independent preserves marginals" `Quick
      test_to_independent_preserves_marginals;
    Alcotest.test_case "table entries" `Quick test_table_entries;
    QCheck_alcotest.to_alcotest prop_random_pgraph_consistent;
    Alcotest.test_case "prob_any_present single" `Quick test_prob_any_present_single;
    Alcotest.test_case "prob_any_present union" `Quick test_prob_any_present_union;
    Alcotest.test_case "prob_any_present superset" `Quick
      test_prob_any_present_superset_pruned;
    Alcotest.test_case "prob_any_present empty/certain" `Quick test_prob_any_present_empty;
    Alcotest.test_case "naive scan = antichain exact" `Quick test_naive_matches_smart;
    QCheck_alcotest.to_alcotest prop_naive_matches_smart;
    Alcotest.test_case "exact: bucket wider than a factor" `Quick
      test_prob_any_present_wide_bucket;
    Alcotest.test_case "exact sip triangle" `Quick test_exact_sip_triangle;
    Alcotest.test_case "exact sip vs worlds" `Quick test_exact_sip_vs_worlds;
    QCheck_alcotest.to_alcotest prop_exact_sip_matches_worlds;
    Alcotest.test_case "exact ssp vs worlds" `Quick test_exact_ssp_vs_worlds;
    Alcotest.test_case "ssp monotone in delta" `Quick test_ssp_monotone_in_delta;
  ]

let () = ignore suite
