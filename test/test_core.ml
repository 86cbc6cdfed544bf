module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

open Tgen.Fixtures

(* Random pgraph + random small feature extracted from it, so embeddings
   exist most of the time. *)
let random_case seed =
  let rng = Prng.make seed in
  let g = Tgen.random_pgraph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
  let gc = Pgraph.skeleton g in
  let q, _ = Generator.extract_query rng
      { graphs = [| g |]; organisms = [| 0 |]; motifs = [||];
        grafts = [| None |]; params = Generator.default_params }
      ~edges:(2 + Prng.int rng 2)
  in
  ignore q;
  let feature =
    (* Connected 2-edge subgraph of gc. *)
    let e0 = Lgraph.edge gc 0 in
    match Lgraph.neighbors gc e0.u with
    | (w, eid) :: _ when eid <> 0 ->
      let mask = Bitset.of_list (Lgraph.num_edges gc) [ 0; eid ] in
      ignore w;
      let sub, _ = Lgraph.with_edge_mask gc mask in
      fst (Lgraph.drop_isolated sub)
    | _ ->
      let mask = Bitset.of_list (Lgraph.num_edges gc) [ 0 ] in
      let sub, _ = Lgraph.with_edge_mask gc mask in
      fst (Lgraph.drop_isolated sub)
  in
  (g, feature)

(* --- Bounds --- *)

let test_bounds_vertex_feature () =
  let rng = Prng.make 3 in
  let g = Tgen.random_pgraph rng ~n:4 ~extra:1 ~vl:2 ~el:1 in
  let label_present = Lgraph.vertex_label (Pgraph.skeleton g) 0 in
  let f_yes = Lgraph.vertices_only ~vlabels:[| label_present |] in
  let f_no = Lgraph.vertices_only ~vlabels:[| 99 |] in
  let b_yes = Bounds.compute fast_bounds g f_yes in
  let b_no = Bounds.compute fast_bounds g f_no in
  Tgen.check_close "present vertex -> 1" 1. b_yes.Bounds.lower;
  Tgen.check_close "absent vertex -> 0" 0. b_no.Bounds.upper

let test_bounds_no_embedding () =
  let rng = Prng.make 5 in
  let g = Tgen.random_pgraph rng ~n:4 ~extra:1 ~vl:2 ~el:1 in
  let f = Lgraph.create ~vlabels:[| 5; 6 |] ~edges:[ (0, 1, 9) ] in
  let b = Bounds.compute fast_bounds g f in
  Tgen.check_close "upper 0" 0. b.Bounds.upper;
  Tgen.check_close "lower 0" 0. b.Bounds.lower

(* Triangle with exactly one uncertain edge: a feature embedding only on
   certain edges short-circuits to the all-1s fully-certain bounds (no
   cuts, no sampling); a feature embedding only on the uncertain edge has
   SIP exactly that edge's marginal, and the safe pair is tight. *)
let triangle_one_uncertain p =
  let tri =
    Lgraph.create ~vlabels:[| 0; 1; 2 |]
      ~edges:[ (0, 1, 0); (1, 2, 1); (0, 2, 2) ]
  in
  Pgraph.independent tri [ (2, p) ]

let test_bounds_fully_certain () =
  let g = triangle_one_uncertain 0.6 in
  let f = Lgraph.create ~vlabels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  let b = Bounds.compute fast_bounds g f in
  Tgen.check_close "lower 1" 1. b.Bounds.lower;
  Tgen.check_close "upper 1" 1. b.Bounds.upper;
  Tgen.check_close "lower_safe 1" 1. b.Bounds.lower_safe;
  Tgen.check_close "upper_safe 1" 1. b.Bounds.upper_safe;
  Alcotest.(check int) "one embedding" 1 b.Bounds.embeddings;
  Alcotest.(check int) "no cuts" 0 b.Bounds.cuts

let test_bounds_single_uncertain_edge () =
  let p = 0.6 in
  let g = triangle_one_uncertain p in
  let f = Lgraph.create ~vlabels:[| 0; 2 |] ~edges:[ (0, 1, 2) ] in
  let b = Bounds.compute fast_bounds g f in
  Tgen.check_close "marginal" p (Pgraph.edge_marginal g 2);
  Tgen.check_close "lower_safe = marginal" p b.Bounds.lower_safe;
  Tgen.check_close "upper_safe = marginal" p b.Bounds.upper_safe;
  Tgen.check_close "lower = marginal" p b.Bounds.lower;
  Tgen.check_close "upper = marginal" p b.Bounds.upper;
  Alcotest.(check int) "one cut" 1 b.Bounds.cuts

let prop_safe_bounds_enclose_exact_sip =
  QCheck.Test.make ~name:"lower_safe <= SIP <= upper_safe (exact)" ~count:40
    QCheck.small_int
    (fun seed ->
      let g, f = random_case (seed + 1000) in
      let b = Bounds.compute fast_bounds g f in
      let sip = Exact.sip g f in
      b.Bounds.lower_safe <= sip +. 1e-9 && sip <= b.Bounds.upper_safe +. 1e-9)

let prop_paper_bounds_near_sound =
  (* The paper's bounds rest on a conditional-independence step (Eq 16/19)
     that holds for independent edges; under positive correlation they can
     cross the true SIP (which is why accept/prune decisions default to the
     certified pair). Check the bracket on the independent model, with
     Monte-Carlo tolerance. *)
  QCheck.Test.make ~name:"paper bounds bracket SIP (independent model)" ~count:40
    QCheck.small_int
    (fun seed ->
      let g, f = random_case (seed + 2000) in
      let g = Pgraph.to_independent g in
      let b = Bounds.compute fast_bounds g f in
      let sip = Exact.sip g f in
      b.Bounds.lower <= sip +. 0.12 && sip <= b.Bounds.upper +. 0.12)

let prop_bounds_ordered =
  QCheck.Test.make ~name:"lower <= upper in both bound pairs" ~count:40
    QCheck.small_int
    (fun seed ->
      let g, f = random_case (seed + 3000) in
      let b = Bounds.compute fast_bounds g f in
      b.Bounds.lower <= b.Bounds.upper +. 1e-9
      && b.Bounds.lower_safe <= b.Bounds.upper_safe +. 1e-9)

let test_estimate_conditional () =
  let rng = Prng.make 17 in
  let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:2 ~el:1 in
  (* Pr(e0 present | anything) ~ marginal when den = true. *)
  let est =
    Bounds.estimate_conditional (Prng.make 3) g
      ~num:(fun mask -> Bitset.mem mask 0)
      ~den:(fun _ -> true)
      ~samples:4000
  in
  match est with
  | None -> Alcotest.fail "denominator must fire"
  | Some p ->
    let exact = Pgraph.edge_marginal g 0 in
    Alcotest.(check bool) "estimate near marginal" true (Float.abs (p -. exact) < 0.05)

(* --- PMI --- *)

let small_dataset seed n =
  Generator.generate
    { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
      max_vertices = 10; motif_edges = 3 }

let test_pmi_build_and_lookup () =
  let ds = small_dataset 7 8 in
  let skeletons = Array.map Pgraph.skeleton ds.graphs in
  let features =
    Selection.select skeletons { Selection.default_params with max_edges = 2; beta = 0.2 }
  in
  let pmi = Pmi.build ~config:fast_bounds ds.graphs features in
  Alcotest.(check int) "feature count" (List.length features) (Pmi.num_features pmi);
  Alcotest.(check int) "graph count" 8 (Pmi.num_graphs pmi);
  Alcotest.(check bool) "some entries" true (Pmi.filled_entries pmi > 0);
  (* Lookup consistency with support lists. *)
  List.iteri
    (fun fi (m : Selection.mined) ->
      List.iter
        (fun gi ->
          match Pmi.lookup pmi ~feature:fi ~graph:gi with
          | Some _ -> ()
          | None -> Alcotest.failf "missing entry (%d,%d)" fi gi)
        m.support)
    features;
  (* Entries exactly where the supports say, and nowhere else. *)
  List.iteri
    (fun fi (m : Selection.mined) ->
      for gi = 0 to Pmi.num_graphs pmi - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "entry (%d,%d) iff supported" fi gi)
          (List.mem gi m.support)
          (Option.is_some (Pmi.lookup pmi ~feature:fi ~graph:gi))
      done)
    features;
  Alcotest.(check int) "filled = total support"
    (List.fold_left (fun a (m : Selection.mined) -> a + List.length m.support) 0 features)
    (Pmi.filled_entries pmi)

(* --- PMI golden digest ---

   Every bound of a fixed 40-graph corpus, printed as hex floats ([%h])
   and hashed. Any change to the world sampler, to exact inference or to
   the bound logic that moves a single bit of a single entry changes the
   digest; performance work on those layers must leave it as it is. *)

let golden_digest = "b464b5dfdf1ac3b9584e5f849e37e752"

let golden_corpus () =
  Generator.generate
    {
      Generator.default_params with
      num_graphs = 40;
      num_organisms = 5;
      min_vertices = 9;
      max_vertices = 12;
      extra_edge_ratio = 0.2;
      motif_edges = 8;
      num_vertex_labels = 10;
      num_edge_labels = 3;
      foreign_motif_prob = 0.5;
      seed = 2012;
    }

(* Every mined feature of the same corpus: key, vertex labels, edges,
   support and strong support. Work on the miner must leave it as it is. *)
let golden_feature_digest = "b4ffc70edc3927df6c67ec7b80d1834b"

let feature_digest features =
  let ints l = String.concat "," (List.map string_of_int l) in
  let b = Buffer.create 65536 in
  List.iter
    (fun ({ feature = f; support; strong_support } : Selection.mined) ->
      Printf.bprintf b "%S|%s|%s|%s|%s\n" f.key
        (ints (Array.to_list (Lgraph.vertex_labels f.graph)))
        (String.concat ","
           (Array.to_list
              (Array.map
                 (fun (e : Lgraph.edge) -> Printf.sprintf "%d-%d:%d" e.u e.v e.label)
                 (Lgraph.edges f.graph))))
        (ints support) (ints strong_support))
    features;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_features () =
  Selection.select
    (Array.map Pgraph.skeleton (golden_corpus ()).graphs)
    { Selection.default_params with max_edges = 3 }

let bounds_digest pmi =
  let b = Buffer.create 65536 in
  for fi = 0 to Pmi.num_features pmi - 1 do
    for gi = 0 to Pmi.num_graphs pmi - 1 do
      match Pmi.lookup pmi ~feature:fi ~graph:gi with
      | None -> Printf.bprintf b "%d %d -\n" fi gi
      | Some e ->
        Printf.bprintf b "%d %d %h %h %h %h %d %d\n" fi gi e.Bounds.lower
          e.Bounds.upper e.Bounds.lower_safe e.Bounds.upper_safe
          e.Bounds.embeddings e.Bounds.cuts
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pmi_golden_digest () =
  let ds = golden_corpus () in
  let features = golden_features () in
  List.iter
    (fun domains ->
      let pmi = Pmi.build ~domains ds.graphs features in
      Alcotest.(check string)
        (Printf.sprintf "bounds digest, %d domains" domains)
        golden_digest (bounds_digest pmi))
    [ 1; 3 ]

let test_mining_golden_digest () =
  let features = golden_features () in
  Alcotest.(check int) "feature count" 145 (List.length features);
  Alcotest.(check string) "feature digest" golden_feature_digest
    (feature_digest features)

(* The build asks 3136 exact probabilities of this corpus; the column memo
   answers some of them without running elimination again. *)
let test_pmi_exact_memo () =
  let ds = golden_corpus () in
  let features = golden_features () in
  let count name = Psst_obs.counter_value (Psst_obs.counter name) in
  let evals = count "bounds.exact_evals" and hits = count "bounds.exact_memo_hits" in
  ignore (Pmi.build ds.graphs features);
  let evals = count "bounds.exact_evals" - evals
  and hits = count "bounds.exact_memo_hits" - hits in
  Alcotest.(check int) "evaluations + memo hits = exact probabilities asked" 3136
    (evals + hits);
  Alcotest.(check bool) "memo hits" true (hits > 0)

(* --- Pipeline golden digest ---

   Answers and every count and flag of [stats] for [Query.run] (1 and 3
   domains), [run_on] mapped over a 2-domain pool and [run_bounds_only],
   plus each [Topk.run] hit's graph and SSP bits, over the golden corpus
   and a fixed query set: a fixed and an adaptive Karp–Luby verifier, and
   a [relax_cap] that truncates the relaxed set. Three passes must give the same
   digest: cold, through a fresh cache, and again through that filled
   cache (where [Topk.run] also reads SSPs [Query.run] stored). *)

let golden_pipeline_digest = "2f87e481c2a13ef5881496721ccf33e6"

let golden_db =
  lazy
    (let ds = golden_corpus () in
     let db =
       Query.index_database
         ~mining:{ Selection.default_params with max_edges = 3 }
         ds.graphs
     in
     let rng = Prng.make 2024 in
     let queries = List.init 5 (fun _ -> fst (Generator.extract_query rng ds ~edges:4)) in
     (db, queries))

let outcome_line b (o : Query.outcome) =
  let s = o.stats in
  Printf.bprintf b "[%s] %d %b %d %d %d %d %d %d\n"
    (String.concat "," (List.map string_of_int o.answers))
    s.relaxed_count s.relaxed_truncated s.structural_candidates
    s.prob_candidates s.accepted_by_bounds s.pruned_by_bounds
    s.degraded_candidates s.verify_domains

let pipeline_digest ?cache db queries =
  let b = Buffer.create 4096 in
  List.iter
    (fun (epsilon, adaptive, relax_cap) ->
      let config =
        {
          Query.default_config with
          epsilon;
          delta = 1;
          verifier = `Smp { Verify.default_config with adaptive };
          relax_cap;
        }
      in
      List.iter
        (fun q ->
          outcome_line b (Query.run ?cache db q config);
          outcome_line b (Query.run ~domains:3 ?cache db q config);
          outcome_line b (Query.run_bounds_only ?cache db q config))
        queries;
      Psst_util.Pool.with_pool ~domains:2 (fun pool ->
          Array.iter (outcome_line b)
            (Psst_util.Pool.map_array pool ~chunk:1
               (fun q -> Query.run_on ?cache pool db q config)
               (Array.of_list queries)));
      List.iter
        (fun q ->
          let out = Topk.run ?cache db q ~k:3 config in
          Printf.bprintf b "topk %d %d %d %b:" out.stats.structural_candidates
            out.stats.verified out.stats.bound_skipped out.stats.relaxed_truncated;
          List.iter
            (fun (h : Topk.hit) ->
              Printf.bprintf b " %d/%Lx" h.graph (Int64.bits_of_float h.ssp))
            out.hits;
          Buffer.add_char b '\n')
        queries)
    [ (0.4, false, 4096); (0.4, true, 4096); (0.05, false, 3) ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pipeline_golden_digest () =
  let db, queries = Lazy.force golden_db in
  let cache = Qcache.create () in
  List.iter
    (fun (pass, cache) ->
      Alcotest.(check string) pass golden_pipeline_digest
        (pipeline_digest ?cache db queries))
    [ ("cold", None); ("cache filling", Some cache); ("cache warm", Some cache) ]

(* The [`Exact] verifier's SSP, as [%h], for every structural survivor of
   every golden query at [delta] 1 and 2: the Lemma-1 union marginal (or
   inclusion-exclusion) of [Exact.prob_any_present], pinned bit for bit. *)
let golden_exact_digest = "b34aad3a98da342910ae64be976eb837"

let test_exact_golden_digest () =
  let db, queries = Lazy.force golden_db in
  let b = Buffer.create 4096 in
  List.iter
    (fun delta ->
      let config = { Query.default_config with delta; verifier = `Exact } in
      List.iter
        (fun q ->
          let front = Query.front ~cache:None db q config in
          List.iter
            (fun gi ->
              Printf.bprintf b "%d %d %h\n" delta gi
                (Query.candidate_ssp front ~stop:None db config gi))
            front.survivors)
        queries)
    [ 1; 2 ];
  Alcotest.(check string) "exact SSP digest" golden_exact_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Pruning soundness --- *)

let pruning_env seed =
  let ds = small_dataset seed 10 in
  let skeletons = Array.map Pgraph.skeleton ds.graphs in
  let features =
    Selection.select skeletons { Selection.default_params with max_edges = 2; beta = 0.2 }
  in
  let pmi = Pmi.build ~config:fast_bounds ds.graphs features in
  (ds, pmi)

let prop_usim_bounds_exact_ssp =
  QCheck.Test.make ~name:"Usim >= exact SSP (Thm 3, tolerance for MC)" ~count:10
    QCheck.small_int
    (fun seed ->
      let ds, pmi = pruning_env (seed + 1) in
      let rng = Prng.make (seed + 77) in
      let q, _ = Generator.extract_query rng ds ~edges:4 in
      let relaxed, _ = Relax.relaxed_set q ~delta:1 in
      List.for_all
        (fun gi ->
          let prepared = Pruning.prepare pmi ~relaxed in
          let u =
            Pruning.usim (Prng.make 5) pmi prepared ~graph:gi
              ~mode:Pruning.Optimized
          in
          let exact = Verify.exact ds.graphs.(gi) relaxed in
          u >= exact -. 0.12)
        [ 0; 3; 7 ])

let prop_lsim_safe_below_exact_ssp =
  QCheck.Test.make ~name:"certified Lsim <= exact SSP (Thm 4)" ~count:10
    QCheck.small_int
    (fun seed ->
      let ds, pmi = pruning_env (seed + 50) in
      let rng = Prng.make (seed + 99) in
      let q, _ = Generator.extract_query rng ds ~edges:3 in
      let relaxed, _ = Relax.relaxed_set q ~delta:1 in
      List.for_all
        (fun gi ->
          let prepared = Pruning.prepare pmi ~relaxed in
          let _, safe =
            Pruning.lsim (Prng.make 5) pmi prepared ~graph:gi
              ~mode:Pruning.Optimized
          in
          (not (Float.is_finite safe))
          || safe <= Verify.exact ds.graphs.(gi) relaxed +. 1e-6)
        [ 0; 5; 9 ])

(* --- Verification --- *)

let test_verify_num_samples () =
  let c = { Verify.default_config with tau = 0.1; xi = 0.05 } in
  (* (4 ln 40) / 0.01 = 1475.5... -> 1476 *)
  Alcotest.(check int) "sample count" 1476 (Verify.num_samples c)

let test_verify_empty_relaxed () =
  let rng = Prng.make 3 in
  let g = Tgen.random_pgraph rng ~n:4 ~extra:1 ~vl:2 ~el:1 in
  Alcotest.(check bool) "no embeddings -> 0" true
    (Verify.exact g [ Lgraph.create ~vlabels:[| 9; 9 |] ~edges:[ (0, 1, 7) ] ] = 0.)

let test_verify_trivial_relaxation () =
  let rng = Prng.make 3 in
  let g = Tgen.random_pgraph rng ~n:4 ~extra:1 ~vl:2 ~el:1 in
  let empty = Lgraph.vertices_only ~vlabels:[||] in
  Tgen.check_close "empty rq -> 1" 1. (Verify.exact g [ empty ]);
  Tgen.check_close "smp too" 1. (Verify.smp (Prng.make 1) g [ empty ])

let prop_smp_close_to_exact =
  QCheck.Test.make ~name:"SMP estimate close to exact SSP" ~count:15
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 5) in
      let g = Tgen.random_pgraph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
      let gc = Pgraph.skeleton g in
      (* Query: 3-edge connected subgraph of gc. *)
      let ds =
        { Generator.graphs = [| g |]; organisms = [| 0 |]; motifs = [||];
          grafts = [| None |]; params = Generator.default_params }
      in
      let q, _ = Generator.extract_query rng ds ~edges:3 in
      ignore gc;
      let relaxed, _ = Relax.relaxed_set q ~delta:1 in
      let exact = Verify.exact g relaxed in
      (* tau = 0.05 guarantees |error| <= 0.05 with confidence 1 - xi;
         the assertion allows double that so the test is not flaky. *)
      let config = { Verify.default_config with tau = 0.05 } in
      let smp = Verify.smp ~config (Prng.make (seed + 9)) g relaxed in
      Float.abs (exact -. smp) < 0.1)

(* --- End-to-end pipeline --- *)

let test_pipeline_matches_ground_truth () =
  let ds = small_dataset 21 12 in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  let rng = Prng.make 31 in
  for trial = 1 to 3 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let config =
      { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
    in
    let out = Query.run db q config in
    let truth = Query.ground_truth db q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d pipeline = truth" trial)
      truth out.answers
  done

let test_pipeline_random_pick_mode_sound () =
  (* The SSPBound-style random assembly is weaker but, with certified
     bounds and exact verification, the pipeline must still be exact. *)
  let ds = small_dataset 27 10 in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  let rng = Prng.make 35 in
  for trial = 1 to 2 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let config =
      { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact;
        mode = Pruning.Random_pick }
    in
    let out = Query.run db q config in
    let truth = Query.ground_truth db q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d random-pick pipeline = truth" trial)
      truth out.Query.answers
  done

let test_pipeline_exact_scan_agrees () =
  let ds = small_dataset 33 8 in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  let rng = Prng.make 41 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
  in
  let out = Query.run db q config in
  let scan = Query.run_exact_scan db q config in
  Alcotest.(check (list int)) "pipeline = exact scan" scan.answers out.answers

let test_pipeline_stats_consistent () =
  let ds = small_dataset 55 10 in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  let rng = Prng.make 61 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let config = { Query.default_config with epsilon = 0.4; delta = 1 } in
  let out = Query.run db q config in
  let s = out.stats in
  Alcotest.(check int) "partition of structural candidates"
    s.structural_candidates
    (s.prob_candidates + s.accepted_by_bounds + s.pruned_by_bounds);
  Alcotest.(check bool) "answers within structural" true
    (List.for_all (fun _ -> true) out.answers)

(* Every bound asks for Z, but few columns sample worlds: on fresh graphs
   of the standard corpus a PMI build compiles a graph's forward sampler
   only for a column that samples its Monte-Carlo pool. *)
let test_pmi_build_compiles_samplers_lazily () =
  let ds = Generator.generate (Experiments.dataset_params Experiments.default_scale) in
  let mined =
    Selection.select (Array.map Pgraph.skeleton ds.graphs) Experiments.mining_params
  in
  let compiles = Psst_obs.counter "pgraph.sampler_compiles"
  and pools = Psst_obs.counter "bounds.world_pools" in
  let c0 = Psst_obs.counter_value compiles and p0 = Psst_obs.counter_value pools in
  ignore (Pmi.build ~domains:1 ds.graphs mined);
  let c = Psst_obs.counter_value compiles - c0 and p = Psst_obs.counter_value pools - p0 in
  Alcotest.(check bool) (Printf.sprintf "some column samples worlds (%d)" p) true (p > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d sampler compiles <= %d world pools" c p)
    true (c <= p);
  Alcotest.(check bool)
    (Printf.sprintf "%d sampler compiles for %d graphs" c (Array.length ds.graphs))
    true
    (c < Array.length ds.graphs)

(* Each graph's elimination plan is built once and kept: an index build
   over fresh graphs builds one per graph, a rebuild over the same graphs
   none, and the rebuild's bounds are the first build's. *)
let test_plans_built_once () =
  let ds = Generator.generate (Experiments.dataset_params { Experiments.default_scale with db_size = 30 }) in
  let plans = Psst_obs.counter "pgraph.plans_built" in
  let built f =
    let before = Psst_obs.counter_value plans in
    let x = f () in
    (x, Psst_obs.counter_value plans - before)
  in
  let index () = Query.index_database ~mining:Experiments.mining_params ~domains:2 ds.graphs in
  let first, fresh = built index in
  let again, reused = built index in
  Alcotest.(check int) "one plan per fresh graph" (Array.length ds.graphs) fresh;
  Alcotest.(check int) "no plan on a rebuild" 0 reused;
  Alcotest.(check string) "rebuild bounds = first build's" (bounds_digest first.pmi)
    (bounds_digest again.pmi)

let suite =
  [
    Alcotest.test_case "bounds: vertex feature" `Quick test_bounds_vertex_feature;
    Alcotest.test_case "bounds: no embedding" `Quick test_bounds_no_embedding;
    Alcotest.test_case "bounds: fully certain" `Quick test_bounds_fully_certain;
    Alcotest.test_case "bounds: single uncertain edge" `Quick
      test_bounds_single_uncertain_edge;
    QCheck_alcotest.to_alcotest prop_safe_bounds_enclose_exact_sip;
    QCheck_alcotest.to_alcotest prop_paper_bounds_near_sound;
    QCheck_alcotest.to_alcotest prop_bounds_ordered;
    Alcotest.test_case "bounds: conditional estimator" `Slow test_estimate_conditional;
    Alcotest.test_case "pmi: build & lookup" `Slow test_pmi_build_and_lookup;
    Alcotest.test_case "pmi: golden bounds digest" `Slow test_pmi_golden_digest;
    Alcotest.test_case "mining: golden feature digest" `Slow test_mining_golden_digest;
    Alcotest.test_case "pmi: exact memo accounting" `Slow test_pmi_exact_memo;
    Alcotest.test_case "pipeline: golden digest" `Slow test_pipeline_golden_digest;
    Alcotest.test_case "exact verifier: golden SSP digest" `Slow test_exact_golden_digest;
    QCheck_alcotest.to_alcotest prop_usim_bounds_exact_ssp;
    QCheck_alcotest.to_alcotest prop_lsim_safe_below_exact_ssp;
    Alcotest.test_case "verify: sample count" `Quick test_verify_num_samples;
    Alcotest.test_case "verify: no embeddings" `Quick test_verify_empty_relaxed;
    Alcotest.test_case "verify: trivial relaxation" `Quick test_verify_trivial_relaxation;
    QCheck_alcotest.to_alcotest prop_smp_close_to_exact;
    Alcotest.test_case "pipeline = ground truth" `Slow test_pipeline_matches_ground_truth;
    Alcotest.test_case "pipeline = exact scan" `Slow test_pipeline_exact_scan_agrees;
    Alcotest.test_case "pipeline random-pick sound" `Slow
      test_pipeline_random_pick_mode_sound;
    Alcotest.test_case "pipeline stats consistent" `Slow test_pipeline_stats_consistent;
    Alcotest.test_case "pmi build: samplers only for sampled columns" `Quick
      test_pmi_build_compiles_samplers_lazily;
    Alcotest.test_case "pgraph: one plan per graph, kept across builds" `Quick
      test_plans_built_once;
  ]
