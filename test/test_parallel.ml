(* The domain-pool scheduler and the parallel query paths built on it:
   Pool primitives, bit-identical answers across pool sizes, and
   incremental indexing consistency. *)

module Pool = Psst_util.Pool
module Prng = Psst_util.Prng

open Tgen.Fixtures

(* --- Pool primitives --- *)

let test_pool_map_matches_sequential () =
  let a = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) a in
  List.iter
    (fun domains ->
      let got =
        Pool.with_pool ~domains (fun p ->
            Pool.map_array p (fun i -> (i * i) + 1) a)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "map_array @ %d domains" domains)
        expected got)
    [ 1; 2; 4 ]

let test_pool_map_chunked_ordering () =
  let a = Array.init 37 string_of_int in
  let got =
    Pool.with_pool ~domains:3 (fun p -> Pool.map_array p ~chunk:2 String.length a)
  in
  Alcotest.(check (array int)) "chunked ordering" (Array.map String.length a) got

let test_pool_iter_range_covers () =
  Pool.with_pool ~domains:4 (fun p ->
      let hits = Array.make 200 0 in
      Pool.iter_range p 200 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_empty_and_sequential () =
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "size 1" 1 (Pool.size p);
      Alcotest.(check (array int)) "empty input" [||]
        (Pool.map_array p (fun x -> x) [||]);
      Pool.iter_range p 0 (fun _ -> Alcotest.fail "must not be called"))

let test_pool_propagates_exception () =
  Pool.with_pool ~domains:3 (fun p ->
      match Pool.iter_range p 64 (fun i -> if i = 57 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_reused_across_calls () =
  Pool.with_pool ~domains:3 (fun p ->
      for round = 1 to 5 do
        let got = Pool.map_array p (fun i -> i + round) (Array.init 20 Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 20 (fun i -> i + round))
          got
      done)

let test_prng_stream_independent_of_order () =
  let draw i = Prng.int (Prng.stream ~seed:42 i) 1_000_000 in
  let forward = List.init 10 draw in
  let backward = List.rev (List.init 10 (fun i -> draw (9 - i))) in
  Alcotest.(check (list int)) "stream i independent of draw order" forward backward;
  Alcotest.(check bool) "distinct streams differ" true
    (List.sort_uniq compare forward |> List.length > 5)

(* --- Determinism of the parallel query paths --- *)

let counters (s : Query.stats) =
  ( s.structural_candidates,
    s.prob_candidates,
    s.accepted_by_bounds,
    s.pruned_by_bounds )

let test_run_deterministic_across_domains () =
  let ds, db = make_db 91 30 in
  let rng = Prng.make 17 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1;
      verifier = `Smp fast_smp }
  in
  for trial = 1 to 3 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let seq = Query.run ~domains:1 db q config in
    let par = Query.run ~domains:4 db q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d answers" trial)
      seq.Query.answers par.Query.answers;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d pruning counters" trial)
      true
      (counters seq.Query.stats = counters par.Query.stats)
  done

let test_run_on_matches_run () =
  let ds, db = make_db 93 20 in
  let rng = Prng.make 29 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1;
      verifier = `Smp fast_smp }
  in
  let queries = List.init 4 (fun _ -> fst (Generator.extract_query rng ds ~edges:4)) in
  let solo = List.map (fun q -> Query.run db q config) queries in
  let batch =
    Psst_util.Pool.with_pool ~domains:4 (fun pool ->
        Psst_util.Pool.map_array pool ~chunk:1
          (fun q -> Query.run_on pool db q config)
          (Array.of_list queries)
        |> Array.to_list)
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (list int))
        (Printf.sprintf "query %d batch = solo" i)
        a.Query.answers b.Query.answers)
    (List.combine solo batch)

let test_stats_verification_counters () =
  let ds, db = make_db 95 20 in
  let rng = Prng.make 41 in
  let q, _ = Generator.extract_query rng ds ~edges:4 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1;
      verifier = `Smp fast_smp }
  in
  let out = Query.run ~domains:2 db q config in
  Alcotest.(check int) "verify_domains records the pool size" 2
    out.Query.stats.verify_domains;
  Alcotest.(check bool) "cpu time covers at least the wall time" true
    (out.Query.stats.prob_candidates = 0
    || out.Query.stats.t_verification_cpu
       >= out.Query.stats.t_verification *. 0.5)

(* --- Incremental indexing: add_graph equals indexing from scratch --- *)

let test_add_graph_consistent () =
  let ds =
    Generator.generate
      { Generator.default_params with num_graphs = 10; seed = 97;
        min_vertices = 6; max_vertices = 10; motif_edges = 3 }
  in
  let mining = { Selection.default_params with max_edges = 2; beta = 0.2 } in
  let head = Array.sub ds.graphs 0 9 in
  let last = ds.graphs.(9) in
  let db_inc =
    Query.add_graph
      (Query.index_database ~mining ~bounds:fast_bounds head)
      last
  in
  let db_full = Query.index_database ~mining ~bounds:fast_bounds ds.graphs in
  (* Exact verification + certified bounds make both pipelines exact, so
     the answer sets must coincide even though the incremental index mines
     no new features (its bounds may be looser). *)
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Exact }
  in
  let rng = Prng.make 53 in
  for trial = 1 to 3 do
    let q, _ = Generator.extract_query rng ds ~edges:4 in
    let a = Query.run db_full q config in
    let b = Query.run db_inc q config in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d incremental = from-scratch" trial)
      a.Query.answers b.Query.answers
  done

(* An index build is the same on any number of domains: the images
   written at 1, 2 and 4 domains are equal byte for byte in every section
   but [pmi.meta], which holds the build's time. Each build gets freshly
   generated graphs, so their plans are built on the pool too. *)
let test_index_image_across_domains () =
  let graphs () =
    (Generator.generate
       (Experiments.dataset_params { Experiments.default_scale with db_size = 40; seed = 17 }))
      .graphs
  in
  let image domains =
    let db = Query.index_database ~mining:Experiments.mining_params ~domains (graphs ()) in
    let path = Filename.temp_file "psst_parallel" ".psst" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Query.save_database path db;
        List.filter
          (fun (s : Psst_store.section) -> s.name <> "pmi.meta")
          (Psst_store.read_file path ~kind:Psst_store.Database))
  in
  let one = image 1 in
  Alcotest.(check bool) "image has sections" true (List.length one > 3);
  List.iter
    (fun domains ->
      let other = image domains in
      Alcotest.(check (list string))
        (Printf.sprintf "section names @ %d domains" domains)
        (List.map (fun (s : Psst_store.section) -> s.name) one)
        (List.map (fun (s : Psst_store.section) -> s.name) other);
      List.iter2
        (fun (a : Psst_store.section) (b : Psst_store.section) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %d domains = @ 1 domain" a.name domains)
            true (a.payload = b.payload))
        one other)
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "pool: map = sequential map" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool: chunked ordering" `Quick test_pool_map_chunked_ordering;
    Alcotest.test_case "pool: iter_range covers once" `Quick test_pool_iter_range_covers;
    Alcotest.test_case "pool: empty & sequential" `Quick test_pool_empty_and_sequential;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool: reuse across calls" `Quick test_pool_reused_across_calls;
    Alcotest.test_case "prng: streams order-independent" `Quick
      test_prng_stream_independent_of_order;
    Alcotest.test_case "query: domains 1 = domains 4" `Slow
      test_run_deterministic_across_domains;
    Alcotest.test_case "query: run_on pool = run" `Slow test_run_on_matches_run;
    Alcotest.test_case "query: parallel stats counters" `Slow
      test_stats_verification_counters;
    Alcotest.test_case "query: add_graph = reindex" `Slow test_add_graph_consistent;
    Alcotest.test_case "index_database: 1 = 2 = 4 domains, image bytes" `Slow
      test_index_image_across_domains;
  ]
