(* Differential suite for the cross-query verification cache (Qcache):
   cached and cold runs must be bit-identical — same answer sets, same
   pruning counters, same SSP values — across randomized query sequences
   with repeats, at 1 and 4 domains, through run / run_on / Topk.run,
   across database growth (add_graphs keeps the lineage, so the grown
   database reuses the entries of its parent) and a save → load → query
   round trip (a loaded database is a fresh lineage and shares nothing).
   Scope-level cases pin which databases share entries: a database and
   its extension do; two separately indexed databases and two different
   extensions of one parent (a fork) never do. *)

module Prng = Psst_util.Prng

open Tgen.Fixtures

(* A sequence with deliberate repeats and near-duplicates: repeats are
   what a warm cache actually serves. *)
let query_sequence rng ds ~count =
  let distinct =
    List.init (max 2 (count / 2)) (fun _ ->
        fst (Generator.extract_query rng ds ~edges:3))
  in
  let arr = Array.of_list distinct in
  List.init count (fun i ->
      if i < Array.length arr then arr.(i)
      else arr.(Prng.int rng (Array.length arr)))

(* Everything in an outcome except wall-clock times must match bitwise. *)
let check_outcome msg (a : Query.outcome) (b : Query.outcome) =
  Alcotest.(check (list int)) (msg ^ ": answers") a.Query.answers b.Query.answers;
  let counts (o : Query.outcome) =
    let s = o.Query.stats in
    ( s.relaxed_count, s.relaxed_truncated, s.structural_candidates,
      s.prob_candidates, s.accepted_by_bounds, s.pruned_by_bounds,
      s.degraded_candidates )
  in
  Alcotest.(check bool) (msg ^ ": counters") true (counts a = counts b)

let counter_value name = Psst_obs.counter_value (Psst_obs.counter name)

let test_run_differential () =
  let ds, db = make_db 4201 16 in
  let qs = query_sequence (Prng.make 7) ds ~count:10 in
  let adaptive_cfg =
    { base_config with
      verifier = `Smp { fast_smp with Verify.adaptive = true } }
  in
  List.iter
    (fun domains ->
      List.iter
        (fun (cname, config) ->
          let cold = List.map (fun q -> Query.run ~domains db q config) qs in
          let cache = Qcache.create () in
          let hits_before = counter_value "cache.hit" in
          let warm =
            List.map (fun q -> Query.run ~domains ~cache db q config) qs
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%dd: repeats hit the cache" cname domains)
            true
            (counter_value "cache.hit" > hits_before);
          List.iteri
            (fun i (a, b) ->
              check_outcome
                (Printf.sprintf "%s/%dd: query %d" cname domains i) a b)
            (List.combine cold warm);
          (* A second pass over the same sequence is fully warm and must
             still be bit-identical. *)
          let warm2 =
            List.map (fun q -> Query.run ~domains ~cache db q config) qs
          in
          List.iteri
            (fun i (a, b) ->
              check_outcome
                (Printf.sprintf "%s/%dd: warm pass, query %d" cname domains i)
                a b)
            (List.combine cold warm2))
        [ ("smp", base_config); ("exact", { base_config with verifier = `Exact });
          ("adaptive", adaptive_cfg) ])
    [ 1; 4 ]

(* Queries mapped over one pool, each through [Query.run_on] on that
   pool — the server's job path. *)
let run_pool ?cache pool db qs config =
  Psst_util.Pool.map_array pool ~chunk:1
    (fun q -> Query.run_on ?cache pool db q config)
    (Array.of_list qs)
  |> Array.to_list

let test_pool_differential () =
  let ds, db = make_db 4211 14 in
  let qs = query_sequence (Prng.make 11) ds ~count:8 in
  List.iter
    (fun domains ->
      let cold, warm =
        Psst_util.Pool.with_pool ~domains (fun pool ->
            let cache = Qcache.create () in
            ( run_pool pool db qs base_config,
              run_pool ~cache pool db qs base_config ))
      in
      List.iteri
        (fun i (a, b) ->
          check_outcome (Printf.sprintf "batch/%dd: query %d" domains i) a b)
        (List.combine cold warm);
      (* Cached pool answers also match per-query runs (the documented
         run_on invariant survives the cache). *)
      List.iteri
        (fun i (q, b) ->
          check_outcome
            (Printf.sprintf "batch/%dd vs run: query %d" domains i)
            (Query.run db q base_config) b)
        (List.combine qs warm))
    [ 1; 4 ]

let test_topk_differential () =
  let ds, db = make_db 4221 16 in
  let qs = query_sequence (Prng.make 13) ds ~count:6 in
  let bits (h : Topk.hit) = (h.Topk.graph, Int64.bits_of_float h.Topk.ssp) in
  let cold = List.map (fun q -> Topk.run db q ~k:3 base_config) qs in
  let cache = Qcache.create () in
  let warm = List.map (fun q -> Topk.run ~cache db q ~k:3 base_config) qs in
  List.iteri
    (fun i ((a : Topk.outcome), (b : Topk.outcome)) ->
      Alcotest.(check (list (pair int int64)))
        (Printf.sprintf "topk: query %d hits bit-identical" i)
        (List.map bits a.Topk.hits) (List.map bits b.Topk.hits);
      Alcotest.(check int)
        (Printf.sprintf "topk: query %d verified count" i)
        a.Topk.stats.verified b.Topk.stats.verified)
    (List.combine cold warm)

(* The queries of [qs], each once: a first pass over them can only hit
   entries stored before it. *)
let distinct qs =
  List.sort_uniq (fun a b -> compare (Lgraph.to_string a) (Lgraph.to_string b)) qs

let test_add_graphs_keeps_cache () =
  let ds, db = make_db 4231 12 in
  let qs = distinct (query_sequence (Prng.make 17) ds ~count:6) in
  let cache = Qcache.create () in
  (* Warm the cache thoroughly against the original database. *)
  List.iter (fun q -> ignore (Query.run ~cache db q base_config)) qs;
  Alcotest.(check bool) "cache holds entries" true (Qcache.entries cache > 0);
  let extra, _ = make_db 4232 3 in
  let db2 = Query.add_graphs db extra.Generator.graphs in
  let cold2 = List.map (fun q -> Query.run db2 q base_config) qs in
  let hits_before = counter_value "cache.hit"
  and flushes_before = counter_value "cache.flush" in
  let warm2 = List.map (fun q -> Query.run ~cache db2 q base_config) qs in
  Alcotest.(check bool) "the grown database hits its parent's entries" true
    (counter_value "cache.hit" > hits_before);
  Alcotest.(check int) "nothing flushed" flushes_before
    (counter_value "cache.flush");
  List.iteri
    (fun i (a, b) ->
      check_outcome (Printf.sprintf "post-add_graphs: query %d" i) a b)
    (List.combine cold2 warm2)

let with_tmp f =
  let path = Filename.temp_file "psst_cache" ".store" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let test_save_load_roundtrip () =
  let ds, db = make_db 4241 12 in
  let qs = distinct (query_sequence (Prng.make 19) ds ~count:6) in
  let cache = Qcache.create () in
  (* Warm against the in-memory database, then reload from disk and keep
     using the same cache: the loaded database is a fresh lineage, so it
     reads none of the in-memory entries and drops none of them. *)
  let before = List.map (fun q -> Query.run ~cache db q base_config) qs in
  with_tmp (fun path ->
      Query.save_database path db;
      let loaded = Query.load_database path in
      let hits_before = counter_value "cache.hit" in
      let after = List.map (fun q -> Query.run ~cache loaded q base_config) qs in
      Alcotest.(check int) "the loaded database's first pass hits nothing"
        hits_before (counter_value "cache.hit");
      List.iteri
        (fun i (a, b) ->
          check_outcome (Printf.sprintf "save/load: query %d" i) a b)
        (List.combine before after);
      (* And cached-on-loaded equals cold-on-loaded. *)
      List.iteri
        (fun i (q, b) ->
          check_outcome
            (Printf.sprintf "save/load cold: query %d" i)
            (Query.run loaded q base_config) b)
        (List.combine qs after);
      let misses_before = counter_value "cache.miss" in
      List.iter (fun q -> ignore (Query.run ~cache db q base_config)) qs;
      Alcotest.(check int) "the in-memory entries survived the loaded pass"
        misses_before (counter_value "cache.miss"))

let test_eviction_is_bounded () =
  (* A tiny cache must keep answers identical while evicting. *)
  let ds, db = make_db 4251 12 in
  let qs = query_sequence (Prng.make 23) ds ~count:8 in
  let cache = Qcache.create ~query_cap:2 ~value_cap:8 () in
  let evicts_before = counter_value "cache.evict" in
  let cold = List.map (fun q -> Query.run db q base_config) qs in
  let warm = List.map (fun q -> Query.run ~cache db q base_config) qs in
  List.iteri
    (fun i (a, b) ->
      check_outcome (Printf.sprintf "tiny cache: query %d" i) a b)
    (List.combine cold warm);
  Alcotest.(check bool) "tiny cache evicted" true
    (counter_value "cache.evict" > evicts_before);
  Alcotest.(check bool) "value tables stay within bound" true
    (Qcache.entries cache <= 2 * 2 + 3 * 8)

let test_invalid_caps_rejected () =
  (* Caps below 1 would make the FIFO eviction loop spin forever on the
     first insert; create must reject them up front. *)
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "query_cap 0" (fun () -> Qcache.create ~query_cap:0 ());
  expect_invalid "value_cap 0" (fun () -> Qcache.create ~value_cap:0 ());
  expect_invalid "negative caps" (fun () ->
      Qcache.create ~query_cap:(-1) ~value_cap:(-8) ())

(* Scope-level sharing: [ssp db ~graph v] looks up the SSP of graph
   [graph] for one query through a scope armed for [db], returning the
   cached value if there is one and storing and returning [v] if not. *)
let scope_cases () =
  let ds, db = make_db 4229 8 in
  let q = fst (Generator.extract_query (Prng.make 13) ds ~edges:3) in
  let cache = Qcache.create () in
  let ssp (db : Query.database) ~graph v =
    Qcache.ssp
      (Qcache.scope (Some cache) ~lineage:db.lineage ~q ~delta:1 ~relax_cap:64)
      ~graph ~stop:None ~seed:0 `Exact ~compute:(fun () -> v)
  in
  (ds, db, ssp)

let test_separate_indexes_share_nothing () =
  let ds, db, ssp = scope_cases () in
  let twin =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.Generator.graphs
  in
  Alcotest.(check (float 0.)) "db stores" 0.25 (ssp db ~graph:0 0.25);
  Alcotest.(check (float 0.)) "an index of the same graphs computes" 0.75
    (ssp twin ~graph:0 0.75);
  Alcotest.(check (float 0.)) "db keeps its own entry" 0.25 (ssp db ~graph:0 0.5)

let test_extension_shares () =
  let _, db, ssp = scope_cases () in
  let grown = Query.add_graphs db [| Corpus.get db.Query.graphs 0 |] in
  Alcotest.(check (float 0.)) "db stores" 0.25 (ssp db ~graph:0 0.25);
  Alcotest.(check (float 0.)) "its extension reads the entry" 0.25
    (ssp grown ~graph:0 0.75);
  Alcotest.(check (float 0.)) "the extension stores" 0.5
    (ssp grown ~graph:8 0.5);
  let grown2 = Query.add_graphs grown [| Corpus.get db.Query.graphs 1 |] in
  Alcotest.(check (float 0.)) "a second extension reads both" 0.5
    (ssp grown2 ~graph:8 0.75)

(* Two different extensions of one parent hold different graphs at the
   same index: the second is a fork and must not read the first's
   entries, at scope level or through whole runs. *)
let test_fork_shares_nothing () =
  let ds, db, ssp = scope_cases () in
  let a, _ = make_db 4233 3 and b, _ = make_db 4234 3 in
  let db_a = Query.add_graphs db a.Generator.graphs in
  let db_b = Query.add_graphs db b.Generator.graphs in
  Alcotest.(check (float 0.)) "the first extension stores" 0.25
    (ssp db_a ~graph:8 0.25);
  Alcotest.(check (float 0.)) "the fork computes its own graph 8" 0.75
    (ssp db_b ~graph:8 0.75);
  let qs = distinct (query_sequence (Prng.make 31) ds ~count:6) in
  let cache = Qcache.create () in
  List.iter
    (fun (name, grown) ->
      List.iteri
        (fun i q ->
          check_outcome
            (Printf.sprintf "%s: query %d" name i)
            (Query.run grown q base_config)
            (Query.run ~cache grown q base_config))
        qs)
    [ ("first extension", db_a); ("fork", db_b) ]

(* The shared [Pruning.prepared] entries index features by position, so
   growing a PMI must keep the parent's features in the parent's order:
   built, and grown through [Pmi.add_graphs] and through
   [Query.add_graphs] on a built and on a mapped database. *)
let test_growth_keeps_feature_order () =
  let _, db = make_db 4271 10 in
  let extra, _ = make_db 4272 4 in
  let keys pmi =
    Array.to_list
      (Array.map
         (fun (f : Selection.feature) -> (f.key, Lgraph.to_string f.graph))
         (Pmi.features pmi))
  in
  let parent = keys db.Query.pmi in
  Alcotest.(check bool) "the parent has features" true (parent <> []);
  let same what pmi =
    Alcotest.(check (list (pair string string))) what parent (keys pmi)
  in
  same "Pmi.add_graphs" (Pmi.add_graphs db.pmi extra.Generator.graphs);
  same "Query.add_graphs, built"
    (Query.add_graphs db extra.Generator.graphs).pmi;
  with_tmp (fun path ->
      Query.save_database path db;
      let mapped = Query.load_database ~mmap:true path in
      same "mapped" mapped.pmi;
      same "Query.add_graphs, mapped"
        (Query.add_graphs mapped extra.Generator.graphs).pmi)

let suite =
  [
    Alcotest.test_case "run: cached ≡ cold (1 and 4 domains)" `Slow
      test_run_differential;
    Alcotest.test_case "invalid caps rejected" `Quick test_invalid_caps_rejected;
    Alcotest.test_case "run_on pool: cached ≡ cold" `Slow
      test_pool_differential;
    Alcotest.test_case "topk: cached ≡ cold (bitwise SSPs)" `Quick
      test_topk_differential;
    Alcotest.test_case "add_graphs keeps the cache; answers stay fresh" `Quick
      test_add_graphs_keeps_cache;
    Alcotest.test_case "save → load → query sees no stale entries" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "separate indexes of one corpus share nothing" `Quick
      test_separate_indexes_share_nothing;
    Alcotest.test_case "a database and its extension share entries" `Quick
      test_extension_shares;
    Alcotest.test_case "two extensions of one parent share nothing" `Quick
      test_fork_shares_nothing;
    Alcotest.test_case "growth keeps the feature order" `Quick
      test_growth_keeps_feature_order;
    Alcotest.test_case "bounded eviction preserves answers" `Quick
      test_eviction_is_bounded;
  ]
