(* Differential suite for the cross-query verification cache (Qcache):
   cached and cold runs must be bit-identical — same answer sets, same
   pruning counters, same SSP values — across randomized query sequences
   with repeats, at 1 and 4 domains, through run / run_on / Topk.run,
   across database mutation (add_graphs invalidates) and a save → load →
   query round trip (physical-identity invalidation means a freshly
   loaded database never sees stale embeddings). *)

module Prng = Psst_util.Prng

let fast_bounds = { Bounds.default_config with mc_samples = 400 }
let fast_smp = { Verify.default_config with tau = 0.3 }

let make_db seed n =
  let ds =
    Generator.generate
      { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
        max_vertices = 10; motif_edges = 3 }
  in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  (ds, db)

let base_config =
  { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Smp fast_smp }

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

let test_invalidation_after_add_graphs () =
  let ds, db = make_db 4231 12 in
  let qs = query_sequence (Prng.make 17) ds ~count:6 in
  let cache = Qcache.create () in
  (* Warm the cache thoroughly against the original database. *)
  List.iter (fun q -> ignore (Query.run ~cache db q base_config)) qs;
  Alcotest.(check bool) "cache holds entries" true (Qcache.entries cache > 0);
  let extra, _ = make_db 4232 3 in
  let db2 = Query.add_graphs db extra.Generator.graphs in
  let flushes_before = counter_value "cache.flush" in
  let cold2 = List.map (fun q -> Query.run db2 q base_config) qs in
  let warm2 = List.map (fun q -> Query.run ~cache db2 q base_config) qs in
  Alcotest.(check bool) "arming against the grown database flushed" true
    (counter_value "cache.flush" > flushes_before);
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
  let qs = query_sequence (Prng.make 19) ds ~count:6 in
  let cache = Qcache.create () in
  (* Warm against the in-memory database, then reload from disk and keep
     using the same cache: the loaded database is a fresh physical value,
     so the scope must flush rather than serve stale embeddings. *)
  let before = List.map (fun q -> Query.run ~cache db q base_config) qs in
  with_tmp (fun path ->
      Query.save_database path db;
      let loaded = Query.load_database path in
      let after = List.map (fun q -> Query.run ~cache loaded q base_config) qs in
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
        (List.combine qs after))

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

let test_flush_drops_entries () =
  let ds, db = make_db 4261 10 in
  let qs = query_sequence (Prng.make 29) ds ~count:4 in
  let cache = Qcache.create () in
  let before = List.map (fun q -> Query.run ~cache db q base_config) qs in
  Alcotest.(check bool) "entries present before flush" true
    (Qcache.entries cache > 0);
  Qcache.flush cache;
  Alcotest.(check int) "flush empties every table" 0 (Qcache.entries cache);
  let after = List.map (fun q -> Query.run ~cache db q base_config) qs in
  List.iteri
    (fun i (a, b) -> check_outcome (Printf.sprintf "post-flush: query %d" i) a b)
    (List.combine before after)

(* Scopes of two databases live at once, as when a server maps jobs of
   two epochs over one pool: once the newer database armed the cache,
   the older scope neither reads its entries nor stores its own. *)
let test_stale_scope_bypasses () =
  let ds, db0 = make_db 4229 8 in
  let db1 = Query.add_graphs db0 [| Corpus.get db0.Query.graphs 0 |] in
  let q = fst (Generator.extract_query (Prng.make 13) ds ~edges:3) in
  let cache = Qcache.create () in
  let scope (db : Query.database) =
    Qcache.scope (Some cache) ~graphs:db.graphs ~pmi:db.pmi ~q ~delta:1
      ~relax_cap:64
  in
  let ssp s v =
    Qcache.ssp s ~graph:0 ~stop:None ~seed:0 `Exact ~compute:(fun () -> v)
  in
  let old_scope = scope db0 in
  let new_scope = scope db1 in
  Alcotest.(check (float 0.)) "new scope computes" 0.25 (ssp new_scope 0.25);
  Alcotest.(check (float 0.)) "old scope does not read the new entry" 0.75
    (ssp old_scope 0.75);
  Alcotest.(check (float 0.)) "old scope stored nothing" 0.25 (ssp new_scope 0.5)

let suite =
  [
    Alcotest.test_case "run: cached ≡ cold (1 and 4 domains)" `Slow
      test_run_differential;
    Alcotest.test_case "invalid caps rejected" `Quick test_invalid_caps_rejected;
    Alcotest.test_case "flush drops all entries; answers stay fresh" `Quick
      test_flush_drops_entries;
    Alcotest.test_case "run_on pool: cached ≡ cold" `Slow
      test_pool_differential;
    Alcotest.test_case "topk: cached ≡ cold (bitwise SSPs)" `Quick
      test_topk_differential;
    Alcotest.test_case "add_graphs invalidates; answers stay fresh" `Quick
      test_invalidation_after_add_graphs;
    Alcotest.test_case "save → load → query sees no stale entries" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "stale scope neither reads nor stores" `Quick
      test_stale_scope_bypasses;
    Alcotest.test_case "bounded eviction preserves answers" `Quick
      test_eviction_is_bounded;
  ]
