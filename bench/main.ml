(* Benchmark entry point.

   Usage: main.exe [fig9|fig10|fig11|fig12|fig13|fig14|ablation|parallel|store|obs|serve|shard|chaos|ingest|replica|verify|micro|all] [--quick]

   Each figN target regenerates the corresponding figure of the paper's
   evaluation section (§6) at a scaled-down workload (see DESIGN.md §4-5 and
   EXPERIMENTS.md); [store] measures the persistent index (cold PMI build
   vs. load-from-disk, DESIGN.md §9) and emits machine-readable
   BENCH_store.json; [micro] runs Bechamel micro-benchmarks of the kernel
   operations. No argument runs everything. *)

open Bechamel

(* Nearest-rank percentile of sorted samples, the ledger's rule
   ([Quantile]); nan when there are none. *)
let percentile sorted q =
  if Array.length sorted = 0 then nan else Quantile.percentile sorted q

(* Flat mmap-ready image vs eager decode at scale (DESIGN.md §15): index a
   large synthetic corpus once, persist it in both layouts, then measure
   time-to-first-query (load + one query, the cold-start metric a worker
   restart pays) for the eager decode of the classic layout against the
   zero-copy mapping of the flat one. The mmap-backed database must answer
   bit-identically to the eager one on every probe query. Full runs use
   10^4 graphs; --quick scales down to stay inside the CI time budget. *)
let store_flat ~scale ppf =
  Format.fprintf ppf
    "@.=== Store: flat mmap image vs eager decode (%s scale) ===@."
    (if scale.Experiments.db_size >= 120 then "10k graphs" else "quick");
  let n = if scale.Experiments.db_size >= 120 then 10_000 else 1_000 in
  (* [max_edges = 3] mines a feature-rich index — the regime where the
     O(features x graphs) eager decode dominates cold start; cheap bound
     knobs keep the one-off single-core build tractable. *)
  let params =
    {
      (Experiments.dataset_params scale) with
      Generator.num_graphs = n;
    }
  in
  let ds = Generator.generate params in
  let graphs = ds.Generator.graphs in
  let mining = { Selection.default_params with Selection.max_edges = 3 } in
  let bounds =
    {
      Bounds.default_config with
      Bounds.mc_samples = 16;
      emb_cap = 4;
      cut_cap = 8;
      clique_budget = 1_000;
    }
  in
  let domains = max 1 (Domain.recommended_domain_count () - 1) in
  let db, t_index =
    Psst_util.Timer.time (fun () ->
        Query.index_database ~mining ~bounds ~domains graphs)
  in
  Format.fprintf ppf
    "indexed %d graphs in %.1f s (%d features, %d filled PMI entries, %d \
     domains)@."
    n t_index
    (List.length db.Query.features)
    (Pmi.filled_entries db.Query.pmi)
    domains;
  let eager_path = Filename.temp_file "psst_bench_eager" ".db" in
  let flat_path = Filename.temp_file "psst_bench_flat" ".db" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ eager_path; flat_path ])
    (fun () ->
      Query.save_database eager_path db;
      Query.save_database ~flat:true flat_path db;
      let file_bytes p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> in_channel_length ic)
      in
      let eager_bytes = file_bytes eager_path in
      let flat_bytes = file_bytes flat_path in
      let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
      let nq = max 3 (min 4 scale.Experiments.queries_per_point) in
      let queries =
        List.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
      in
      let config = Query.default_config in
      let first = List.hd queries in
      (* Time-to-first-query: loader + one answered query, cold. The first
         query runs at a selective threshold (the regime a cold server
         actually faces — the index prunes nearly everything and the lazy
         corpus decodes only the few survivors); the differential probe
         below still exercises the default, heavier config. A full major
         collection first keeps one loader's garbage from being charged to
         the other's clock. *)
      let first_config = { config with Query.delta = 0; epsilon = 0.9 } in
      let ttfq loader =
        Gc.full_major ();
        let ldb, t_load = Psst_util.Timer.time loader in
        let _, t_q =
          Psst_util.Timer.time (fun () -> Query.run ldb first first_config)
        in
        (ldb, t_load, t_load +. t_q)
      in
      let mmap_db, t_load_mmap, ttfq_mmap =
        ttfq (fun () -> Query.load_database ~mmap:true flat_path)
      in
      let eager_db, t_load_eager, ttfq_eager =
        ttfq (fun () -> Query.load_database eager_path)
      in
      let probe ldb =
        List.map
          (fun q ->
            let o = Query.run ldb q config in
            ( o.Query.answers,
              o.Query.stats.structural_candidates,
              o.Query.stats.prob_candidates,
              o.Query.stats.accepted_by_bounds,
              o.Query.stats.pruned_by_bounds ))
          queries
      in
      let identical = probe eager_db = probe mmap_db in
      let speedup = if ttfq_mmap > 0. then ttfq_eager /. ttfq_mmap else infinity in
      Format.fprintf ppf
        "@[<v>eager file           %d bytes@,\
         flat file            %d bytes (%.1f bytes/graph)@,\
         eager load           %.3f s@,\
         mmap load            %.3f s@,\
         TTFQ eager           %.3f s@,\
         TTFQ mmap            %.3f s@,\
         TTFQ speedup         %.1fx@,\
         answers identical    %b (%d queries)@]@."
        eager_bytes flat_bytes
        (float_of_int flat_bytes /. float_of_int n)
        t_load_eager t_load_mmap ttfq_eager ttfq_mmap speedup identical nq;
      let json =
        Printf.sprintf
          "  \"flat\": {\n\
          \    \"db_size\": %d,\n\
          \    \"features\": %d,\n\
          \    \"filled_entries\": %d,\n\
          \    \"index_build_s\": %.3f,\n\
          \    \"eager_file_bytes\": %d,\n\
          \    \"flat_file_bytes\": %d,\n\
          \    \"flat_bytes_per_graph\": %.1f,\n\
          \    \"eager_load_s\": %.6f,\n\
          \    \"mmap_load_s\": %.6f,\n\
          \    \"ttfq_eager_s\": %.6f,\n\
          \    \"ttfq_mmap_s\": %.6f,\n\
          \    \"ttfq_speedup\": %.2f,\n\
          \    \"queries\": %d,\n\
          \    \"identical_answers\": %b\n\
          \  }"
          n
          (List.length db.Query.features)
          (Pmi.filled_entries db.Query.pmi)
          t_index eager_bytes flat_bytes
          (float_of_int flat_bytes /. float_of_int n)
          t_load_eager t_load_mmap ttfq_eager ttfq_mmap speedup nq identical
      in
      (json, identical))

(* Cold PMI build vs. load-from-disk on the Fig 9 workload. The loaded
   index must answer bit-identically (same answers, same pruning counters),
   so the comparison also doubles as an end-to-end determinism check. *)
let store ~scale ppf =
  Format.fprintf ppf
    "@.=== Store: cold index build vs load-from-disk (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features, t_mine =
    Psst_util.Timer.time (fun () ->
        Selection.select skeletons Experiments.mining_params)
  in
  let pmi, t_cold = Psst_util.Timer.time (fun () -> Pmi.build graphs features) in
  let path = Filename.temp_file "psst_bench" ".pmi" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let () = Pmi.save path ~db:graphs pmi in
      let bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> in_channel_length ic)
      in
      let loaded, t_load =
        Psst_util.Timer.time (fun () -> Pmi.load path ~db:graphs)
      in
      let structural = Structural.build skeletons features ~emb_cap:64 in
      let mk pmi =
        { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 }
      in
      let db_fresh = mk pmi and db_loaded = mk loaded in
      let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
      let nq = max 4 scale.Experiments.queries_per_point in
      let queries =
        List.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
      in
      let config = Query.default_config in
      let identical =
        List.for_all
          (fun q ->
            let a = Query.run db_fresh q config in
            let b = Query.run db_loaded q config in
            a.Query.answers = b.Query.answers
            && a.stats.relaxed_count = b.stats.relaxed_count
            && a.stats.structural_candidates = b.stats.structural_candidates
            && a.stats.prob_candidates = b.stats.prob_candidates
            && a.stats.accepted_by_bounds = b.stats.accepted_by_bounds
            && a.stats.pruned_by_bounds = b.stats.pruned_by_bounds)
          queries
      in
      let speedup = if t_load > 0. then t_cold /. t_load else infinity in
      Format.fprintf ppf
        "@[<v>db size            %d graphs@,\
         features           %d@,\
         filled entries     %d@,\
         mining             %.3f s@,\
         cold Pmi.build     %.3f s@,\
         load from disk     %.3f s@,\
         speedup            %.1fx@,\
         index file         %d bytes@,\
         answers identical  %b (%d queries)@]@."
        (Array.length graphs) (List.length features)
        (Pmi.filled_entries pmi) t_mine t_cold t_load speedup bytes identical nq;
      (* Tentpole phase: flat mmap image vs eager decode at scale. *)
      let flat_json, flat_identical = store_flat ~scale ppf in
      let oc = open_out "BENCH_store.json" in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Printf.fprintf oc
            "{\n\
            \  \"workload\": \"fig9\",\n\
            \  \"db_size\": %d,\n\
            \  \"features\": %d,\n\
            \  \"filled_entries\": %d,\n\
            \  \"mine_s\": %.6f,\n\
            \  \"cold_build_s\": %.6f,\n\
            \  \"load_s\": %.6f,\n\
            \  \"speedup\": %.2f,\n\
            \  \"file_bytes\": %d,\n\
            \  \"queries\": %d,\n\
            \  \"identical_answers\": %b,\n\
             %s\n\
             }\n"
            (Array.length graphs) (List.length features)
            (Pmi.filled_entries pmi) t_mine t_cold t_load speedup bytes nq
            identical flat_json);
      Format.fprintf ppf "wrote BENCH_store.json@.";
      if not (identical && flat_identical) then exit 1)

(* Observability overhead on the Fig 9 workload: the same query batch
   with the metrics layer disabled and enabled must produce bit-identical
   answers, and the enabled run must stay within the 5% overhead budget
   (DESIGN.md §10). Also measures batched incremental insertion
   ([Query.add_graphs]) against the sequential [add_graph] fold. *)
let obs ~scale ppf =
  Format.fprintf ppf
    "@.=== Obs: metrics overhead + batched insertion (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db = { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 } in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 8 (2 * scale.Experiments.queries_per_point) in
  let queries =
    List.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let run_batch () =
    List.map (fun q -> (Query.run db q config).Query.answers) queries
  in
  ignore (run_batch ());
  (* Best of three: the comparison is against scheduler noise, not means. *)
  let best_of f =
    let best = ref infinity and out = ref [] in
    for _ = 1 to 3 do
      let r, t = Psst_util.Timer.time f in
      if t < !best then best := t;
      out := r
    done;
    (!out, !best)
  in
  Psst_obs.set_enabled false;
  let answers_off, t_off = best_of run_batch in
  Psst_obs.set_enabled true;
  Psst_obs.reset ();
  let answers_on, t_on = best_of run_batch in
  let identical = answers_off = answers_on in
  let overhead_pct =
    if t_off > 0. then (t_on -. t_off) /. t_off *. 100. else 0.
  in
  (* Incremental insertion: sequential fold vs one batch. *)
  let extra =
    (Generator.generate
       {
         (Experiments.dataset_params scale) with
         Generator.num_graphs = 16;
         seed = scale.Experiments.seed + 42;
       })
      .Generator.graphs
  in
  let (_ : Query.database), t_add_seq =
    Psst_util.Timer.time (fun () -> Array.fold_left Query.add_graph db extra)
  in
  let (_ : Query.database), t_add_batch =
    Psst_util.Timer.time (fun () -> Query.add_graphs db extra)
  in
  let add_speedup =
    if t_add_batch > 0. then t_add_seq /. t_add_batch else infinity
  in
  Format.fprintf ppf
    "@[<v>db size             %d graphs@,\
     queries             %d@,\
     batch, metrics off  %.3f s@,\
     batch, metrics on   %.3f s@,\
     overhead            %.2f %%@,\
     answers identical   %b@,\
     add 16 sequential   %.3f s@,\
     add 16 batched      %.3f s@,\
     batch speedup       %.2fx@]@."
    (Array.length graphs) nq t_off t_on overhead_pct identical t_add_seq
    t_add_batch add_speedup;
  let oc = open_out "BENCH_obs.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"workload\": \"fig9\",\n\
        \  \"db_size\": %d,\n\
        \  \"queries\": %d,\n\
        \  \"run_off_s\": %.6f,\n\
        \  \"run_on_s\": %.6f,\n\
        \  \"overhead_pct\": %.3f,\n\
        \  \"identical_answers\": %b,\n\
        \  \"add_graphs\": %d,\n\
        \  \"add_seq_s\": %.6f,\n\
        \  \"add_batch_s\": %.6f,\n\
        \  \"add_speedup\": %.2f,\n\
        \  \"metrics\": %s}\n"
        (Array.length graphs) nq t_off t_on overhead_pct identical
        (Array.length extra) t_add_seq t_add_batch add_speedup
        (Psst_obs.to_json_string ()));
  Format.fprintf ppf "wrote BENCH_obs.json@.";
  if not identical then exit 1

(* Server load driver: sweep client concurrency over the Fig 9 workload
   against an in-process Psst_server, measuring throughput and exact
   client-side p50/p95/p99 latency per concurrency level, then an overload
   phase (tiny queue, tight deadline) that exercises the backpressure and
   deadline paths so their counters appear in the embedded registry dump.
   Served answers are checked bit-identical to offline Query.run. *)
let serve ~scale ppf =
  Format.fprintf ppf
    "@.=== Serve: concurrency sweep + overload (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db = { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 } in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let queries =
    Array.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let offline =
    Array.map (fun q -> (Query.run db q config).Query.answers) queries
  in
  let sock = Filename.temp_file "psst_serve" ".sock" in
  let endpoint = Psst_proto.Unix_socket sock in
  let identical = ref true in
  (* One client thread: [count] requests round-robin over the workload,
     returning per-request latencies and the error-reply count. *)
  let client_thread start count =
    let c = Psst_client.connect endpoint in
    Fun.protect
      ~finally:(fun () -> Psst_client.close c)
      (fun () ->
        let lats = Array.make count 0. in
        let errors = ref 0 in
        for j = 0 to count - 1 do
          let qi = (start + j) mod nq in
          let t0 = Unix.gettimeofday () in
          (match
             Psst_client.rpc c
               (Psst_proto.Run { id = j; query = queries.(qi); config })
           with
          | Psst_proto.Answer { answers; _ } ->
            if answers <> offline.(qi) then identical := false
          | Psst_proto.Error_reply _ -> incr errors
          | _ -> incr errors);
          lats.(j) <- Unix.gettimeofday () -. t0
        done;
        (lats, !errors))
  in
  let sweep_rows =
    let srv =
      Psst_server.start
        {
          (Psst_server.default_config endpoint) with
          Psst_server.domains = 4;
          queue_cap = 1024;
        }
        db
    in
    Fun.protect
      ~finally:(fun () -> Psst_server.stop srv)
      (fun () ->
        List.map
          (fun clients ->
            let per_client = max 4 nq in
            let total = clients * per_client in
            (* Thread.join discards results; collect via a mutex'd cell. *)
            let results = ref [] and rm = Mutex.create () in
            let t0 = Unix.gettimeofday () in
            let threads =
              List.init clients (fun i ->
                  Thread.create
                    (fun () ->
                      let r = client_thread (i * per_client) per_client in
                      Mutex.lock rm;
                      results := r :: !results;
                      Mutex.unlock rm)
                    ())
            in
            let wall =
              List.iter Thread.join threads;
              Unix.gettimeofday () -. t0
            in
            let lats =
              List.concat_map (fun (l, _) -> Array.to_list l) !results
              |> Array.of_list
            in
            Array.sort compare lats;
            let errors = List.fold_left (fun a (_, e) -> a + e) 0 !results in
            let row =
              ( clients,
                total,
                wall,
                float_of_int total /. wall,
                1000. *. percentile lats 0.50,
                1000. *. percentile lats 0.95,
                1000. *. percentile lats 0.99,
                errors )
            in
            let c, t, w, thr, p50, p95, p99, e = row in
            Format.fprintf ppf
              "clients %2d  requests %4d  wall %6.2f s  %7.1f req/s  \
               p50 %7.2f ms  p95 %7.2f ms  p99 %7.2f ms  errors %d@."
              c t w thr p50 p95 p99 e;
            row)
          [ 1; 2; 4; 8 ])
  in
  (* Overload: queue of 2 and a 1 ms queue-wait deadline under an 8-client
     burst forces queue-full rejections and deadline misses. *)
  let overload =
    let srv =
      Psst_server.start
        {
          (Psst_server.default_config endpoint) with
          Psst_server.domains = 1;
          queue_cap = 2;
          deadline_ms = 1.;
          batch_max = 2;
        }
        db
    in
    Fun.protect
      ~finally:(fun () -> Psst_server.stop srv)
      (fun () ->
        let ok = ref 0 and full = ref 0 and deadline = ref 0 and other = ref 0 in
        let m = Mutex.create () in
        let burst () =
          let c = Psst_client.connect endpoint in
          Fun.protect
            ~finally:(fun () -> Psst_client.close c)
            (fun () ->
              for j = 0 to (2 * nq) - 1 do
                match
                  Psst_client.rpc c
                    (Psst_proto.Run
                       { id = j; query = queries.(j mod nq); config })
                with
                | Psst_proto.Answer _ ->
                  Mutex.lock m; incr ok; Mutex.unlock m
                | Psst_proto.Error_reply { code = Psst_proto.Queue_full; _ } ->
                  Mutex.lock m; incr full; Mutex.unlock m
                | Psst_proto.Error_reply { code = Psst_proto.Deadline; _ } ->
                  Mutex.lock m; incr deadline; Mutex.unlock m
                | _ -> Mutex.lock m; incr other; Mutex.unlock m
              done)
        in
        let threads = List.init 8 (fun _ -> Thread.create burst ()) in
        List.iter Thread.join threads;
        Format.fprintf ppf
          "overload (queue 2, deadline 1 ms): %d ok, %d queue-full, \
           %d deadline, %d other@."
          !ok !full !deadline !other;
        (!ok, !full, !deadline, !other))
  in
  (try Sys.remove sock with Sys_error _ -> ());
  Format.fprintf ppf "answers identical  %b@." !identical;
  let oc = open_out "BENCH_serve.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ok, full, deadline, other = overload in
      Printf.fprintf oc
        "{\n  \"workload\": \"fig9\",\n  \"db_size\": %d,\n  \"distinct_queries\": %d,\n  \"sweep\": [\n"
        (Array.length graphs) nq;
      List.iteri
        (fun i (c, t, w, thr, p50, p95, p99, e) ->
          Printf.fprintf oc
            "    {\"clients\": %d, \"requests\": %d, \"wall_s\": %.6f, \
             \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
             \"p99_ms\": %.3f, \"errors\": %d}%s\n"
            c t w thr p50 p95 p99 e
            (if i < List.length sweep_rows - 1 then "," else ""))
        sweep_rows;
      Printf.fprintf oc
        "  ],\n  \"overload\": {\"ok\": %d, \"queue_full\": %d, \
         \"deadline\": %d, \"other\": %d},\n  \"identical_answers\": %b,\n  \
         \"metrics\": %s}\n"
        ok full deadline other !identical
        (Psst_obs.to_json_string ()));
  Format.fprintf ppf "wrote BENCH_serve.json@.";
  if not !identical then exit 1

(* Scatter-gather sharding: the Fig 9 serving workload against a router
   fronting 1/2/4/8 in-process shard workers (DESIGN.md §14). Every routed
   reply — answer set AND pruning counters — must be bit-identical to the
   offline monolithic run at every shard count. A final faulted phase stops
   one of two workers with the local bounds fallback armed: its shard's
   answers degrade to a flagged superset while the healthy shard stays
   exact, and no request fails. *)
let shard_bench ~scale ppf =
  Format.fprintf ppf
    "@.=== Shard: scatter-gather router sweep (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db = { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 } in
  let n = Array.length graphs in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let queries =
    Array.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let offline =
    Array.map
      (fun q ->
        let r = Query.run db q config in
        (r.Query.answers, Psst_proto.stats_of_query r.Query.stats))
      queries
  in
  let clients = 4 in
  let identical = ref true in
  (* One fleet: [shards] workers, each serving one slice of [db] behind a
     router. Calls [body router_endpoint parts] with the fleet up. *)
  let with_fleet shards ~fallback body =
    let plan = Psst_shard.plan_even ~parts:shards ~total:n in
    let parts =
      List.map
        (fun (base, count) -> Psst_shard.sub_database db ~base ~count)
        plan
    in
    let socks =
      List.map (fun _ -> Filename.temp_file "psst_shard_w" ".sock") parts
    in
    let rsock = Filename.temp_file "psst_shard_r" ".sock" in
    let endpoints = List.map (fun s -> Psst_proto.Unix_socket s) socks in
    let workers =
      List.map2
        (fun ep part ->
          Psst_server.start
            {
              (Psst_server.default_config ep) with
              Psst_server.domains = 1;
              queue_cap = 1024;
            }
            part)
        endpoints parts
    in
    let parts_arr = Array.of_list parts in
    let router =
      Psst_router.start
        {
          (Psst_router.default_config
             ~endpoint:(Psst_proto.Unix_socket rsock)
             ~workers:endpoints)
          with
          Psst_router.local_fallback =
            (if fallback then
               Some
                 (fun sid ->
                   if sid >= 0 && sid < Array.length parts_arr then
                     Some parts_arr.(sid)
                   else None)
             else None);
        }
    in
    Fun.protect
      ~finally:(fun () ->
        Psst_router.stop router;
        List.iter Psst_server.stop workers;
        List.iter
          (fun s -> try Sys.remove s with Sys_error _ -> ())
          (rsock :: socks))
      (fun () -> body (Psst_router.endpoint router) (Array.of_list workers))
  in
  (* [count] requests round-robin over the workload through [ep]; each
     reply's answers and counters are checked against the offline run. *)
  let client_thread ep start count =
    let c = Psst_client.connect ep in
    Fun.protect
      ~finally:(fun () -> Psst_client.close c)
      (fun () ->
        let lats = Array.make count 0. in
        let errors = ref 0 in
        for j = 0 to count - 1 do
          let qi = (start + j) mod nq in
          let t0 = Unix.gettimeofday () in
          (match
             Psst_client.rpc c
               (Psst_proto.Run { id = j; query = queries.(qi); config })
           with
          | Psst_proto.Answer { answers; stats; _ } ->
            if (answers, stats) <> offline.(qi) then identical := false
          | _ -> incr errors);
          lats.(j) <- Unix.gettimeofday () -. t0
        done;
        (lats, !errors))
  in
  let sweep_rows =
    List.map
      (fun shards ->
        with_fleet shards ~fallback:false (fun rep workers ->
            let per_client = max 4 nq in
            let total = clients * per_client in
            let results = ref [] and rm = Mutex.create () in
            let t0 = Unix.gettimeofday () in
            let threads =
              List.init clients (fun i ->
                  Thread.create
                    (fun () ->
                      let r = client_thread rep (i * per_client) per_client in
                      Mutex.lock rm;
                      results := r :: !results;
                      Mutex.unlock rm)
                    ())
            in
            let wall =
              List.iter Thread.join threads;
              Unix.gettimeofday () -. t0
            in
            let lats =
              List.concat_map (fun (l, _) -> Array.to_list l) !results
              |> Array.of_list
            in
            Array.sort compare lats;
            let errors = List.fold_left (fun a (_, e) -> a + e) 0 !results in
            let row =
              ( shards,
                Array.length workers,
                total,
                wall,
                float_of_int total /. wall,
                1000. *. percentile lats 0.50,
                1000. *. percentile lats 0.99,
                errors )
            in
            let s, w, t, wl, thr, p50, p99, e = row in
            Format.fprintf ppf
              "shards %2d  workers %2d  requests %4d  wall %6.2f s  \
               %7.1f req/s  p50 %7.2f ms  p99 %7.2f ms  errors %d@."
              s w t wl thr p50 p99 e;
            row))
      [ 1; 2; 4; 8 ]
  in
  (* Faulted phase: 2 shards, worker 0 stopped, bounds fallback armed. *)
  let faulted =
    with_fleet 2 ~fallback:true (fun rep workers ->
        let b1 =
          match Psst_shard.plan_even ~parts:2 ~total:n with
          | _ :: (base, _) :: _ -> base
          | _ -> n
        in
        Psst_server.stop workers.(0);
        let c = Psst_client.connect rep in
        Fun.protect
          ~finally:(fun () -> Psst_client.close c)
          (fun () ->
            let degraded = ref 0
            and superset = ref true
            and healthy_exact = ref true
            and errors = ref 0 in
            for j = 0 to nq - 1 do
              match
                Psst_client.rpc c
                  (Psst_proto.Run { id = j; query = queries.(j); config })
              with
              | Psst_proto.Answer { answers; stats; _ } ->
                let off, _ = offline.(j) in
                if stats.Psst_proto.degraded then incr degraded;
                if not (List.for_all (fun g -> List.mem g answers) off) then
                  superset := false;
                let high = List.filter (fun g -> g >= b1) in
                if high answers <> high off then healthy_exact := false
              | _ -> incr errors
            done;
            (!degraded, !superset, !healthy_exact, !errors)))
  in
  let f_degraded, f_superset, f_healthy, f_errors = faulted in
  Format.fprintf ppf
    "faulted (2 shards, worker 0 down): %d/%d degraded replies, superset %b, \
     healthy shard exact %b, errors %d@."
    f_degraded nq f_superset f_healthy f_errors;
  Format.fprintf ppf "answers identical  %b@." !identical;
  let faulted_ok = f_superset && f_healthy && f_errors = 0 in
  let oc = open_out "BENCH_shard.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"workload\": \"fig9\",\n\
        \  \"db_size\": %d,\n\
        \  \"distinct_queries\": %d,\n\
        \  \"clients\": %d,\n\
        \  \"sweep\": [\n"
        n nq clients;
      List.iteri
        (fun i (s, w, t, wl, thr, p50, p99, e) ->
          Printf.fprintf oc
            "    {\"shards\": %d, \"workers\": %d, \"requests\": %d, \
             \"wall_s\": %.6f, \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \
             \"p99_ms\": %.3f, \"errors\": %d}%s\n"
            s w t wl thr p50 p99 e
            (if i < List.length sweep_rows - 1 then "," else ""))
        sweep_rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"faulted\": {\"shards\": 2, \"requests\": %d, \
         \"degraded_replies\": %d, \"superset_held\": %b, \
         \"healthy_shard_exact\": %b, \"errors\": %d},\n\
        \  \"identical_answers\": %b\n\
         }\n"
        nq f_degraded f_superset f_healthy f_errors !identical);
  Format.fprintf ppf "wrote BENCH_shard.json@.";
  if not (!identical && faulted_ok) then exit 1

(* Chaos load: the Fig 9 serving workload twice — faults disarmed, then
   armed (lossy sockets, a flaky batcher, rare verification faults) with a
   per-batch verification budget. Measures what degradation costs
   (throughput, p99) and what it buys (no hangs, no crashes, no silently
   wrong answers): every armed-phase reply must be exact, a flagged
   degraded superset, or a retryable error the client absorbed. *)
let chaos ~scale ppf =
  Format.fprintf ppf
    "@.=== Chaos: serving under injected faults (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db = { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 } in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let queries =
    Array.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let offline =
    Array.map (fun q -> (Query.run db q config).Query.answers) queries
  in
  let sock = Filename.temp_file "psst_chaos" ".sock" in
  let endpoint = Psst_proto.Unix_socket sock in
  let c_degraded = Psst_obs.counter "server.degraded" in
  let c_retries = Psst_obs.counter "server.retries" in
  let clients = 4 and per_client = 2 * nq in
  let violations = ref [] and vm = Mutex.create () in
  let phase ~label ~faults =
    let srv =
      Psst_server.start
        {
          (Psst_server.default_config endpoint) with
          Psst_server.domains = 2;
          queue_cap = 1024;
          verify_budget_ms = (if faults then 50. else 0.);
        }
        db
    in
    let d0 = Psst_obs.counter_value c_degraded
    and r0 = Psst_obs.counter_value c_retries in
    Fun.protect
      ~finally:(fun () -> Psst_server.stop srv)
      (fun () ->
        if faults then
          Psst_fault.arm ~seed:20120805
            [
              ("proto.read", Psst_fault.Partial_io, 0.1);
              ("proto.write", Psst_fault.Partial_io, 0.1);
              ("server.batch", Psst_fault.Fail, 0.25);
              ("verify.sample", Psst_fault.Fail, 0.002);
            ];
        Fun.protect ~finally:Psst_fault.disarm (fun () ->
            let results = ref [] and rm = Mutex.create () in
            (* One request per run_all call: the client's reconnect and
               retry logic absorbs transport faults and retryable errors,
               and each call gives one end-to-end latency sample. *)
            let client_thread start =
              let c =
                Psst_client.connect ~connect_timeout_ms:5000.
                  ~call_timeout_ms:10000. endpoint
              in
              Fun.protect
                ~finally:(fun () -> Psst_client.close c)
                (fun () ->
                  let lats = Array.make per_client 0. in
                  let exact = ref 0 and degraded = ref 0 and errors = ref 0 in
                  for j = 0 to per_client - 1 do
                    let qi = (start + j) mod nq in
                    let t0 = Unix.gettimeofday () in
                    (match
                       Psst_client.run_all ~max_retries:8 ~backoff_ms:5. c
                         [ queries.(qi) ] config
                     with
                    | [| Psst_proto.Answer { answers; stats; _ } |] ->
                      if stats.Psst_proto.degraded then begin
                        incr degraded;
                        if
                          not
                            (List.for_all
                               (fun a -> List.mem a answers)
                               offline.(qi))
                        then begin
                          Mutex.lock vm;
                          violations :=
                            Printf.sprintf
                              "query %d: degraded answer not a superset" qi
                            :: !violations;
                          Mutex.unlock vm
                        end
                      end
                      else begin
                        incr exact;
                        if answers <> offline.(qi) then begin
                          Mutex.lock vm;
                          violations :=
                            Printf.sprintf
                              "query %d: unflagged answer differs from \
                               offline"
                              qi
                            :: !violations;
                          Mutex.unlock vm
                        end
                      end
                    | [| Psst_proto.Error_reply { code; _ } |] ->
                      (* Non-retryable would mean the invariant broke;
                         retryable ones surviving max_retries are counted
                         but acceptable under sustained faults. *)
                      incr errors;
                      if not (Psst_proto.error_code_retryable code) then begin
                        Mutex.lock vm;
                        violations :=
                          Printf.sprintf "query %d: non-retryable error %s" qi
                            (Psst_proto.error_code_name code)
                          :: !violations;
                        Mutex.unlock vm
                      end
                    | _ | (exception Psst_client.Client_error _) ->
                      incr errors);
                    lats.(j) <- Unix.gettimeofday () -. t0
                  done;
                  Mutex.lock rm;
                  results := (lats, !exact, !degraded, !errors) :: !results;
                  Mutex.unlock rm)
            in
            let t0 = Unix.gettimeofday () in
            let threads =
              List.init clients (fun i ->
                  Thread.create (fun () -> client_thread (i * per_client)) ())
            in
            List.iter Thread.join threads;
            let wall = Unix.gettimeofday () -. t0 in
            let lats =
              List.concat_map (fun (l, _, _, _) -> Array.to_list l) !results
              |> Array.of_list
            in
            Array.sort compare lats;
            let sum f = List.fold_left (fun a r -> a + f r) 0 !results in
            let exact = sum (fun (_, e, _, _) -> e)
            and degraded = sum (fun (_, _, d, _) -> d)
            and errors = sum (fun (_, _, _, e) -> e) in
            let total = clients * per_client in
            let row =
              ( label,
                total,
                wall,
                float_of_int total /. wall,
                1000. *. percentile lats 0.50,
                1000. *. percentile lats 0.99,
                exact,
                degraded,
                errors,
                Psst_obs.counter_value c_degraded - d0,
                Psst_obs.counter_value c_retries - r0 )
            in
            let ( l, t, w, thr, p50, p99, ex, dg, er, srv_dg, srv_rt ) = row in
            Format.fprintf ppf
              "%-10s requests %4d  wall %6.2f s  %7.1f req/s  p50 %7.2f ms  \
               p99 %7.2f ms  exact %d  degraded %d  errors %d  \
               (server: %d degraded, %d retryable rejections)@."
              l t w thr p50 p99 ex dg er srv_dg srv_rt;
            row))
  in
  let baseline = phase ~label:"faults-off" ~faults:false in
  let faulted = phase ~label:"faults-on" ~faults:true in
  (* Ingest-during-fault phase (DESIGN.md §16): a fresh server with delta
     persistence armed, store.write and server.batch faults injected, and
     one feeder connection pushing Add_graphs batches while the query
     clients run. The database grows mid-flight, so exactness is pinned
     with the restricted-id invariant: per-candidate PRNG streams are
     keyed by global id, so every answer restricted to the original ids
     [< N] must equal the offline run on the base database — exactly when
     unflagged, as a superset when degraded. A failed delta write must
     surface as a retryable rejection the feeder absorbs, never as a lost
     ack or a torn base file. *)
  let ingest_faulted, ingest_stats =
    let n_base = Array.length graphs in
    let base_path = Filename.temp_file "psst_chaos" ".pgdb" in
    Query.save_database base_path db;
    let db0, chain = Psst_ingest.load base_path in
    let pool =
      (Generator.generate
         { Generator.default_params with num_graphs = 60;
           seed = scale.Experiments.seed + 4242 })
        .Generator.graphs
    in
    let srv =
      Psst_server.start ~chain
        {
          (Psst_server.default_config endpoint) with
          Psst_server.domains = 2;
          queue_cap = 1024;
          verify_budget_ms = 50.;
        }
        db0
    in
    let d0 = Psst_obs.counter_value c_degraded
    and r0 = Psst_obs.counter_value c_retries in
    Fun.protect
      ~finally:(fun () ->
        Psst_server.stop srv;
        ignore (Psst_ingest.clear_deltas base_path);
        try Sys.remove base_path with Sys_error _ -> ())
      (fun () ->
        Psst_fault.arm ~seed:20120806
          [
            ("store.write", Psst_fault.Partial_io, 0.2);
            ("server.batch", Psst_fault.Fail, 0.25);
          ];
        Fun.protect ~finally:Psst_fault.disarm (fun () ->
            let stop_feed = Atomic.make false in
            let ingested = ref 0 and ing_ok = ref 0 and ing_rej = ref 0 in
            let feeder =
              Thread.create
                (fun () ->
                  let c =
                    Psst_client.connect ~connect_timeout_ms:5000.
                      ~call_timeout_ms:10000. endpoint
                  in
                  Fun.protect
                    ~finally:(fun () -> Psst_client.close c)
                    (fun () ->
                      let k = ref 0 in
                      (* At least 8 batches even if the query clients
                         finish first, so some survive the 0.2-probability
                         write fault and at least one epoch applies. *)
                      while (not (Atomic.get stop_feed)) || !k < 8 do
                        let b = Array.sub pool (!k mod 6 * 10) 10 in
                        incr k;
                        (match Psst_client.add_graphs c b with
                        | Ok r ->
                          ingested := !ingested + r.Psst_ingest.count;
                          incr ing_ok
                        | Error (code, _) ->
                          incr ing_rej;
                          if not (Psst_proto.error_code_retryable code)
                          then begin
                            Mutex.lock vm;
                            violations :=
                              Printf.sprintf
                                "ingest: non-retryable rejection %s"
                                (Psst_proto.error_code_name code)
                              :: !violations;
                            Mutex.unlock vm
                          end);
                        Thread.delay 0.002
                      done))
                ()
            in
            let results = ref [] and rm = Mutex.create () in
            let client_thread start =
              let c =
                Psst_client.connect ~connect_timeout_ms:5000.
                  ~call_timeout_ms:10000. endpoint
              in
              Fun.protect
                ~finally:(fun () -> Psst_client.close c)
                (fun () ->
                  let lats = Array.make per_client 0. in
                  let exact = ref 0 and degraded = ref 0 and errors = ref 0 in
                  for j = 0 to per_client - 1 do
                    let qi = (start + j) mod nq in
                    let t0 = Unix.gettimeofday () in
                    (match
                       Psst_client.run_all ~max_retries:8 ~backoff_ms:5. c
                         [ queries.(qi) ] config
                     with
                    | [| Psst_proto.Answer { answers; stats; _ } |] ->
                      let restricted =
                        List.filter (fun a -> a < n_base) answers
                      in
                      if stats.Psst_proto.degraded then begin
                        incr degraded;
                        if
                          not
                            (List.for_all
                               (fun a -> List.mem a restricted)
                               offline.(qi))
                        then begin
                          Mutex.lock vm;
                          violations :=
                            Printf.sprintf
                              "ingest query %d: degraded answer not a \
                               superset on ids < %d"
                              qi n_base
                            :: !violations;
                          Mutex.unlock vm
                        end
                      end
                      else begin
                        incr exact;
                        if restricted <> offline.(qi) then begin
                          Mutex.lock vm;
                          violations :=
                            Printf.sprintf
                              "ingest query %d: unflagged answer differs \
                               from offline on ids < %d"
                              qi n_base
                            :: !violations;
                          Mutex.unlock vm
                        end
                      end
                    | [| Psst_proto.Error_reply { code; _ } |] ->
                      incr errors;
                      if not (Psst_proto.error_code_retryable code)
                      then begin
                        Mutex.lock vm;
                        violations :=
                          Printf.sprintf
                            "ingest query %d: non-retryable error %s" qi
                            (Psst_proto.error_code_name code)
                          :: !violations;
                        Mutex.unlock vm
                      end
                    | _ | (exception Psst_client.Client_error _) ->
                      incr errors);
                    lats.(j) <- Unix.gettimeofday () -. t0
                  done;
                  Mutex.lock rm;
                  results := (lats, !exact, !degraded, !errors) :: !results;
                  Mutex.unlock rm)
            in
            let t0 = Unix.gettimeofday () in
            let threads =
              List.init clients (fun i ->
                  Thread.create (fun () -> client_thread (i * per_client)) ())
            in
            List.iter Thread.join threads;
            Atomic.set stop_feed true;
            Thread.join feeder;
            let wall = Unix.gettimeofday () -. t0 in
            let lats =
              List.concat_map (fun (l, _, _, _) -> Array.to_list l) !results
              |> Array.of_list
            in
            Array.sort compare lats;
            let sum f = List.fold_left (fun a r -> a + f r) 0 !results in
            let exact = sum (fun (_, e, _, _) -> e)
            and degraded = sum (fun (_, _, d, _) -> d)
            and errors = sum (fun (_, _, _, e) -> e) in
            let total = clients * per_client in
            let epochs = Psst_server.epoch srv in
            if epochs = 0 then begin
              Mutex.lock vm;
              violations := "ingest: no batch was ever applied" :: !violations;
              Mutex.unlock vm
            end;
            let row =
              ( "ingest-faults",
                total,
                wall,
                float_of_int total /. wall,
                1000. *. percentile lats 0.50,
                1000. *. percentile lats 0.99,
                exact,
                degraded,
                errors,
                Psst_obs.counter_value c_degraded - d0,
                Psst_obs.counter_value c_retries - r0 )
            in
            let l, t, w, thr, p50, p99, ex, dg, er, srv_dg, srv_rt = row in
            Format.fprintf ppf
              "%-10s requests %4d  wall %6.2f s  %7.1f req/s  p50 %7.2f ms  \
               p99 %7.2f ms  exact %d  degraded %d  errors %d  \
               (server: %d degraded, %d retryable rejections)@."
              l t w thr p50 p99 ex dg er srv_dg srv_rt;
            Format.fprintf ppf
              "ingest under faults: %d graphs applied across %d epochs \
               (%d acked batches, %d retryable rejections)@."
              !ingested epochs !ing_ok !ing_rej;
            (row, (!ingested, !ing_ok, !ing_rej, epochs))))
  in
  let rows = [ baseline; faulted; ingest_faulted ] in
  (try Sys.remove sock with Sys_error _ -> ());
  let ok = !violations = [] in
  List.iter (fun v -> Format.fprintf ppf "VIOLATION: %s@." v) !violations;
  Format.fprintf ppf "chaos invariant held  %b@." ok;
  let oc = open_out "BENCH_chaos.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"workload\": \"fig9\",\n  \"db_size\": %d,\n  \
         \"distinct_queries\": %d,\n  \"fault_seed\": 20120805,\n  \
         \"phases\": [\n"
        (Array.length graphs) nq;
      List.iteri
        (fun i (l, t, w, thr, p50, p99, ex, dg, er, srv_dg, srv_rt) ->
          Printf.fprintf oc
            "    {\"label\": %S, \"requests\": %d, \"wall_s\": %.6f, \
             \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
             \"exact\": %d, \"degraded\": %d, \"errors\": %d, \
             \"server_degraded\": %d, \"server_retryable\": %d}%s\n"
            l t w thr p50 p99 ex dg er srv_dg srv_rt
            (if i < List.length rows - 1 then "," else ""))
        rows;
      let ing_graphs, ing_ok, ing_rej, ing_epochs = ingest_stats in
      Printf.fprintf oc
        "  ],\n  \"ingest\": {\"graphs\": %d, \"acked_batches\": %d, \
         \"rejected_batches\": %d, \"epochs\": %d},\n  \
         \"invariant_held\": %b,\n  \"metrics\": %s}\n"
        ing_graphs ing_ok ing_rej ing_epochs ok
        (Psst_obs.to_json_string ()));
  Format.fprintf ppf "wrote BENCH_chaos.json@.";
  if not ok then exit 1

(* Continuous ingest (DESIGN.md §16): the Fig 9 serving workload with a
   live Add_graphs feed. A query-only "light" tenant is measured solo,
   then again while a "heavy" tenant pushes ingest batches against its
   tenant quota and runs its own queries — the round-robin admission
   scheduler should keep the two tenants' query service comparable, and
   the quota should absorb the heavy tenant's oversized batches as clean
   retryable rejections metered per tenant. Reported: ingest throughput
   (graphs/s), the light tenant's p50/p99 drift solo → concurrent, and
   the fairness ratio between the tenants' query throughputs. Hard
   invariants (exit 1): every answer on the growing database, restricted
   to the original ids [< N], is identical to the offline run on the
   base database (per-candidate PRNG streams are keyed by global id, so
   appending graphs never changes an existing graph's verdict); every
   rejection is a retryable error; at least one batch applied and at
   least one oversized batch bounced. *)
let ingest_bench ~scale ppf =
  Format.fprintf ppf
    "@.=== Ingest: live Add_graphs under a two-tenant load (Fig 9 \
     workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let n_base = Array.length graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db =
    { Query.graphs = Corpus.of_array graphs; features; structural; pmi;
      base = 0 }
  in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let queries =
    Array.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let offline =
    Array.map (fun q -> (Query.run db q config).Query.answers) queries
  in
  let pool =
    (Generator.generate
       { Generator.default_params with num_graphs = 96;
         seed = scale.Experiments.seed + 4242 })
      .Generator.graphs
  in
  let quota = 24 in
  let sock = Filename.temp_file "psst_ingest" ".sock" in
  let endpoint = Psst_proto.Unix_socket sock in
  let violations = ref [] and vm = Mutex.create () in
  let violation fmt =
    Printf.ksprintf
      (fun s ->
        Mutex.lock vm;
        violations := s :: !violations;
        Mutex.unlock vm)
      fmt
  in
  let per_client = 2 * nq in
  (* One tenant's query loop: [per_client] synchronous requests
     round-robin over the workload, each answer checked with the
     restricted-id invariant; rejections must be retryable. *)
  let query_loop tenant start =
    let c = Psst_client.connect endpoint in
    Fun.protect
      ~finally:(fun () -> Psst_client.close c)
      (fun () ->
        Psst_client.set_tenant c tenant;
        let lats = Array.make per_client 0. in
        let answered = ref 0 and rejected = ref 0 in
        let t0 = Unix.gettimeofday () in
        for j = 0 to per_client - 1 do
          let qi = (start + j) mod nq in
          let s = Unix.gettimeofday () in
          (match
             Psst_client.rpc c
               (Psst_proto.Run { id = j; query = queries.(qi); config })
           with
          | Psst_proto.Answer { answers; stats; _ } ->
            incr answered;
            let restricted = List.filter (fun a -> a < n_base) answers in
            if stats.Psst_proto.degraded then begin
              if
                not
                  (List.for_all (fun a -> List.mem a restricted) offline.(qi))
              then
                violation
                  "tenant %s query %d: degraded answer not a superset on \
                   ids < %d"
                  tenant qi n_base
            end
            else if restricted <> offline.(qi) then
              violation
                "tenant %s query %d: answer differs from offline on ids < %d"
                tenant qi n_base
          | Psst_proto.Error_reply { code; _ } ->
            incr rejected;
            if not (Psst_proto.error_code_retryable code) then
              violation "tenant %s query %d: non-retryable error %s" tenant
                qi
                (Psst_proto.error_code_name code)
          | _ -> violation "tenant %s query %d: unexpected reply kind" tenant qi);
          lats.(j) <- Unix.gettimeofday () -. s
        done;
        let wall = Unix.gettimeofday () -. t0 in
        Array.sort compare lats;
        (wall, lats, !answered, !rejected))
  in
  let phase_row label (wall, lats, answered, rejected) =
    let row =
      ( label,
        per_client,
        wall,
        float_of_int answered /. wall,
        1000. *. percentile lats 0.50,
        1000. *. percentile lats 0.99,
        answered,
        rejected )
    in
    let l, t, w, thr, p50, p99, a, r = row in
    Format.fprintf ppf
      "%-17s requests %4d  wall %6.2f s  %7.1f req/s  p50 %7.2f ms  \
       p99 %7.2f ms  answered %d  rejected %d@."
      l t w thr p50 p99 a r;
    row
  in
  let with_server f =
    let srv =
      Psst_server.start
        {
          (Psst_server.default_config endpoint) with
          Psst_server.domains = 2;
          queue_cap = 1024;
          ingest_queue_cap = 1024;
          tenant_quota = quota;
        }
        db
    in
    Fun.protect ~finally:(fun () -> Psst_server.stop srv) (fun () -> f srv)
  in
  (* Phase 1: the light tenant alone — the latency baseline. *)
  let solo =
    with_server (fun _ -> phase_row "light-solo" (query_loop "light" 0))
  in
  (* Phase 2: fresh server (epochs reset); the heavy tenant ingests and
     queries while the light tenant reruns the phase-1 workload. *)
  let light, heavy, ingest_stats =
    with_server (fun srv ->
        let stop_feed = Atomic.make false in
        let ingested = ref 0 and acked = ref 0 and rejected_b = ref 0 in
        let feed_wall = ref 1e-9 in
        let feeder =
          Thread.create
            (fun () ->
              let c = Psst_client.connect endpoint in
              Fun.protect
                ~finally:(fun () -> Psst_client.close c)
                (fun () ->
                  Psst_client.set_tenant c "heavy";
                  let t0 = Unix.gettimeofday () in
                  let k = ref 0 in
                  (* At least 8 batches even if the query clients finish
                     first; every fourth exceeds the tenant quota on
                     purpose and must bounce as a clean retryable
                     rejection metered on the heavy tenant. *)
                  while (not (Atomic.get stop_feed)) || !k < 8 do
                    let b =
                      if !k mod 4 = 3 then Array.sub pool 0 (quota + 8)
                      else Array.sub pool (!k mod 8 * 8) 8
                    in
                    incr k;
                    (match Psst_client.add_graphs c b with
                    | Ok r ->
                      ingested := !ingested + r.Psst_ingest.count;
                      incr acked
                    | Error (code, msg) ->
                      incr rejected_b;
                      if not (Psst_proto.error_code_retryable code) then
                        violation "ingest: non-retryable rejection %s (%s)"
                          (Psst_proto.error_code_name code)
                          msg);
                    Thread.delay 0.001
                  done;
                  feed_wall := Unix.gettimeofday () -. t0))
            ()
        in
        let results = Array.make 2 None in
        let qthreads =
          List.map
            (fun (tenant, start, slot) ->
              Thread.create
                (fun () -> results.(slot) <- Some (query_loop tenant start))
                ())
            [ ("light", 0, 0); ("heavy", nq / 2, 1) ]
        in
        List.iter Thread.join qthreads;
        Atomic.set stop_feed true;
        Thread.join feeder;
        let epochs = Psst_server.epoch srv in
        let light = phase_row "light-concurrent" (Option.get results.(0)) in
        let heavy = phase_row "heavy-concurrent" (Option.get results.(1)) in
        Format.fprintf ppf
          "ingest: %d graphs in %d batches across %d epochs \
           (%.1f graphs/s), %d rejected batches@."
          !ingested !acked epochs
          (float_of_int !ingested /. !feed_wall)
          !rejected_b;
        if epochs = 0 then violation "ingest: no batch was ever applied";
        if !rejected_b = 0 then
          violation "ingest: oversized batches were never rejected";
        let heavy_rejected =
          Psst_obs.counter_value
            (Psst_obs.counter "server.tenant.heavy.rejected")
        in
        if heavy_rejected < !rejected_b then
          violation
            "ingest: %d rejections but server.tenant.heavy.rejected = %d"
            !rejected_b heavy_rejected;
        (light, heavy, (!ingested, !acked, !rejected_b, epochs, !feed_wall)))
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let ok = !violations = [] in
  List.iter (fun v -> Format.fprintf ppf "VIOLATION: %s@." v) !violations;
  let thr_of (_, _, _, t, _, _, _, _) = t in
  let p99_of (_, _, _, _, _, p, _, _) = p in
  let fairness =
    let a = thr_of light and b = thr_of heavy in
    if a = 0. || b = 0. then 0. else min a b /. max a b
  in
  let drift = p99_of light /. p99_of solo in
  Format.fprintf ppf
    "fairness (light/heavy query throughput) %.2f   light p99 drift \
     solo -> concurrent %.2fx@."
    fairness drift;
  Format.fprintf ppf "ingest invariants held  %b@." ok;
  let oc = open_out "BENCH_ingest.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row_json (l, t, w, thr, p50, p99, a, r) =
        Printf.sprintf
          "{\"label\": %S, \"requests\": %d, \"wall_s\": %.6f, \
           \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
           \"answered\": %d, \"rejected\": %d}"
          l t w thr p50 p99 a r
      in
      let g, ab, rb, ep, fw = ingest_stats in
      Printf.fprintf oc
        "{\n  \"workload\": \"fig9\",\n  \"db_size\": %d,\n  \
         \"distinct_queries\": %d,\n  \"tenant_quota\": %d,\n  \
         \"solo\": %s,\n  \"light_concurrent\": %s,\n  \
         \"heavy_concurrent\": %s,\n  \"ingest\": {\"graphs\": %d, \
         \"acked_batches\": %d, \"rejected_batches\": %d, \"epochs\": %d, \
         \"graphs_per_s\": %.2f},\n  \"fairness_ratio\": %.4f,\n  \
         \"light_p99_drift\": %.4f,\n  \"invariant_held\": %b,\n  \
         \"metrics\": %s}\n"
        n_base nq quota (row_json solo) (row_json light) (row_json heavy) g
        ab rb ep
        (float_of_int g /. fw)
        fairness drift ok
        (Psst_obs.to_json_string ()));
  Format.fprintf ppf "wrote BENCH_ingest.json@.";
  if not ok then exit 1

(* Replication (DESIGN.md §17): what semi-synchronous durability costs
   and what failover buys. Phase 1 feeds Add_graphs batches to a
   standalone chain server — the ack latency baseline. Phase 2 repeats
   the feed against a primary whose every ack is gated on a live standby
   having persisted the delta, sampling replica lag (primary seq minus
   standby applied seq) throughout; the delta chains must end
   byte-identical. Phase 3 routes a query load through a replica-aware
   router, kills the primary mid-load and measures the blackout until
   the standby answers exactly, then promotes the standby and verifies
   it accepts writes where the primary left off — no acked batch lost.
   Violated invariants exit non-zero. *)
let replica_bench ~scale ppf =
  Format.fprintf ppf
    "@.=== Replication: ack gating, replica lag, failover blackout ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db0 =
    { Query.graphs = Corpus.of_array graphs; features; structural; pmi;
      base = 0 }
  in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 17) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let queries =
    Array.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  let config = Query.default_config in
  let nbatch = 10 and bsize = 6 in
  let pool =
    (Generator.generate
       { Generator.default_params with num_graphs = nbatch * bsize;
         seed = scale.Experiments.seed + 9999 })
      .Generator.graphs
  in
  let batches = Array.init nbatch (fun i -> Array.sub pool (i * bsize) bsize) in
  let db_final = Array.fold_left Query.add_graphs db0 batches in
  let offline =
    Array.map (fun q -> (Query.run db_final q config).Query.answers) queries
  in
  let violations = ref [] and vm = Mutex.create () in
  let violation fmt =
    Printf.ksprintf
      (fun s ->
        Mutex.lock vm;
        violations := s :: !violations;
        Mutex.unlock vm)
      fmt
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let remove_store path =
    (try Sys.remove path with Sys_error _ -> ());
    for seq = 1 to nbatch + 4 do
      try Sys.remove (Psst_ingest.delta_path path seq) with Sys_error _ -> ()
    done
  in
  let fresh_sock () = Filename.temp_file "psst_replica" ".sock" in
  let counter_of name = Psst_obs.counter_value (Psst_obs.counter name) in
  (* Feed the batch sequence through one client, retrying retryable
     rejections (ack-gate timeouts) under the batch's idempotency token;
     the measured latency is first-send to final ack. *)
  let feed label endpoint =
    let c = Psst_client.connect endpoint in
    Fun.protect
      ~finally:(fun () -> Psst_client.close c)
      (fun () ->
        let lats = Array.make nbatch 0. in
        let t0 = Unix.gettimeofday () in
        Array.iteri
          (fun i b ->
            let token = Printf.sprintf "%s-batch-%d" label i in
            let s = Unix.gettimeofday () in
            let rec go attempts =
              match Psst_client.add_graphs ~token c b with
              | Ok r ->
                if r.Psst_ingest.epoch <> i + 1 then
                  violation "%s: batch %d acked at epoch %d" label i
                    r.Psst_ingest.epoch
              | Error (code, msg) ->
                if not (Psst_proto.error_code_retryable code) then
                  violation "%s: batch %d non-retryable rejection %s (%s)"
                    label i
                    (Psst_proto.error_code_name code)
                    msg
                else if attempts >= 200 then
                  violation "%s: batch %d never acked (%s)" label i msg
                else begin
                  Thread.delay 0.01;
                  go (attempts + 1)
                end
            in
            go 0;
            lats.(i) <- Unix.gettimeofday () -. s)
          batches;
        let wall = Unix.gettimeofday () -. t0 in
        Array.sort compare lats;
        (wall, lats))
  in
  let ack_row label (wall, lats) =
    let row =
      ( label,
        nbatch,
        wall,
        float_of_int nbatch /. wall,
        1000. *. percentile lats 0.50,
        1000. *. percentile lats 0.99 )
    in
    let l, n, w, thr, p50, p99 = row in
    Format.fprintf ppf
      "%-18s batches %3d  wall %6.2f s  %7.1f acks/s  ack p50 %7.2f ms  \
       ack p99 %7.2f ms@."
      l n w thr p50 p99;
    row
  in
  (* Phase 1: standalone ack latency baseline. *)
  let standalone =
    let path = Filename.temp_file "psst_replica_solo" ".psst" in
    Fun.protect ~finally:(fun () -> remove_store path) @@ fun () ->
    Query.save_database path db0;
    let pdb, chain = Psst_ingest.load path in
    let sock = fresh_sock () in
    let srv =
      Psst_server.start ~chain
        { (Psst_server.default_config (Psst_proto.Unix_socket sock)) with
          Psst_server.domains = 1 }
        pdb
    in
    Fun.protect ~finally:(fun () ->
        Psst_server.stop srv;
        try Sys.remove sock with Sys_error _ -> ())
    @@ fun () -> ack_row "standalone" (feed "solo" (Psst_proto.Unix_socket sock))
  in
  (* Phases 2-3: a primary/standby pair behind a replica-aware router. *)
  let ppath = Filename.temp_file "psst_replica_p" ".psst" in
  let spath = Filename.temp_file "psst_replica_s" ".psst" in
  Fun.protect ~finally:(fun () ->
      remove_store ppath;
      remove_store spath)
  @@ fun () ->
  Query.save_database ppath db0;
  let oc = open_out_bin spath in
  output_string oc (read_file ppath);
  close_out oc;
  let pdb, pchain = Psst_ingest.load ppath in
  let sdb, schain = Psst_ingest.load spath in
  let hub = Psst_replica.hub pchain in
  let psock = fresh_sock () and ssock = fresh_sock () and rsock = fresh_sock () in
  let pep = Psst_proto.Unix_socket psock
  and sep = Psst_proto.Unix_socket ssock in
  let psrv =
    Psst_server.start ~chain:pchain ~publisher:(Psst_replica.publisher hub)
      { (Psst_server.default_config pep) with Psst_server.domains = 1 }
      pdb
  in
  let ssrv =
    Psst_server.start ~chain:schain
      { (Psst_server.default_config sep) with Psst_server.domains = 1;
        writable = false }
      sdb
  in
  let standby =
    Psst_replica.start_standby ~primary:pep ~chain:schain
      (Psst_server.snapshot_ref ssrv)
  in
  let router =
    Psst_router.start
      { (Psst_router.default_config ~endpoint:(Psst_proto.Unix_socket rsock)
           ~workers:[ pep ])
        with
        Psst_router.workers = [| [| pep; sep |] |];
        retries = 2;
        shard_timeout_ms = 5000. }
  in
  Fun.protect ~finally:(fun () ->
      Psst_router.stop router;
      (if not (Psst_server.stopped psrv) then Psst_server.stop psrv);
      Psst_replica.stop_hub hub;
      Psst_server.stop ssrv;
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        [ psock; ssock; rsock ])
  @@ fun () ->
  (* Wait for the subscription so every measured ack is really gated. *)
  let subs0 = counter_of "replica.subscribes" in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    counter_of "replica.subscribes" <= subs0
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  if counter_of "replica.subscribes" <= subs0 then
    violation "replicated: standby never subscribed";
  (* Phase 2: replicated feed with a lag sampler. *)
  let stop_sampler = Atomic.make false in
  let max_lag = ref 0 and lag_samples = ref 0 in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_sampler) do
          let lag =
            pchain.Psst_ingest.next_seq - 1 - Psst_replica.applied_seq standby
          in
          if lag > !max_lag then max_lag := lag;
          incr lag_samples;
          Thread.delay 0.002
        done)
      ()
  in
  let replicated = ack_row "replicated" (feed "rep" pep) in
  let deadline = Unix.gettimeofday () +. 30. in
  while
    Psst_replica.applied_seq standby < nbatch
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  Atomic.set stop_sampler true;
  Thread.join sampler;
  if Psst_replica.applied_seq standby < nbatch then
    violation "replicated: standby converged to seq %d of %d"
      (Psst_replica.applied_seq standby)
      nbatch;
  if read_file ppath <> read_file spath then
    violation "replicated: base stores differ";
  for seq = 1 to nbatch do
    if
      read_file (Psst_ingest.delta_path ppath seq)
      <> read_file (Psst_ingest.delta_path spath seq)
    then violation "replicated: delta %d differs between chains" seq
  done;
  Format.fprintf ppf
    "replica lag: max %d deltas over %d samples; chains byte-identical  %b@."
    !max_lag !lag_samples
    (!violations = []);
  (* Phase 3: routed query load, failover, promotion. *)
  let query_round label c =
    let lats = Array.make (2 * nq) 0. in
    let t0 = Unix.gettimeofday () in
    for j = 0 to (2 * nq) - 1 do
      let qi = j mod nq in
      let s = Unix.gettimeofday () in
      (match
         Psst_client.rpc c
           (Psst_proto.Run { id = j; query = queries.(qi); config })
       with
      | Psst_proto.Answer { answers; stats; _ } ->
        if stats.Psst_proto.degraded then
          violation "%s query %d: degraded answer" label qi
        else if answers <> offline.(qi) then
          violation "%s query %d: answer differs from offline" label qi
      | Psst_proto.Error_reply { code; message; _ } ->
        violation "%s query %d: error %s (%s)" label qi
          (Psst_proto.error_code_name code)
          message
      | _ -> violation "%s query %d: unexpected reply kind" label qi);
      lats.(j) <- Unix.gettimeofday () -. s
    done;
    let wall = Unix.gettimeofday () -. t0 in
    Array.sort compare lats;
    let row =
      ( label,
        2 * nq,
        wall,
        float_of_int (2 * nq) /. wall,
        1000. *. percentile lats 0.50,
        1000. *. percentile lats 0.99 )
    in
    let l, n, w, thr, p50, p99 = row in
    Format.fprintf ppf
      "%-18s requests %3d  wall %6.2f s  %7.1f req/s  p50 %7.2f ms  \
       p99 %7.2f ms@."
      l n w thr p50 p99;
    row
  in
  let failovers0 = counter_of "router.failover" in
  let c = Psst_client.connect (Psst_router.endpoint router) in
  let healthy, blackout_ms, failover =
    Fun.protect
      ~finally:(fun () -> Psst_client.close c)
      (fun () ->
        let healthy = query_round "routed-healthy" c in
        (* Kill the primary; the blackout is the gap until the router
           serves an exact answer from the standby. *)
        let t_kill = Unix.gettimeofday () in
        Psst_server.stop psrv;
        Psst_replica.stop_hub hub;
        let rec first_exact attempts =
          match
            Psst_client.rpc c
              (Psst_proto.Run { id = 9000 + attempts; query = queries.(0);
                                config })
          with
          | Psst_proto.Answer { answers; stats; _ }
            when (not stats.Psst_proto.degraded) && answers = offline.(0) ->
            Unix.gettimeofday () -. t_kill
          | _ when attempts < 400 ->
            Thread.delay 0.01;
            first_exact (attempts + 1)
          | _ ->
            violation "failover: no exact answer after primary death";
            Unix.gettimeofday () -. t_kill
        in
        let blackout_ms = 1000. *. first_exact 0 in
        let failover = query_round "routed-failover" c in
        (healthy, blackout_ms, failover))
  in
  if counter_of "router.failover" <= failovers0 then
    violation "failover: router.failover counter did not grow";
  Format.fprintf ppf "failover blackout %.2f ms@." blackout_ms;
  (* Promotion: the survivor accepts writes where the primary left off. *)
  Psst_replica.promote standby ssrv;
  let extra =
    (Generator.generate
       { Generator.default_params with num_graphs = bsize;
         seed = scale.Experiments.seed + 31337 })
      .Generator.graphs
  in
  let c = Psst_client.connect sep in
  Fun.protect
    ~finally:(fun () -> Psst_client.close c)
    (fun () ->
      match Psst_client.add_graphs ~token:"promoted-extra" c extra with
      | Ok r ->
        if r.Psst_ingest.epoch <> nbatch + 1 then
          violation "promotion: extra batch acked at epoch %d, expected %d"
            r.Psst_ingest.epoch (nbatch + 1)
      | Error (_, msg) -> violation "promotion: write rejected: %s" msg);
  if schain.Psst_ingest.next_seq <> nbatch + 2 then
    violation "promotion: survivor chain at seq %d, expected %d"
      schain.Psst_ingest.next_seq (nbatch + 2);
  let ok = !violations = [] in
  List.iter (fun v -> Format.fprintf ppf "VIOLATION: %s@." v) !violations;
  Format.fprintf ppf "replication invariants held  %b@." ok;
  let oc = open_out "BENCH_replica.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row_json (l, n, w, thr, p50, p99) =
        Printf.sprintf
          "{\"label\": %S, \"requests\": %d, \"wall_s\": %.6f, \
           \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}"
          l n w thr p50 p99
      in
      Printf.fprintf oc
        "{\n  \"db_size\": %d,\n  \"batches\": %d,\n  \"batch_size\": %d,\n  \
         \"distinct_queries\": %d,\n  \"standalone_ingest\": %s,\n  \
         \"replicated_ingest\": %s,\n  \"replica_lag\": {\"max_deltas\": %d, \
         \"samples\": %d},\n  \"routed_healthy\": %s,\n  \
         \"routed_failover\": %s,\n  \"failover_blackout_ms\": %.3f,\n  \
         \"invariant_held\": %b,\n  \"metrics\": %s}\n"
        (Array.length graphs) nbatch bsize nq (row_json standalone)
        (row_json replicated) !max_lag !lag_samples (row_json healthy)
        (row_json failover) blackout_ms ok
        (Psst_obs.to_json_string ()));
  Format.fprintf ppf "wrote BENCH_replica.json@.";
  if not ok then exit 1

(* Verification hot path on the Fig 9 workload: the same repeated query
   sequence cold (no cache), with the cross-query cache armed, and with
   the cache plus adaptive-precision sampling (DESIGN.md §13). Reports
   per-query latency percentiles, Karp–Luby samples per candidate and
   cache hit rates; asserts the cached run is bit-identical to the cold
   one (same answers, same pruning counters) — the cache's hard
   invariant — and exits non-zero if it is not. *)
let verify_bench ~scale ppf =
  Format.fprintf ppf
    "@.=== Verify: cold vs warm-cache vs adaptive (Fig 9 workload) ===@.";
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let graphs = ds.Generator.graphs in
  let skeletons = Array.map Pgraph.skeleton graphs in
  let features = Selection.select skeletons Experiments.mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi = Pmi.build graphs features in
  let db = { Query.graphs = Corpus.of_array graphs; features; structural; pmi; base = 0 } in
  let rng = Psst_util.Prng.make (scale.Experiments.seed + 777) in
  let nq = max 4 scale.Experiments.queries_per_point in
  let rounds = 3 in
  let distinct =
    List.init nq (fun _ -> fst (Generator.extract_query rng ds ~edges:8))
  in
  (* The serving pattern the cache exists for: the same queries coming
     back — round 1 is compulsory misses, rounds 2..r are warm. *)
  let sequence = List.concat (List.init rounds (fun _ -> distinct)) in
  let smp_cfg =
    match Query.default_config.Query.verifier with
    | `Smp c -> c
    | `Exact -> Verify.default_config
  in
  let adaptive_config =
    { Query.default_config with
      verifier = `Smp { smp_cfg with Verify.adaptive = true } }
  in
  let c_samples = Psst_obs.counter "verify.smp_samples" in
  let c_hit = Psst_obs.counter "cache.hit" in
  let c_miss = Psst_obs.counter "cache.miss" in
  let c_early = Psst_obs.counter "verify.early_stop" in
  let run_variant ?cache config =
    let samples0 = Psst_obs.counter_value c_samples
    and hit0 = Psst_obs.counter_value c_hit
    and miss0 = Psst_obs.counter_value c_miss
    and early0 = Psst_obs.counter_value c_early in
    let results =
      List.map
        (fun q ->
          let out, t =
            Psst_util.Timer.time (fun () -> Query.run ?cache db q config)
          in
          (out, t))
        sequence
    in
    let outs = List.map fst results in
    let lats = List.map snd results in
    let candidates =
      List.fold_left
        (fun acc (o : Query.outcome) -> acc + o.Query.stats.prob_candidates)
        0 outs
    in
    let warm_lats =
      (* Rounds 2..r only: the steady-state latency a resident server
         sees once the working set is cached. *)
      List.filteri (fun i _ -> i >= nq) lats
    in
    let sorted l =
      let a = Array.of_list l in
      Array.sort compare a;
      a
    in
    let all = sorted lats and warm = sorted warm_lats in
    let hits = Psst_obs.counter_value c_hit - hit0
    and misses = Psst_obs.counter_value c_miss - miss0 in
    ( outs,
      ( percentile all 0.50, percentile all 0.95, percentile all 0.99,
        percentile warm 0.50,
        (let s = Psst_obs.counter_value c_samples - samples0 in
         if candidates = 0 then 0. else float_of_int s /. float_of_int candidates),
        (if hits + misses = 0 then 0.
         else float_of_int hits /. float_of_int (hits + misses)),
        Psst_obs.counter_value c_early - early0 ) )
  in
  let cold_outs, cold_row = run_variant Query.default_config in
  let warm_outs, warm_row =
    run_variant ~cache:(Qcache.create ()) Query.default_config
  in
  let adap_outs, adap_row =
    run_variant ~cache:(Qcache.create ()) adaptive_config
  in
  let identical =
    List.for_all2
      (fun (a : Query.outcome) (b : Query.outcome) ->
        a.Query.answers = b.Query.answers
        && a.stats.relaxed_count = b.stats.relaxed_count
        && a.stats.structural_candidates = b.stats.structural_candidates
        && a.stats.prob_candidates = b.stats.prob_candidates
        && a.stats.accepted_by_bounds = b.stats.accepted_by_bounds
        && a.stats.pruned_by_bounds = b.stats.pruned_by_bounds)
      cold_outs warm_outs
  in
  let same_answers =
    List.for_all2
      (fun (a : Query.outcome) (b : Query.outcome) ->
        a.Query.answers = b.Query.answers)
      cold_outs adap_outs
  in
  (* Adaptive sampling's decision-safety contract: a candidate whose exact
     SSP is well clear of ε (beyond the estimator's 3·τ noise floor, the
     same exemption the differential test suite uses) must never flip
     between the fixed-budget and adaptive runs. Borderline candidates —
     |exact − ε| ≤ 3·τ — may legitimately land on either side, so flipped
     answers are classified by their exact SSP: borderline flips are
     reported, a clear flip is a real estimator bug and fails the bench. *)
  let flip_pairs =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    List.iteri
      (fun i ((a : Query.outcome), (b : Query.outcome)) ->
        let sym =
          List.filter
            (fun g -> not (List.mem g b.Query.answers))
            a.Query.answers
          @ List.filter
              (fun g -> not (List.mem g a.Query.answers))
              b.Query.answers
        in
        List.iter
          (fun gid ->
            let key = (i mod nq, gid) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              out := (List.nth sequence i, gid) :: !out
            end)
          sym)
      (List.combine cold_outs adap_outs);
    List.rev !out
  in
  let qcfg = Query.default_config in
  let borderline_flips, clear_flips =
    List.partition
      (fun (q, gid) ->
        let relaxed, _ =
          Relax.relaxed_set ~cap:qcfg.Query.relax_cap q ~delta:qcfg.Query.delta
        in
        let exact = Verify.exact graphs.(gid) relaxed in
        Float.abs (exact -. qcfg.Query.epsilon) <= 3. *. smp_cfg.Verify.tau)
      flip_pairs
  in
  let decision_safe = clear_flips = [] in
  let p50_of (p50, _, _, _, _, _, _) = p50
  and warm50_of (_, _, _, w, _, _, _) = w in
  let speedup_warm =
    if warm50_of warm_row > 0. then p50_of cold_row /. warm50_of warm_row
    else infinity
  in
  let speedup_adaptive =
    if warm50_of adap_row > 0. then p50_of cold_row /. warm50_of adap_row
    else infinity
  in
  let pr label (p50, p95, p99, w50, spc, hr, early) =
    Format.fprintf ppf
      "%-10s p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms  warm-p50 %8.2f ms  \
       samples/cand %8.1f  hit-rate %5.1f%%  early-stops %d@."
      label (1000. *. p50) (1000. *. p95) (1000. *. p99) (1000. *. w50) spc
      (100. *. hr) early
  in
  pr "cold" cold_row;
  pr "warm" warm_row;
  pr "adaptive" adap_row;
  Format.fprintf ppf
    "speedup (cold p50 / warm p50)      %8.1fx@,\
     speedup (cold p50 / adaptive p50)  %8.1fx@,\
     answers identical (cold = warm)    %b@,\
     answer sets match (cold = adaptive) %b@,\
     adaptive flips: %d borderline (|exact SSP − ε| ≤ 3τ, legitimate), \
     %d clear (decision-safety violations)@."
    speedup_warm speedup_adaptive identical same_answers
    (List.length borderline_flips)
    (List.length clear_flips);
  List.iter
    (fun (_, gid) ->
      Format.fprintf ppf "CLEAR FLIP: graph %d (exact SSP well clear of ε)@."
        gid)
    clear_flips;
  let oc = open_out "BENCH_verify.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row label (p50, p95, p99, w50, spc, hr, early) last =
        Printf.sprintf
          "    { \"variant\": %S, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
           \"p99_ms\": %.3f, \"warm_p50_ms\": %.3f, \
           \"samples_per_candidate\": %.2f, \"hit_rate\": %.4f, \
           \"early_stops\": %d }%s\n"
          label (1000. *. p50) (1000. *. p95) (1000. *. p99) (1000. *. w50)
          spc hr early
          (if last then "" else ",")
      in
      Printf.fprintf oc
        "{\n\
        \  \"workload\": \"fig9\",\n\
        \  \"db_size\": %d,\n\
        \  \"distinct_queries\": %d,\n\
        \  \"rounds\": %d,\n\
        \  \"variants\": [\n\
         %s%s%s  ],\n\
        \  \"speedup_warm_p50\": %.2f,\n\
        \  \"speedup_adaptive_p50\": %.2f,\n\
        \  \"identical_answers\": %b,\n\
        \  \"adaptive_same_answer_sets\": %b,\n\
        \  \"adaptive_borderline_flips\": %d,\n\
        \  \"adaptive_clear_flips\": %d,\n\
        \  \"adaptive_decision_safe\": %b\n\
         }\n"
        (Array.length graphs) nq rounds
        (row "cold" cold_row false)
        (row "warm" warm_row false)
        (row "adaptive" adap_row true)
        speedup_warm speedup_adaptive identical same_answers
        (List.length borderline_flips)
        (List.length clear_flips)
        decision_safe);
  Format.fprintf ppf "wrote BENCH_verify.json@.";
  if not (identical && decision_safe) then exit 1

let micro ppf =
  Format.fprintf ppf "@.=== Micro-benchmarks (Bechamel, ns/run) ===@.";
  let scale = { Experiments.quick_scale with db_size = 20 } in
  let ds =
    Generator.generate
      {
        Generator.default_params with
        num_graphs = scale.Experiments.db_size;
        min_vertices = 10;
        max_vertices = 14;
        motif_edges = 6;
        seed = 2012;
      }
  in
  let g = ds.Generator.graphs.(0) in
  let gc = Pgraph.skeleton g in
  let rng = Psst_util.Prng.make 1 in
  let q, _ = Generator.extract_query rng ds ~edges:5 in
  let relaxed, _ = Relax.relaxed_set q ~delta:1 in
  let skeletons = Array.map Pgraph.skeleton ds.Generator.graphs in
  let mining = { Selection.default_params with max_edges = 2 } in
  let features = Selection.select skeletons mining in
  let feature =
    (List.find
       (fun (f : Selection.feature) -> Lgraph.num_edges f.graph >= 1)
       features)
      .graph
  in
  let clique_graph =
    let n = 14 in
    let weights = Array.init n (fun i -> 0.1 +. float_of_int (i mod 5)) in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if (u + v) mod 3 <> 0 then edges := (u, v) :: !edges
      done
    done;
    Mwc.make ~weights ~edges:!edges
  in
  let smp_rng = Psst_util.Prng.make 5 in
  let smp_cfg = { Verify.default_config with tau = 0.25 } in
  let tests =
    Test.make_grouped ~name:"psst"
      [
        Test.make ~name:"vf2-exists" (Staged.stage (fun () -> Vf2.exists q gc));
        Test.make ~name:"vf2-embeddings"
          (Staged.stage (fun () -> Vf2.distinct_embeddings ~cap:32 feature gc));
        Test.make ~name:"sample-world"
          (Staged.stage (fun () -> Pgraph.sample_world smp_rng g));
        Test.make ~name:"sample-mask"
          (Staged.stage (fun () -> Pgraph.sample_mask smp_rng g));
        Test.make ~name:"velim-prob-all-present"
          (Staged.stage
             (let factors = Pgraph.factors g and z = Pgraph.partition_value g in
              let vars = List.filteri (fun i _ -> i < 3) (Pgraph.uncertain_edges g) in
              fun () -> Velim.prob_all_present ~z factors vars));
        Test.make ~name:"world-prob"
          (Staged.stage
             (let mask, _, _ = Pgraph.sample_world smp_rng g in
              fun () -> Pgraph.world_prob g mask));
        Test.make ~name:"max-weight-clique"
          (Staged.stage (fun () -> Mwc.max_weight_clique clique_graph));
        Test.make ~name:"canonical-code" (Staged.stage (fun () -> Canon.code q));
        Test.make ~name:"feature-select"
          (Staged.stage (fun () -> Selection.select skeletons mining));
        Test.make ~name:"bounds-column"
          (Staged.stage (fun () ->
               let column = Bounds.column Bounds.default_config g in
               List.iter
                 (fun (f : Selection.feature) ->
                   ignore (Bounds.compute Bounds.default_config ~column g f.graph))
                 features));
        Test.make ~name:"mcs-distance"
          (Staged.stage (fun () -> Distance.within q gc ~delta:1));
        Test.make ~name:"smp-verify"
          (Staged.stage (fun () -> Verify.smp ~config:smp_cfg smp_rng g relaxed));
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) -> Format.fprintf ppf "%-30s %14.1f ns/run@." name ns)
    rows

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let scale =
    if quick then Experiments.quick_scale else Experiments.default_scale
  in
  let targets =
    List.filter (fun a -> a <> "--quick") args
    |> function [] -> [ "all" ] | l -> l
  in
  let ppf = Format.std_formatter in
  let run = function
    | "fig9" -> Experiments.fig9 ~scale ppf
    | "fig10" -> Experiments.fig10 ~scale ppf
    | "fig11" -> Experiments.fig11 ~scale ppf
    | "fig12" -> Experiments.fig12 ~scale ppf
    | "fig13" -> Experiments.fig13 ~scale ppf
    | "fig14" -> Experiments.fig14 ~scale ppf
    | "ablation" | "ablations" -> Experiments.ablations ~scale ppf
    | "parallel" -> Experiments.parallel ~scale ppf
    | "store" -> store ~scale ppf
    | "obs" -> obs ~scale ppf
    | "serve" -> serve ~scale ppf
    | "shard" -> shard_bench ~scale ppf
    | "chaos" -> chaos ~scale ppf
    | "ingest" -> ingest_bench ~scale ppf
    | "replica" -> replica_bench ~scale ppf
    | "verify" -> verify_bench ~scale ppf
    | "micro" -> micro ppf
    | "all" ->
      Experiments.all ~scale ppf;
      store ~scale ppf;
      obs ~scale ppf;
      serve ~scale ppf;
      shard_bench ~scale ppf;
      chaos ~scale ppf;
      ingest_bench ~scale ppf;
      replica_bench ~scale ppf;
      verify_bench ~scale ppf;
      micro ppf
    | other ->
      Format.fprintf ppf
        "unknown target %S (expected fig9..fig14, ablation, parallel, store, obs, serve, shard, chaos, ingest, replica, verify, micro, all)@."
        other;
      exit 2
  in
  List.iter run targets;
  Format.pp_print_flush ppf ()
