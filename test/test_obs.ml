(* The observability layer (DESIGN.md §10): registry primitives, domain
   safety, warning events, traces, and the counters/flags the pipeline
   feeds.

   The registry is process-global, so every check here is written against
   deltas (snapshot before, compare after) or against metric names unique
   to this file — never against absolute values another suite may have
   bumped. *)

module Pool = Psst_util.Pool
module Prng = Psst_util.Prng

let fast_bounds = { Bounds.default_config with mc_samples = 200 }

let test_counter_basics () =
  let c = Psst_obs.counter "test_obs.counter" in
  let before = Psst_obs.counter_value c in
  Psst_obs.incr c;
  Psst_obs.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Psst_obs.counter_value c);
  Alcotest.(check string) "name" "test_obs.counter" (Psst_obs.counter_name c);
  let c' = Psst_obs.counter "test_obs.counter" in
  Psst_obs.incr c';
  Alcotest.(check int) "interned: same cell" (before + 43)
    (Psst_obs.counter_value c)

let test_accumulator_basics () =
  let a = Psst_obs.accumulator "test_obs.acc" in
  Psst_obs.record a 1.5;
  Psst_obs.record a 2.5;
  Alcotest.(check int) "count" 2 (Psst_obs.acc_count a);
  Tgen.check_close "sum" 4. (Psst_obs.acc_sum a);
  Tgen.check_close "mean" 2. (Psst_obs.acc_mean a)

let test_histogram_basics () =
  let h = Psst_obs.histogram "test_obs.hist" in
  List.iter (Psst_obs.observe h) [ 1e-6; 1e-6; 0.5; 2e4 ];
  Alcotest.(check int) "count" 4 (Psst_obs.histogram_count h);
  Tgen.check_close "sum" 20000.500002 (Psst_obs.histogram_sum h);
  Alcotest.(check int) "overflow (above hi)" 1 (Psst_obs.histogram_overflow h);
  let buckets = Psst_obs.histogram_buckets h in
  let in_buckets =
    Array.fold_left (fun acc (_, c) -> acc + c) 0 buckets
  in
  Alcotest.(check int) "finite buckets hold the rest" 3 in_buckets;
  (* Monotone upper bounds, and every value landed at a bound >= itself. *)
  Array.iteri
    (fun i (ub, _) ->
      if i > 0 then
        Alcotest.(check bool) "ascending bounds" true (fst buckets.(i - 1) < ub))
    buckets

let test_mismatched_kind_rejected () =
  let (_ : Psst_obs.counter) = Psst_obs.counter "test_obs.kind" in
  Alcotest.check_raises "histogram over a counter name"
    (Invalid_argument
       "Psst_obs: metric \"test_obs.kind\" already registered with another type")
    (fun () -> ignore (Psst_obs.histogram "test_obs.kind"))

let test_span_times_thunk () =
  let h = Psst_obs.histogram "test_obs.span" in
  let before = Psst_obs.histogram_count h in
  let x = Psst_obs.span h (fun () -> 7 * 6) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check int) "one observation" (before + 1)
    (Psst_obs.histogram_count h);
  (match Psst_obs.span h (fun () -> failwith "boom") with
  | (_ : int) -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "observed on exception too" (before + 2)
    (Psst_obs.histogram_count h)

let test_parallel_increments () =
  let c = Psst_obs.counter "test_obs.parallel" in
  let a = Psst_obs.accumulator "test_obs.parallel_acc" in
  let before_c = Psst_obs.counter_value c in
  let before_s = Psst_obs.acc_sum a in
  Pool.with_pool ~domains:4 (fun p ->
      Pool.iter_range p 1000 (fun _ ->
          Psst_obs.incr c;
          Psst_obs.record a 0.5));
  Alcotest.(check int) "no lost counter updates" (before_c + 1000)
    (Psst_obs.counter_value c);
  Tgen.check_close "no lost accumulator updates" (before_s +. 500.)
    (Psst_obs.acc_sum a)

let test_warnings () =
  let (_ : Psst_obs.warning list) = Psst_obs.drain_warnings () in
  Psst_obs.warn ~code:"test_obs.w" "first";
  Psst_obs.warn ~code:"test_obs.w" "second";
  (match Psst_obs.warnings () with
  | [ a; b ] ->
    Alcotest.(check string) "oldest first" "first" a.Psst_obs.message;
    Alcotest.(check string) "then newest" "second" b.Psst_obs.message;
    Alcotest.(check string) "code kept" "test_obs.w" a.Psst_obs.code
  | l -> Alcotest.failf "expected 2 warnings, got %d" (List.length l));
  Alcotest.(check bool) "auto counter bumped" true
    (Psst_obs.counter_value (Psst_obs.counter "warn.test_obs.w") >= 2);
  let drained = Psst_obs.drain_warnings () in
  Alcotest.(check int) "drain returns the log" 2 (List.length drained);
  Alcotest.(check int) "drain clears it" 0
    (List.length (Psst_obs.warnings ()))

let test_json_shape () =
  let c = Psst_obs.counter "test_obs.json_counter" in
  Psst_obs.incr c;
  let s = Psst_obs.to_json_string () in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (contains key))
    [ "\"counters\""; "\"accumulators\""; "\"histograms\""; "\"warnings\"";
      "\"warnings_dropped\""; "\"test_obs.json_counter\"" ]

let test_trace () =
  let tr = Psst_obs.Trace.create "t" in
  Psst_obs.Trace.set_time tr "phase_a" 0.25;
  Psst_obs.Trace.set_count tr "items" 3;
  Psst_obs.Trace.set_flag tr "degraded" false;
  let x = Psst_obs.Trace.span tr "phase_b" (fun () -> 5) in
  Alcotest.(check int) "span result" 5 x;
  Alcotest.(check (list string)) "times in insertion order"
    [ "phase_a"; "phase_b" ]
    (List.map fst (Psst_obs.Trace.times tr));
  Alcotest.(check (list (pair string int))) "counts" [ ("items", 3) ]
    (Psst_obs.Trace.counts tr);
  let buf = Buffer.create 128 in
  Psst_obs.Trace.to_json buf tr;
  let s = Buffer.contents buf in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (let nl = String.length key and sl = String.length s in
         let rec go i =
           i + nl <= sl && (String.sub s i nl = key || go (i + 1))
         in
         go 0))
    [ "\"label\": \"t\""; "\"times_s\""; "\"counts\""; "\"flags\"";
      "\"degraded\": false" ]

(* --- pipeline integration --- *)

let small_db seed =
  let ds =
    Generator.generate
      { Generator.default_params with num_graphs = 8; seed; min_vertices = 6;
        max_vertices = 10; motif_edges = 3 }
  in
  let db =
    Query.index_database
      ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
      ~bounds:fast_bounds ds.graphs
  in
  (ds, db)

let test_pipeline_metrics_flow () =
  let ds, db = small_db 23 in
  let q, _ = Generator.extract_query (Prng.make 29) ds ~edges:4 in
  let config = { Query.default_config with epsilon = 0.4; delta = 1 } in
  let snap name = Psst_obs.counter_value (Psst_obs.counter name) in
  let names =
    [ "query.runs"; "relax.calls"; "structural.checked"; "pruning.evaluated" ]
  in
  let before = List.map snap names in
  let out = Query.run db q config in
  Alcotest.(check bool) "not truncated" false out.Query.stats.relaxed_truncated;
  List.iter2
    (fun name b ->
      Alcotest.(check bool) (name ^ " advanced") true (snap name > b))
    names before;
  (* Bounds and PMI columns are index-build work: they moved when
     [small_db] built the database, before the snapshot. *)
  Alcotest.(check bool) "pmi columns were built" true
    (snap "pmi.columns_built" >= 8);
  Alcotest.(check bool) "bounds were computed" true
    (snap "bounds.computed" > 0);
  (* Trace mirrors the stats. *)
  Alcotest.(check (list (pair string bool))) "trace flag"
    [ ("relaxed_truncated", false) ]
    (Psst_obs.Trace.flags out.Query.trace);
  Alcotest.(check bool) "trace counts answers" true
    (List.mem_assoc "answers" (Psst_obs.Trace.counts out.Query.trace))

let test_truncation_surfaced () =
  let ds, db = small_db 31 in
  let q, _ = Generator.extract_query (Prng.make 37) ds ~edges:5 in
  let config =
    { Query.default_config with epsilon = 0.4; delta = 1; relax_cap = 1 }
  in
  let (_ : Psst_obs.warning list) = Psst_obs.drain_warnings () in
  let out = Query.run db q config in
  Alcotest.(check bool) "stats flag set" true out.Query.stats.relaxed_truncated;
  Alcotest.(check bool) "warning event emitted" true
    (List.exists
       (fun (w : Psst_obs.warning) -> w.code = "relax.truncated")
       (Psst_obs.warnings ()));
  Alcotest.(check bool) "warn counter bumped" true
    (Psst_obs.counter_value (Psst_obs.counter "warn.relax.truncated") >= 1);
  let topk = Topk.run db q ~k:3 config in
  Alcotest.(check bool) "topk surfaces it too" true
    topk.Topk.stats.relaxed_truncated;
  (* A complete enumeration must not set the flag. *)
  let out' = Query.run db q { config with relax_cap = 4096 } in
  Alcotest.(check bool) "complete set not flagged" false
    out'.Query.stats.relaxed_truncated

let test_reset_zeroes () =
  let c = Psst_obs.counter "test_obs.reset" in
  let h = Psst_obs.histogram "test_obs.reset_h" in
  Psst_obs.incr c;
  Psst_obs.observe h 1.;
  Psst_obs.warn ~code:"test_obs.reset" "gone after reset";
  Psst_obs.reset ();
  Alcotest.(check int) "counter zero" 0 (Psst_obs.counter_value c);
  Alcotest.(check int) "histogram zero" 0 (Psst_obs.histogram_count h);
  Alcotest.(check int) "warnings cleared" 0
    (List.length (Psst_obs.warnings ()));
  Psst_obs.incr c;
  Alcotest.(check int) "still usable" 1 (Psst_obs.counter_value c)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "accumulator basics" `Quick test_accumulator_basics;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_mismatched_kind_rejected;
    Alcotest.test_case "span times the thunk" `Quick test_span_times_thunk;
    Alcotest.test_case "parallel increments" `Quick test_parallel_increments;
    Alcotest.test_case "warning events" `Quick test_warnings;
    Alcotest.test_case "registry json shape" `Quick test_json_shape;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "pipeline metrics flow" `Slow test_pipeline_metrics_flow;
    Alcotest.test_case "truncation surfaced" `Slow test_truncation_surfaced;
    Alcotest.test_case "reset zeroes metrics" `Quick test_reset_zeroes;
  ]
