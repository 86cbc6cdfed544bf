(* The ledger's metric table: every name, unit, direction and regression
   bound lives here. BENCHMARK.json is rendered from it ([ledger.exe
   spec]) and a runtest rule diffs the committed file against that
   rendering, so the two cannot drift apart. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the base median by which
          the metric may worsen before a change counts as a regression *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let command = [ "bash"; "bench/ledger/run.sh" ]
let paths = [ "bench/ledger" ]
let run_seconds = 10

let workloads =
  [
    ( "cold",
      "distinct organism-motif queries, nothing cached: Karp-Luby sampling \
       in Verify.smp_run dominates, so verification work moves it" );
    ( "warm",
      "an 8-query pool answered from a filled Qcache: structural and PMI \
       pruning plus the server and protocol path, with verification idle" );
    ( "routed",
      "the warm traffic through psst_router over two shard workers, so the \
       difference from warm is scatter/gather and the split" );
    ( "ingest",
      "Add_graphs batches beside pool reads with a semi-sync standby: PMI \
       column builds, delta persistence, the replication gate, cache flushes" );
  ]

(* An end-to-end metric is gated only if its spread (interquartile range
   over median) across runs of the same code stays within 0.10 on every
   workload; README.md records the measured spreads. None does on the
   shared machine the ledger was calibrated on, whose speed drifts by
   tens of percent over minutes. [setup_s] is gated all the same, with
   the widest bound allowed, because every benchmark must gate its
   set-up time. *)
let end_to_end = [ e2e "setup_s" "s" Lower 0.25 ]

(* The end-to-end metrics that failed the 0.10 spread test: measured on
   every run of every workload, reported with the per-layer metrics,
   never gated. *)
let unsteady =
  [
    layer "ops_per_s" "1/s" Higher;
    layer "p50_ms" "ms" Lower;
    layer "p75_ms" "ms" Lower;
    layer "rss_mb" "MiB" Lower;
  ]

let micro_rows =
  [
    "categorical";
    "jtree_sample";
    "vf2_embeddings";
    "pmi_lookup_heap";
    "pmi_lookup_mmap";
    "bounds_compute";
    "smp_run";
  ]

let per_layer =
  unsteady
  @ [
    layer "relax.ms" "ms" Lower;
    layer "relax.patterns" "count" Lower;
    layer "structural.ms" "ms" Lower;
    layer "structural.survivor_ratio" "ratio" Lower;
    layer "pruning.prepare_ms" "ms" Lower;
    layer "pruning.evaluate_us" "us" Lower;
    layer "pruning.evaluate_calls" "count" Lower;
    layer "pruning.decided_ratio" "ratio" Higher;
    layer "verify.calls" "count" Lower;
    layer "verify.embedding_sets_ms" "ms" Lower;
    layer "verify.smp_prepare_ms" "ms" Lower;
    layer "verify.smp_run_ms" "ms" Lower;
    layer "verify.samples" "count" Lower;
    layer "verify.ns_per_sample" "ns" Lower;
    layer "verify.minor_words_per_sample" "words" Lower;
    layer "qcache.hit_rate" "ratio" Higher;
    layer "qcache.flushes" "count" Lower;
    layer "server.queue_wait_ms" "ms" Lower;
    layer "server.batch_size" "count" Higher;
    layer "pool.parallel_runs" "count" Lower;
    layer "pool.caller_share" "ratio" Higher;
    layer "client.ping_us" "us" Lower;
    layer "proto.run_bytes" "bytes" Lower;
    layer "proto.answer_bytes" "bytes" Lower;
    layer "proto.codec_us" "us" Lower;
    layer "index.mine_s" "s" Lower;
    layer "index.structural_s" "s" Lower;
    layer "index.pmi_s" "s" Lower;
    layer "index.pmi_entries" "count" Lower;
    layer "store.save_s" "s" Lower;
    layer "store.bytes_per_graph" "bytes" Lower;
    layer "store.mmap_load_ms" "ms" Lower;
    layer "server.ready_s" "s" Lower;
    layer "ingest.apply_ms" "ms" Lower;
    layer "pmi.add_ms_per_graph" "ms" Lower;
    layer "ingest.persist_ms" "ms" Lower;
    layer "ingest.delta_bytes_per_graph" "bytes" Lower;
    layer "replica.apply_ms" "ms" Lower;
    layer "trace.coverage" "ratio" Higher;
    layer "trace.overhead_pct" "%" Lower;
  ]
  @ List.concat_map
      (fun row ->
        [
          layer ("micro." ^ row ^ ".ns") "ns" Lower;
          layer ("micro." ^ row ^ ".minor_words") "words" Lower;
        ])
      micro_rows

(* Reported, never gated, and not in BENCHMARK.json: most exist on some
   workloads only, and [failed_frac] is 0 on every run that passes its
   checks. *)
let diagnostics =
  [
    layer "p90_ms" "ms" Lower;
    layer "p99_ms" "ms" Lower;
    layer "failed_frac" "ratio" Lower;
    layer "samples" "count" Higher;
    layer "read_p50_ms" "ms" Lower;
    layer "read_p75_ms" "ms" Lower;
    layer "reads" "count" Higher;
    layer "open20_p50_ms" "ms" Lower;
    layer "open20_p90_ms" "ms" Lower;
    layer "open40_p50_ms" "ms" Lower;
    layer "open40_p90_ms" "ms" Lower;
    layer "loadgen.late_p90_ms" "ms" Lower;
    layer "router.shard_ms.0" "ms" Lower;
    layer "router.shard_ms.1" "ms" Lower;
    layer "router.routed_ms" "ms" Lower;
    layer "router.overhead_ms" "ms" Lower;
  ]

let all = end_to_end @ per_layer @ diagnostics
let find name = List.find_opt (fun m -> m.name = name) all
let better_name = function Lower -> "lower" | Higher -> "higher"

let metric_json m =
  Json.Obj
    ([
       ("name", Json.Str m.name);
       ("unit", Json.Str m.unit_);
       ("better", Json.Str (better_name m.better));
     ]
    @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])

(* BENCHMARK.json, one item per line so diffs stay readable. *)
let benchmark_json () =
  let strings l = "[" ^ String.concat ", " (List.map Json.escape l) ^ "]" in
  let block items =
    "[\n" ^ String.concat ",\n" (List.map (fun j -> "    " ^ Json.to_string j) items) ^ "\n  ]"
  in
  String.concat ""
    [
      "{\n";
      "  \"command\": " ^ strings command ^ ",\n";
      "  \"paths\": " ^ strings paths ^ ",\n";
      "  \"run_seconds\": " ^ string_of_int run_seconds ^ ",\n";
      "  \"workloads\": "
      ^ block
          (List.map
             (fun (name, why) -> Json.Obj [ ("name", Json.Str name); ("why", Json.Str why) ])
             workloads)
      ^ ",\n";
      "  \"end_to_end\": " ^ block (List.map metric_json end_to_end) ^ ",\n";
      "  \"per_layer\": " ^ block (List.map metric_json per_layer) ^ "\n";
      "}\n";
    ]
