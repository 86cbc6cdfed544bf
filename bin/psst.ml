(* psst — command-line front end for the probabilistic subgraph similarity
   search library.

   Subcommands:
     generate    synthesise a STRING-like probabilistic graph corpus and
                 print its statistics
     index       build the feature/PMI indexes once and persist them
     query       run T-PS queries end to end on a synthetic corpus
                 (--index FILE skips mining/PMI build when a valid
                 persisted index exists)
     shard       split an indexed database into a sharded deployment
                 (manifest + per-shard store files, DESIGN.md §14)
     serve       resident query server over a Unix/TCP socket
                 (DESIGN.md §11): load once, answer until SIGTERM.
                 --role worker serves one database (optionally one shard
                 of a manifest); --role router fans queries out to shard
                 workers and merges the answers (DESIGN.md §14)
     client      submit queries to a running server or router, print
                 answers
     experiment  regenerate one of the paper's figures (or the ablations) *)

open Cmdliner

let scale_of n queries seed =
  { Experiments.db_size = n; queries_per_point = queries; seed }

(* Uniform failure behaviour for every subcommand (DESIGN.md §11): a
   missing, malformed or unreachable database / index / query file — or an
   unreachable server — prints one line on stderr and exits 1, instead of
   leaking a raw exception (backtrace + cmdliner's internal-error code). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "psst: %s\n%!" msg;
      exit 1)
    fmt

let or_die f =
  try f () with
  | Psst_store.Store_error msg -> die "%s" msg
  | Psst_proto.Proto_error msg -> die "protocol error: %s" msg
  | Psst_proto.Timed_out -> die "timed out waiting for the server"
  | Psst_client.Client_error msg -> die "%s" msg
  | Sys_error msg -> die "%s" msg
  | Failure msg -> die "%s" msg
  | Invalid_argument msg -> die "%s" msg
  | Unix.Unix_error (e, fn, arg) ->
    die "%s%s: %s" fn (if arg = "" then "" else " " ^ arg) (Unix.error_message e)

(* --- generate --- *)

let generate num_graphs organisms seed verbose binary output =
  or_die @@ fun () ->
  let params =
    {
      Generator.default_params with
      num_graphs;
      num_organisms = organisms;
      seed;
    }
  in
  let ds = Generator.generate params in
  Printf.printf "generated %d probabilistic graphs over %d organisms (seed %d)\n"
    (Array.length ds.graphs) organisms seed;
  let total_v = ref 0 and total_e = ref 0 and total_p = ref 0. in
  Array.iter
    (fun g ->
      let gc = Pgraph.skeleton g in
      total_v := !total_v + Lgraph.num_vertices gc;
      total_e := !total_e + Lgraph.num_edges gc;
      List.iter
        (fun e -> total_p := !total_p +. Pgraph.edge_marginal g e)
        (Pgraph.uncertain_edges g))
    ds.graphs;
  let n = float_of_int (Array.length ds.graphs) in
  Printf.printf "avg vertices %.1f, avg edges %.1f, avg edge probability %.3f\n"
    (float_of_int !total_v /. n)
    (float_of_int !total_e /. n)
    (!total_p /. float_of_int !total_e);
  if verbose then
    Array.iteri
      (fun i g ->
        Printf.printf "-- graph %d (organism %d, graft %s)\n%s" i
          ds.organisms.(i)
          (match ds.grafts.(i) with Some o -> string_of_int o | None -> "none")
          (Lgraph.to_string (Pgraph.skeleton g)))
      ds.graphs;
  match output with
  | None -> ()
  | Some path ->
    if binary then Pgraph_io.save_binary path ds.graphs
    else Pgraph_io.save path ds.graphs;
    Printf.printf "corpus written to %s (%s)\n" path
      (if binary then "binary" else "text")

(* --- query --- *)

(* The corpus a command runs on: generated, or read from [--input]. A
   binary file is checked when it is read (kind, frame CRCs, graph count)
   and fingerprinted by the CRC of its graphs payload, but its graphs are
   decoded only when a command asks for [corpus]: a reused index serves
   its own graphs and only compares fingerprints. *)
type source = {
  count : int;
  fingerprint : int32 Lazy.t;
  corpus : Corpus.t Lazy.t;
  ds : Generator.t option;
}

let eager_source graphs ds =
  let corpus = Corpus.of_array graphs in
  {
    count = Array.length graphs;
    fingerprint = lazy (Corpus.fingerprint corpus);
    corpus = Lazy.from_val corpus;
    ds;
  }

let corpus_of input num_graphs seed =
  match input with
  | Some path ->
    let src =
      if Psst_store.is_store_file path then
        let b = Pgraph_io.read_binary path in
        {
          count = b.count;
          fingerprint = Lazy.from_val b.fingerprint;
          corpus =
            lazy (Corpus.of_array ~fingerprint:b.fingerprint (Lazy.force b.graphs));
          ds = None;
        }
      else eager_source (Pgraph_io.load path) None
    in
    Printf.printf "loaded %d graphs from %s\n%!" src.count path;
    src
  | None ->
    let params = { Generator.default_params with num_graphs; seed } in
    let ds = Generator.generate params in
    eager_source ds.graphs (Some ds)

(* Build the indexes, or reuse a persisted database when [index_file] names
   a valid store for this exact corpus. A missing file is built and saved; a
   corrupt/stale/foreign one is reported, rebuilt and overwritten — a bad
   cache never changes answers, only costs the rebuild. A reused index then
   replays its ingest delta chain (DESIGN.md §16), so an offline run agrees
   with a server that ingested on the same store; a rebuild clears the
   chain (the deltas chained onto the old base). Returns the database, the
   elapsed time, a description, and the delta chain when persistent
   (armed for further ingest). A rebuild runs on [domains]. [verify]
   checks every section's CRC when a reused index is mapped, so damage
   anywhere in it is rebuilt too. *)
let obtain_database ?(mmap = false) ?(verify = false)
    ?(domains = Psst_util.Pool.default_domains ()) index_file src =
  let with_deltas path (db, t) how =
    let (db, chain), t_replay =
      Psst_util.Timer.time (fun () -> Psst_ingest.apply_deltas ~base:path db)
    in
    let applied = chain.Psst_ingest.next_seq - 1 in
    let how =
      if applied = 0 then how
      else Printf.sprintf "%s + %d ingest delta%s replayed" how applied
        (if applied = 1 then "" else "s")
    in
    (db, t +. t_replay, how, Some chain)
  in
  let build_and_save () =
    let db, t =
      Psst_util.Timer.time (fun () ->
          Query.index_database ~domains (Corpus.to_array (Lazy.force src.corpus)))
    in
    match index_file with
    | Some path ->
      let stale = Psst_ingest.clear_deltas path in
      if stale > 0 then
        Printf.printf "removed %d stale ingest delta file%s of %s\n%!" stale
          (if stale = 1 then "" else "s")
          path;
      Query.save_database path db;
      Printf.printf "index persisted to %s\n%!" path;
      if mmap then
        let db, t_map =
          Psst_util.Timer.time (fun () -> Query.load_database ~mmap:true path)
        in
        with_deltas path (db, t +. t_map)
          "built (serving the memory-mapped flat image)"
      else with_deltas path (db, t) "built"
    | None -> (db, t, "built", None)
  in
  match index_file with
  | Some path when Sys.file_exists path -> (
    match Psst_util.Timer.time (fun () -> Query.load_database ~mmap ~verify path) with
    | db, t when
        Corpus.fingerprint db.Query.graphs = Lazy.force src.fingerprint ->
      with_deltas path (db, t)
        (if mmap then "memory-mapped (zero-copy flat image)"
         else "loaded (mining and PMI build skipped)")
    | _ ->
      Printf.printf "index %s was built for a different corpus; rebuilding\n%!"
        path;
      build_and_save ()
    | exception Psst_store.Store_error msg ->
      Printf.printf "index %s rejected (%s); rebuilding\n%!" path msg;
      build_and_save ())
  | _ -> build_and_save ()

let index num_graphs seed input _flat output =
  or_die @@ fun () ->
  let graphs =
    Corpus.to_array (Lazy.force (corpus_of input num_graphs seed).corpus)
  in
  Printf.printf "indexing %d graphs...\n%!" (Array.length graphs);
  let db, t_index =
    Psst_util.Timer.time (fun () ->
        Query.index_database ~domains:(Psst_util.Pool.default_domains ()) graphs)
  in
  Query.save_database output db;
  let bytes =
    let ic = open_in_bin output in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
  in
  Printf.printf
    "indexed in %.2fs: %d features, %d PMI entries\nindex written to %s (%d bytes)\n"
    t_index
    (List.length db.Query.features)
    (Pmi.filled_entries db.Query.pmi)
    output bytes

(* --- shard (DESIGN.md §14) --- *)

let shard num_graphs seed input index_file _flat output shards max_graphs
    max_cost =
  or_die @@ fun () ->
  let src = corpus_of input num_graphs seed in
  Printf.printf "indexing %d graphs...\n%!" src.count;
  (* A reused index is mapped: each shard's graphs are copied from the
     mapped image's bytes, none decoded and encoded again. The split
     copies its postings and bounds too, so every section's CRC is
     checked at load, and a damaged index is rebuilt rather than copied
     under fresh CRCs. A database built here is split as built. *)
  let mmap = match index_file with Some p -> Sys.file_exists p | None -> false in
  let db, t_index, how, _chain = obtain_database ~mmap ~verify:true index_file src in
  Printf.printf "index %s in %.2fs: %d features, %d PMI entries\n%!" how t_index
    (List.length db.Query.features)
    (Pmi.filled_entries db.Query.pmi);
  let plan =
    match (shards, max_graphs, max_cost) with
    | Some parts, None, None ->
      Psst_shard.plan_even ~parts ~total:src.count
    | None, None, None ->
      die "pass --shards N (even split) or --max-graphs / --max-cost (budget)"
    | None, mg, mc ->
      let budget =
        {
          Psst_shard.max_graphs = Option.value mg ~default:max_int;
          max_cost = Option.value mc ~default:infinity;
        }
      in
      Psst_shard.plan_budget db budget
    | Some _, _, _ -> die "--shards conflicts with --max-graphs/--max-cost"
  in
  let m = Psst_shard.split_to_files ~manifest_path:output db plan in
  Printf.printf "sharded %d graphs into %d shards (manifest %s):\n" m.total
    (List.length m.Psst_shard.entries)
    output;
  List.iter
    (fun (s : Psst_shard.entry) ->
      Printf.printf "  shard %d: graphs %d..%d (%d) -> %s [%08lx]\n" s.sid
        s.base
        (s.base + s.count - 1)
        s.count s.path s.fingerprint)
    m.Psst_shard.entries

(* [--stats-json FILE]: the per-query traces plus a full dump of the
   metrics registry, one machine-readable document. *)
let write_stats_json path traces =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"queries\": [";
  List.iteri
    (fun i tr ->
      if i > 0 then Buffer.add_string buf ", ";
      Psst_obs.Trace.to_json buf tr)
    traces;
  Buffer.add_string buf "], \"metrics\": ";
  Psst_obs.to_json buf;
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "stats written to %s\n%!" path

(* Query extraction needs a dataset wrapper; a loaded corpus gets a
   trivial one (organism 0 everywhere) over [corpus], the source's graphs,
   shared by [query], [topk] and [client] so the extracted query sequence
   is identical for the same corpus and seed. *)
let dataset_wrapper src corpus =
  match src.ds with
  | Some ds -> ds
  | None ->
    let graphs = Corpus.to_array (Lazy.force corpus) in
    {
      Generator.graphs;
      organisms = Array.make (Array.length graphs) 0;
      motifs = [||];
      grafts = Array.make (Array.length graphs) None;
      params = Generator.default_params;
    }

let query num_graphs seed qsize nqueries epsilon delta exact_verifier input
    index_file stats_json =
  or_die @@ fun () ->
  let src = corpus_of input num_graphs seed in
  Printf.printf "indexing %d graphs...\n%!" src.count;
  let db, t_index, how, _chain = obtain_database index_file src in
  Printf.printf "index %s in %.2fs: %d features, %d PMI entries\n%!" how t_index
    (List.length db.Query.features)
    (Pmi.filled_entries db.Query.pmi);
  let config =
    {
      Query.default_config with
      epsilon;
      delta;
      verifier =
        (if exact_verifier then `Exact else `Smp Verify.default_config);
    }
  in
  let rng = Psst_util.Prng.make (seed + 1) in
  (* The database begins with the source's graphs (its fingerprint
     matched, or it was built from them), already decoded by an eager
     load: the queries are drawn from those. *)
  let ds =
    dataset_wrapper src
      (lazy (Corpus.sub db.Query.graphs ~base:0 ~count:src.count))
  in
  let traces = ref [] in
  for k = 1 to nqueries do
    let q, org = Generator.extract_query rng ds ~edges:qsize in
    let out, t = Psst_util.Timer.time (fun () -> Query.run db q config) in
    traces := out.Query.trace :: !traces;
    Printf.printf
      "query %d (organism %d, %d edges): %d answers in %.3fs \
       [structural %d, pruned %d, accepted %d, verified %d]\n"
      k org (Lgraph.num_edges q)
      (List.length out.Query.answers)
      t out.Query.stats.structural_candidates out.Query.stats.pruned_by_bounds
      out.Query.stats.accepted_by_bounds out.Query.stats.prob_candidates;
    if out.Query.stats.relaxed_truncated then
      Printf.printf
        "  warning: relaxed set truncated at %d patterns — SSP estimates \
         are lower bounds, the answer set may under-approximate\n"
        config.Query.relax_cap;
    Printf.printf "  answers: %s\n"
      (String.concat ", " (List.map string_of_int out.Query.answers))
  done;
  match stats_json with
  | None -> ()
  | Some path -> write_stats_json path (List.rev !traces)

(* --- topk --- *)

let topk num_graphs seed qsize k delta input =
  or_die @@ fun () ->
  let src = corpus_of input num_graphs seed in
  let db =
    Query.index_database ~domains:(Psst_util.Pool.default_domains ())
      (Corpus.to_array (Lazy.force src.corpus))
  in
  let ds = dataset_wrapper src src.corpus in
  let rng = Psst_util.Prng.make (seed + 1) in
  let q, org = Generator.extract_query rng ds ~edges:qsize in
  Printf.printf "top-%d query (organism %d, %d edges, delta %d):\n" k org
    (Lgraph.num_edges q) delta;
  let config = { Query.default_config with delta } in
  let out, t = Psst_util.Timer.time (fun () -> Topk.run db q ~k config) in
  Printf.printf "answered in %.3fs (%d structural candidates, %d verified, \
                 %d skipped by bounds)\n"
    t out.Topk.stats.structural_candidates out.Topk.stats.verified
    out.Topk.stats.bound_skipped;
  if out.Topk.stats.relaxed_truncated then
    Printf.printf
      "warning: relaxed set truncated — SSPs are lower bounds, the ranking \
       may under-rank some graphs\n";
  List.iter
    (fun (h : Topk.hit) -> Printf.printf "  graph %3d   SSP ~ %.4f\n" h.graph h.ssp)
    out.Topk.hits

(* --- serve / client (DESIGN.md §11) --- *)

let endpoint_of socket port host =
  match (socket, port) with
  | Some path, None ->
    if path = "" then die "--socket PATH must be non-empty";
    Psst_proto.Unix_socket path
  | None, Some p ->
    if p < 1 || p > 65535 then die "--port %d: port must be in 1..65535" p;
    if host = "" then die "--host must be non-empty";
    Psst_proto.Tcp (host, p)
  | Some _, Some _ -> die "pass either --socket PATH or --port PORT, not both"
  | None, None -> die "pass --socket PATH or --port PORT"

(* The syntax Psst_proto.endpoint_to_string prints: unix:PATH or
   tcp:HOST:PORT (so a worker endpoint can be copy-pasted from a worker's
   own startup line). Validation is eager and strict: an empty path or
   host, a port that is not plain decimal digits (no 0x/_/sign forms),
   or a port outside 1..65535 dies with the uniform one-line failure
   here, instead of surfacing minutes later as a confusing Unix_error
   from connect(2) mid-query. *)
let endpoint_of_string s =
  let malformed why = die "endpoint %S: %s" s why in
  match String.index_opt s ':' with
  | None -> malformed "expected unix:PATH or tcp:HOST:PORT"
  | Some i -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.sub s 0 i with
    | "unix" ->
      if rest = "" then malformed "unix endpoint needs a non-empty PATH"
      else Psst_proto.Unix_socket rest
    | "tcp" -> (
      (* The last colon splits host from port, so IPv6-style hosts with
         colons of their own still parse. *)
      match String.rindex_opt rest ':' with
      | None -> malformed "expected tcp:HOST:PORT"
      | Some j -> (
        let host = String.sub rest 0 j in
        let port_s = String.sub rest (j + 1) (String.length rest - j - 1) in
        if host = "" then malformed "tcp endpoint needs a non-empty HOST"
        else if
          port_s = ""
          || not (String.for_all (fun c -> c >= '0' && c <= '9') port_s)
        then malformed "PORT must be decimal digits"
        else
          match int_of_string_opt port_s with
          | Some p when p >= 1 && p <= 65535 -> Psst_proto.Tcp (host, p)
          | Some _ | None -> malformed "PORT must be in 1..65535"))
    | scheme ->
      malformed
        (Printf.sprintf "unknown scheme %S (expected unix or tcp)" scheme))

(* Signal handlers only flip an atomic; the main thread performs the
   drain (and SIGHUP promotion, when armed) outside signal context. *)
let wait_for_shutdown ?on_hup () =
  let stop_requested = Atomic.make false in
  let hup_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  if on_hup <> None then
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Atomic.set hup_requested true));
  while not (Atomic.get stop_requested) do
    if Atomic.compare_and_set hup_requested true false then
      Option.iter (fun f -> f ()) on_hup;
    Thread.delay 0.05
  done;
  Printf.printf "shutdown requested; draining in-flight requests...\n%!"

let serve_worker ?chain ?standby_of endpoint db domains queue_cap deadline_ms
    verify_budget_ms batch_max cache_cap ingest_queue_cap tenant_quota
    stats_json =
  let cfg =
    {
      (Psst_server.default_config endpoint) with
      Psst_server.domains;
      queue_cap;
      deadline_ms = float_of_int deadline_ms;
      verify_budget_ms;
      batch_max;
      cache_cap;
      ingest_queue_cap;
      tenant_quota;
      writable = standby_of = None;
    }
  in
  (* Any server with a persistent chain accepts replication
     subscriptions and gates its ingest acks on the standbys'
     acknowledgements; without a chain there is nothing byte-exact to
     stream. A standby carries a hub too, so once promoted it serves
     downstream subscribers like the primary it replaced. *)
  let hub = Option.map Psst_replica.hub chain in
  let publisher = Option.map Psst_replica.publisher hub in
  let srv = Psst_server.start ?chain ?publisher cfg db in
  let standby =
    match standby_of with
    | None -> None
    | Some primary -> (
      match chain with
      | None ->
        die
          "--standby-of needs --index FILE (the standby persists the \
           replicated delta chain next to its copy of the base index)"
      | Some chain ->
        Some
          ( Psst_replica.start_standby ~primary ~chain
              (Psst_server.snapshot_ref srv),
            primary ))
  in
  Printf.printf
    "serving on %s (%d domains, queue cap %d, deadline %s, verify budget %s, \
     batch cap %d, cache %s, ingest %s, tenant quota %s)\n%!"
    (Psst_proto.endpoint_to_string (Psst_server.endpoint srv))
    domains queue_cap
    (if deadline_ms > 0 then Printf.sprintf "%d ms" deadline_ms else "off")
    (if verify_budget_ms > 0. then Printf.sprintf "%.0f ms" verify_budget_ms
     else "off")
    batch_max
    (if cache_cap > 0 then Printf.sprintf "%d entries" cache_cap else "off")
    (if ingest_queue_cap > 0 then
       Printf.sprintf "queue of %d graphs%s" ingest_queue_cap
         (match chain with
         | Some _ -> ", persisted as delta files"
         | None -> ", memory only")
     else "off")
    (if tenant_quota > 0 then string_of_int tenant_quota else "off");
  (match standby with
  | None -> ()
  | Some (_, primary) ->
    Printf.printf
      "read-only standby of %s: replicating delta frames (SIGHUP promotes \
       to writable primary)\n%!"
      (Psst_proto.endpoint_to_string primary));
  let on_hup =
    match standby with
    | None -> None
    | Some (st, primary) ->
      Some
        (fun () ->
          if not (Psst_server.writable srv) then begin
            Psst_replica.promote st srv;
            Printf.printf
              "promoted: replication from %s stopped at seq %d; now a \
               writable primary at epoch %d\n%!"
              (Psst_proto.endpoint_to_string primary)
              (Psst_replica.applied_seq st)
              (Psst_server.epoch srv)
          end)
  in
  wait_for_shutdown ?on_hup ();
  Option.iter (fun (st, _) -> Psst_replica.stop_standby st) standby;
  Psst_server.stop srv;
  Option.iter Psst_replica.stop_hub hub;
  (match stats_json with
  | None -> ()
  | Some path -> write_stats_json path (Psst_server.traces srv));
  let h = Psst_server.health srv in
  if h.Psst_proto.epoch > 0 then
    Printf.printf "ingested %d graphs across %d epochs\n%!"
      h.Psst_proto.ingest_applied h.Psst_proto.epoch;
  Printf.printf "served %d requests; drained cleanly\n%!"
    (Psst_server.served srv)

let serve_router endpoint manifest mmap workers shard_timeout_ms shard_retries
    heartbeat_ms stats_json =
  if workers = [] then
    die
      "router role: pass --worker ENDPOINT[,ENDPOINT...] once per shard, in \
       shard order (a comma-separated group lists the shard's replicas, \
       primary first)";
  if heartbeat_ms < 0. then
    die "--heartbeat-ms must be >= 0 (0 disables the liveness poller)";
  let workers =
    Array.of_list
      (List.map
         (fun spec ->
           let group =
             String.split_on_char ',' spec |> List.filter (fun s -> s <> "")
           in
           if group = [] then
             die "--worker needs at least one endpoint per shard";
           Array.of_list (List.map endpoint_of_string group))
         workers)
  in
  let replicas = Array.fold_left (fun acc g -> acc + Array.length g) 0 workers in
  let local_fallback =
    match manifest with
    | None -> None
    | Some path ->
      let m = Psst_shard.load_manifest path in
      let n = List.length m.Psst_shard.entries in
      if n <> Array.length workers then
        die "manifest %s describes %d shards but %d --worker endpoints given"
          path n (Array.length workers);
      (* Lazily-loaded fallback shards, one slot per sid. Reader threads
         may race a load; both compute the same immutable database, so
         the benign double load only costs time. *)
      let cache = Array.make n None in
      Some
        (fun sid ->
          if sid < 0 || sid >= n then None
          else
            match cache.(sid) with
            | Some db -> Some db
            | None -> (
              match Psst_shard.load_shard ~mmap ~manifest_path:path m sid with
              | db ->
                cache.(sid) <- Some db;
                Some db
              | exception _ -> None))
  in
  let cfg =
    {
      Psst_router.endpoint;
      workers;
      shard_timeout_ms;
      retries = shard_retries;
      heartbeat_ms;
      local_fallback;
    }
  in
  let r = Psst_router.start cfg in
  Printf.printf
    "routing %d shards (%d replicas) on %s (per-shard timeout %s, %d \
     retries, heartbeat %s, local fallback %s)\n%!"
    (Array.length workers) replicas
    (Psst_proto.endpoint_to_string (Psst_router.endpoint r))
    (if shard_timeout_ms > 0. then Printf.sprintf "%.0f ms" shard_timeout_ms
     else "off")
    shard_retries
    (if heartbeat_ms > 0. then Printf.sprintf "%.0f ms" heartbeat_ms else "off")
    (match manifest with Some p -> p | None -> "off");
  wait_for_shutdown ();
  Psst_router.stop r;
  (match stats_json with
  | None -> ()
  | Some path -> write_stats_json path []);
  Printf.printf "served %d requests; drained cleanly\n%!" (Psst_router.served r)

let serve num_graphs seed input index_file mmap socket port host domains
    queue_cap deadline_ms verify_budget_ms batch_max cache_cap
    ingest_queue_cap tenant_quota stats_json role manifest shard_id workers
    shard_timeout_ms shard_retries heartbeat_ms standby_of promote =
  or_die @@ fun () ->
  if ingest_queue_cap < 0 then
    die "--ingest-queue-cap must be >= 0 (0 disables ingest), got %d"
      ingest_queue_cap;
  if tenant_quota < 0 then
    die "--tenant-quota must be >= 0 (0 disables quotas), got %d" tenant_quota;
  let standby_of = Option.map endpoint_of_string standby_of in
  if standby_of <> None && promote then
    die
      "--standby-of and --promote are exclusive: start the standby without \
       --promote and send it SIGHUP to promote it live, or restart the \
       stopped standby with --promote alone";
  let endpoint = endpoint_of socket port host in
  match role with
  | `Router ->
    if standby_of <> None || promote then
      die "--standby-of and --promote are for --role worker";
    serve_router endpoint manifest mmap workers shard_timeout_ms shard_retries
      heartbeat_ms stats_json
  | `Worker ->
    if workers <> [] then die "--worker is for --role router";
    if standby_of <> None && manifest <> None then
      die "--standby-of replicates a whole worker, not a shard";
    if promote && index_file = None then
      die
        "--promote needs --index FILE (the standby's base index, whose \
         replicated delta chain carries every acked batch)";
    let db, chain =
      match (manifest, shard_id) with
      | Some mpath, Some sid ->
        let m = Psst_shard.load_manifest mpath in
        let db = Psst_shard.load_shard ~mmap ~manifest_path:mpath m sid in
        Printf.printf
          "loaded shard %d of %s%s: %d graphs (global ids %d..%d), %d \
           features, %d PMI entries\n%!"
          sid mpath
          (if mmap then " (memory-mapped flat image)" else "")
          (Corpus.length db.Query.graphs)
          db.Query.base
          (db.Query.base + Corpus.length db.Query.graphs - 1)
          (List.length db.Query.features)
          (Pmi.filled_entries db.Query.pmi);
        (db, None)
      | Some _, None -> die "worker role with --manifest also needs --shard SID"
      | None, Some _ -> die "--shard needs --manifest"
      | None, None ->
        if mmap && index_file = None then
          die "--mmap needs --index FILE (or --manifest with --shard)";
        let src = corpus_of input num_graphs seed in
        Printf.printf "indexing %d graphs...\n%!" src.count;
        let db, t_index, how, chain =
          obtain_database ~mmap ~domains index_file src
        in
        Printf.printf "index %s in %.2fs: %d features, %d PMI entries\n%!" how
          t_index
          (List.length db.Query.features)
          (Pmi.filled_entries db.Query.pmi);
        (db, chain)
    in
    (* A shard holds a fixed global-id slice of the corpus (placement is
       decided offline by [psst shard]); appending to one shard would
       change answers relative to the monolithic database, so shard
       workers serve read-only. *)
    let ingest_queue_cap =
      if manifest <> None then begin
        if ingest_queue_cap > 0 then
          Printf.printf
            "ingest disabled: shard workers are read-only (re-run psst \
             shard to grow a sharded deployment)\n%!";
        0
      end
      else ingest_queue_cap
    in
    (match (promote, chain) with
    | true, Some c ->
      Printf.printf
        "promoted: serving the replicated chain of %s writable (next delta \
         seq %d)\n%!"
        c.Psst_ingest.base c.Psst_ingest.next_seq
    | _ -> ());
    serve_worker ?chain ?standby_of endpoint db domains queue_cap deadline_ms
      verify_budget_ms batch_max cache_cap ingest_queue_cap tenant_quota
      stats_json

let client socket port host num_graphs seed qsize nqueries epsilon delta
    exact_verifier input tenant add_file do_ping do_health stats_json
    connect_timeout_ms timeout_ms retries backoff_ms =
  or_die @@ fun () ->
  (match tenant with
  | Some "" -> die "--tenant needs a non-empty name"
  | _ -> ());
  let endpoint = endpoint_of socket port host in
  (* Load the graphs to ingest before connecting, so a missing or
     malformed file dies cleanly without touching the server. *)
  let add_graphs =
    match add_file with
    | None -> None
    | Some path -> Some (path, Pgraph_io.load_auto path)
  in
  let c =
    Psst_client.connect ~connect_timeout_ms ~call_timeout_ms:timeout_ms
      endpoint
  in
  Fun.protect
    ~finally:(fun () -> Psst_client.close c)
    (fun () ->
      Option.iter (fun name -> Psst_client.set_tenant c name) tenant;
      if do_ping then begin
        Psst_client.ping c;
        Printf.printf "pong from %s\n%!" (Psst_proto.endpoint_to_string endpoint)
      end;
      (match add_graphs with
      | None -> ()
      | Some (path, graphs) -> (
        match Psst_client.add_graphs c graphs with
        | Ok r ->
          Printf.printf
            "ingested %d graphs from %s: global ids %d..%d, database epoch \
             %d\n%!"
            r.Psst_ingest.count path r.Psst_ingest.base
            (r.Psst_ingest.base + r.Psst_ingest.count - 1)
            r.Psst_ingest.epoch
        | Error (code, message) ->
          die "ingest of %s rejected [%s%s]: %s" path
            (Psst_proto.error_code_name code)
            (if Psst_proto.error_code_retryable code then ", retryable"
             else "")
            message));
      if do_health then begin
        let h = Psst_client.health c in
        Printf.printf
          "health of %s: up %.1fs, queue depth %d, served %d, degraded \
           answers %d, retryable rejections %d, epoch %d, ingest lag %d \
           (applied %d)\n%!"
          (Psst_proto.endpoint_to_string endpoint)
          h.Psst_proto.uptime_s h.Psst_proto.queue_depth h.Psst_proto.served
          h.Psst_proto.degraded_answers h.Psst_proto.retryable_rejections
          h.Psst_proto.epoch h.Psst_proto.ingest_queued
          h.Psst_proto.ingest_applied;
        List.iter
          (fun (w : Psst_proto.worker_health) ->
            let who =
              if w.primary then Printf.sprintf "replica %d, primary" w.rid
              else Printf.sprintf "replica %d" w.rid
            in
            if w.reachable then
              Printf.printf
                "  worker %d (%s): up %.1fs, queue depth %d, degraded \
                 answers %d, epoch %d\n%!"
                w.wid who w.worker_uptime_s w.worker_queue_depth
                w.worker_degraded_answers w.worker_epoch
            else Printf.printf "  worker %d (%s): unreachable\n%!" w.wid who)
          h.Psst_proto.workers
      end;
      if nqueries > 0 then begin
        let src = corpus_of input num_graphs seed in
        let ds = dataset_wrapper src src.corpus in
        let rng = Psst_util.Prng.make (seed + 1) in
        let queries =
          List.init nqueries (fun _ ->
              Generator.extract_query rng ds ~edges:qsize)
        in
        let config =
          {
            Query.default_config with
            epsilon;
            delta;
            verifier =
              (if exact_verifier then `Exact else `Smp Verify.default_config);
          }
        in
        let replies, t =
          Psst_util.Timer.time (fun () ->
              Psst_client.run_all ~max_retries:retries ~backoff_ms c
                (List.map fst queries) config)
        in
        List.iteri
          (fun i (q, org) ->
            match replies.(i) with
            | Psst_proto.Answer { answers; stats; _ } ->
              Printf.printf
                "query %d (organism %d, %d edges): %d answers%s \
                 [structural %d, pruned %d, accepted %d, verified %d]\n"
                (i + 1) org (Lgraph.num_edges q) (List.length answers)
                (if stats.Psst_proto.degraded then
                   " (degraded: correct to bounds, superset of exact)"
                 else "")
                stats.Psst_proto.structural_candidates
                stats.Psst_proto.pruned_by_bounds
                stats.Psst_proto.accepted_by_bounds
                stats.Psst_proto.prob_candidates;
              if stats.Psst_proto.relaxed_truncated then
                Printf.printf
                  "  warning: relaxed set truncated — SSP estimates are \
                   lower bounds, the answer set may under-approximate\n";
              Printf.printf "  answers: %s\n"
                (String.concat ", " (List.map string_of_int answers))
            | Psst_proto.Error_reply { code; message; _ } ->
              Printf.printf "query %d: server error [%s%s]: %s\n" (i + 1)
                (Psst_proto.error_code_name code)
                (if Psst_proto.error_code_retryable code then ", retryable"
                 else "")
                message
            | _ -> die "unexpected reply kind from server")
          queries;
        Printf.printf "%d queries answered in %.3fs\n%!" nqueries t
      end;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Psst_client.stats_json c));
          Printf.printf "stats written to %s\n%!" path)
        stats_json)

(* --- experiment --- *)

let experiment fig db_size queries seed =
  or_die @@ fun () ->
  if db_size < 1 then die "--db-size must be >= 1, got %d" db_size;
  if queries < 1 then die "--queries must be >= 1, got %d" queries;
  let scale = scale_of db_size queries seed in
  let ppf = Format.std_formatter in
  (match fig with
  | "fig9" -> Experiments.fig9 ~scale ppf
  | "fig10" -> Experiments.fig10 ~scale ppf
  | "fig11" -> Experiments.fig11 ~scale ppf
  | "fig12" -> Experiments.fig12 ~scale ppf
  | "fig13" -> Experiments.fig13 ~scale ppf
  | "fig14" -> Experiments.fig14 ~scale ppf
  | "ablation" | "ablations" -> Experiments.ablations ~scale ppf
  | "all" -> Experiments.all ~scale ppf
  | other -> Printf.eprintf "unknown figure %S\n" other; exit 2);
  Format.pp_print_flush ppf ()

(* --- cmdliner wiring --- *)

let seed_arg =
  Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let num_graphs_arg =
  Arg.(
    value & opt int 100
    & info [ "n"; "num-graphs" ] ~docv:"N" ~doc:"Number of graphs to generate.")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE" ~doc:"Load the corpus from a .pgdb archive.")

let generate_cmd =
  let organisms =
    Arg.(value & opt int 5 & info [ "organisms" ] ~doc:"Number of organisms.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every skeleton.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Write the checksummed binary store format instead of text.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the corpus to a .pgdb archive.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a probabilistic graph corpus")
    Term.(
      const generate $ num_graphs_arg $ organisms $ seed_arg $ verbose $ binary
      $ output)

let flat_arg =
  Arg.(
    value & flag
    & info [ "flat" ]
        ~doc:
          "Accepted for compatibility and ignored: every index is written \
           as the flat image (DESIGN.md §15), which $(b,psst serve) loads \
           eagerly or, with $(b,--mmap), zero-copy.")

let index_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the persistent index (graphs + features + PMI) here.")
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Mine features and build the PMI once, persisting the whole \
          query-time state for later $(b,query --index) runs")
    Term.(const index $ num_graphs_arg $ seed_arg $ input_arg $ flat_arg $ output)

let query_cmd =
  let qsize =
    Arg.(value & opt int 8 & info [ "query-size" ] ~doc:"Query size in edges.")
  in
  let nqueries =
    Arg.(value & opt int 5 & info [ "queries" ] ~doc:"Number of queries to run.")
  in
  let epsilon =
    Arg.(
      value & opt float 0.5
      & info [ "epsilon" ] ~doc:"Probability threshold (0 < eps <= 1).")
  in
  let delta =
    Arg.(value & opt int 2 & info [ "delta" ] ~doc:"Subgraph distance threshold.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ] ~doc:"Verify candidates exactly instead of sampling.")
  in
  let index_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"FILE"
          ~doc:
            "Reuse the persisted index at $(docv) (built by $(b,psst index)) \
             instead of mining and computing bounds; a missing file is built \
             and saved, an invalid or stale one is rejected and rebuilt.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write per-query traces and the full metrics registry \
             (counters, histograms, warning events) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run T-PS queries end to end")
    Term.(
      const query $ num_graphs_arg $ seed_arg $ qsize $ nqueries $ epsilon
      $ delta $ exact $ input_arg $ index_file $ stats_json)

let topk_cmd =
  let qsize =
    Arg.(value & opt int 8 & info [ "query-size" ] ~doc:"Query size in edges.")
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of results.") in
  let delta =
    Arg.(value & opt int 2 & info [ "delta" ] ~doc:"Subgraph distance threshold.")
  in
  Cmd.v
    (Cmd.info "topk" ~doc:"Top-k probabilistic subgraph similarity search")
    Term.(const topk $ num_graphs_arg $ seed_arg $ qsize $ k $ delta $ input_arg)

let shard_cmd =
  let index_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"FILE"
          ~doc:
            "Reuse the persisted monolithic index at $(docv) (built by \
             $(b,psst index)) instead of mining and computing bounds.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"MANIFEST"
          ~doc:
            "Write the shard manifest here; shard store files are written \
             next to it, and the manifest is written last, atomically, so \
             an interrupted split never leaves a manifest naming \
             half-written shards.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N" ~doc:"Split into $(docv) even shards.")
  in
  let max_graphs =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-graphs" ] ~docv:"N"
          ~doc:"Budget split: close a shard after $(docv) graphs.")
  in
  let max_cost =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-cost" ] ~docv:"C"
          ~doc:
            "Budget split: close a shard when its estimated PMI build cost \
             (1 + filled PMI entries per graph column) would exceed $(docv).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Split an indexed database into independently servable shards \
          (manifest + per-shard store files); per-shard answers merge \
          bit-identically to the monolithic ones")
    Term.(
      const shard $ num_graphs_arg $ seed_arg $ input_arg $ index_file
      $ flat_arg $ output $ shards $ max_graphs $ max_cost)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (alternative to --socket).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host to bind/connect (with --port).")

let serve_cmd =
  let mmap =
    Arg.(
      value & flag
      & info [ "mmap" ]
          ~doc:
            "Serve the index zero-copy out of a memory mapping instead of \
             decoding it (worker role: with --index or --manifest/--shard; \
             router role: applies to the local fallback shards). Answers \
             are bit-identical to the eager load.")
  in
  let index_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"FILE"
          ~doc:
            "Serve from the persisted index at $(docv) (built by \
             $(b,psst index)); a missing file is built and saved, an \
             invalid or stale one is rejected and rebuilt.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain-pool size for the verification fan-out, and for \
             rebuilding a missing or stale index.")
  in
  let queue_cap =
    Arg.(
      value & opt int 128
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission queue bound; requests beyond it are rejected with a \
             retryable queue-full error.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Maximum queue wait per request; 0 disables deadlines. A \
             request that waited longer is answered with a deadline error \
             instead of being executed.")
  in
  let verify_budget_ms =
    Arg.(
      value & opt float 0.
      & info [ "verify-budget-ms" ] ~docv:"MS"
          ~doc:
            "Verification budget per micro-batch; 0 disables it. Candidates \
             whose verification would start after the budget elapses are \
             answered from their PMI bounds and the reply is flagged \
             degraded (a superset of the exact answer set) — graceful \
             degradation under load instead of an unbounded latency tail.")
  in
  let batch_max =
    Arg.(
      value & opt int 32
      & info [ "batch-max" ] ~docv:"N" ~doc:"Micro-batch size cap.")
  in
  let cache_cap =
    Arg.(
      value & opt int 16384
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:
            "Cross-query verification cache bound (entries); 0 disables \
             it. The cache memoises relaxed sets, embedding sets, \
             calibrated Karp-Luby preparations and final SSP values \
             across queries; answers are bit-identical with or without \
             it. Hit/miss/eviction counts surface as the \
             cache.{hit,miss,evict} metrics.")
  in
  let ingest_queue_cap =
    Arg.(
      value & opt int 1024
      & info [ "ingest-queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on graphs queued for ingest (Add_graphs) across \
             tenants; batches beyond it are rejected with a retryable \
             queue-full error. 0 disables ingest entirely. With --index, \
             each ingested batch is persisted as a crash-atomic delta \
             file next to the index before it becomes visible to \
             queries; the base index file is never rewritten.")
  in
  let tenant_quota =
    Arg.(
      value & opt int 0
      & info [ "tenant-quota" ] ~docv:"N"
          ~doc:
            "Per-tenant bound on queued queries and queued ingest \
             graphs; beyond it the tenant gets retryable queue-full \
             errors while other tenants keep their share (admission is \
             round-robin across tenants). 0 disables quotas.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "On shutdown, write recent per-query traces and the full \
             metrics registry as JSON to $(docv) (same document shape as \
             $(b,psst query --stats-json)).")
  in
  let role =
    Arg.(
      value
      & opt (enum [ ("worker", `Worker); ("router", `Router) ]) `Worker
      & info [ "role" ] ~docv:"ROLE"
          ~doc:
            "$(b,worker) (default) serves a database directly; $(b,router) \
             fans each query out to shard workers (--worker, one per shard \
             in shard order) and merges the per-shard answers — \
             bit-identical to a monolithic worker over the same corpus.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Shard manifest (written by $(b,psst shard)). With --role \
             worker and --shard, serve that one shard. With --role router, \
             enable the local bounds-only fallback: a dead worker's shard \
             is answered from its PMI bounds, flagged degraded, instead of \
             failing the query.")
  in
  let shard_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard" ] ~docv:"SID"
          ~doc:"Shard id to serve (worker role, with --manifest).")
  in
  let workers =
    Arg.(
      value & opt_all string []
      & info [ "worker" ] ~docv:"GROUP"
          ~doc:
            "Router role: one shard's worker endpoints (unix:PATH or \
             tcp:HOST:PORT), repeated once per shard, in shard order. A \
             comma-separated group lists the shard's replicas, primary \
             first; the router prefers the primary and fails over to the \
             freshest live standby when it dies (failing back once it \
             returns).")
  in
  let shard_timeout_ms =
    Arg.(
      value & opt float 0.
      & info [ "shard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Router role: per-worker connect/call timeout; past it the \
             worker counts as unreachable for that request (degradation \
             ladder applies). 0 blocks indefinitely.")
  in
  let shard_retries =
    Arg.(
      value & opt int 1
      & info [ "shard-retries" ] ~docv:"N"
          ~doc:
            "Router role: reconnect-and-resend attempts per worker per \
             request before the degradation ladder applies.")
  in
  let heartbeat_ms =
    Arg.(
      value & opt float 500.
      & info [ "heartbeat-ms" ] ~docv:"MS"
          ~doc:
            "Router role: liveness-poll cadence over every replica of \
             every shard (jittered); the poller revives recovered \
             replicas, fails back to returned primaries and feeds the \
             router.replica_lag metric. 0 disables it — failover then \
             relies on request-path failures alone.")
  in
  let standby_of =
    Arg.(
      value
      & opt (some string) None
      & info [ "standby-of" ] ~docv:"ENDPOINT"
          ~doc:
            "Worker role, with --index: start as a read-only standby of \
             the primary at $(docv). The standby subscribes to the \
             primary's delta stream, persists every frame byte-identically \
             next to its copy of the base index, and answers queries \
             bit-identically at its applied epoch; Add_graphs is rejected \
             with a retryable error. SIGHUP promotes it live to a \
             writable primary.")
  in
  let promote =
    Arg.(
      value & flag
      & info [ "promote" ]
          ~doc:
            "Worker role, with --index: serve a stopped standby's base \
             index and replicated delta chain as a writable primary \
             (offline promotion). Every batch the old primary ever acked \
             is in that chain. Exclusive with --standby-of (promote a \
             running standby with SIGHUP instead).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident query server: load the database and indexes \
          once, then answer T-PS and top-k queries over a framed binary \
          protocol until SIGTERM/SIGINT (graceful drain). --role router \
          turns the process into a scatter-gather front over shard \
          workers instead. --standby-of replicates a primary for \
          failover; --promote (or SIGHUP) turns the standby into the new \
          primary without losing an acked batch.")
    Term.(
      const serve $ num_graphs_arg $ seed_arg $ input_arg $ index_file $ mmap
      $ socket_arg $ port_arg $ host_arg $ domains $ queue_cap $ deadline_ms
      $ verify_budget_ms $ batch_max $ cache_cap $ ingest_queue_cap
      $ tenant_quota $ stats_json $ role $ manifest $ shard_id $ workers
      $ shard_timeout_ms $ shard_retries $ heartbeat_ms $ standby_of
      $ promote)

let client_cmd =
  let qsize =
    Arg.(value & opt int 8 & info [ "query-size" ] ~doc:"Query size in edges.")
  in
  let nqueries =
    Arg.(value & opt int 5 & info [ "queries" ] ~doc:"Number of queries to send.")
  in
  let epsilon =
    Arg.(
      value & opt float 0.5
      & info [ "epsilon" ] ~doc:"Probability threshold (0 < eps <= 1).")
  in
  let delta =
    Arg.(value & opt int 2 & info [ "delta" ] ~doc:"Subgraph distance threshold.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ] ~doc:"Verify candidates exactly instead of sampling.")
  in
  let tenant =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:
            "Run this connection as tenant $(docv) (non-empty, at most \
             128 bytes): queries and ingest batches are admitted and \
             metered under that identity, subject to the server's \
             --tenant-quota. Without it the connection runs as tenant \
             $(b,default).")
  in
  let add_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "add" ] ~docv:"FILE"
          ~doc:
            "Ingest the probabilistic graphs in $(docv) into the running \
             server (Add_graphs) before sending any queries. On success \
             prints the new graphs' global id range and the database \
             epoch; every query sent afterwards observes them. A \
             rejection (queue full, tenant quota, ingest disabled) is a \
             clean one-line error.")
  in
  let do_ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip a ping first.")
  in
  let do_health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Print the server's health snapshot (uptime, queue depth, \
             served / degraded / retryable-rejection counters).")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "After the queries, write the server's metrics registry \
             (counters, histograms, warning events) as JSON to $(docv).")
  in
  let connect_timeout_ms =
    Arg.(
      value & opt float 0.
      & info [ "connect-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Give up on the connection attempt after $(docv) milliseconds \
             (clean error instead of the kernel's minutes-long TCP \
             timeout); 0 blocks indefinitely.")
  in
  let timeout_ms =
    Arg.(
      value & opt float 0.
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-call socket timeout in milliseconds; 0 blocks \
             indefinitely.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Recovery budget: reconnect-and-resend after a transport break \
             and resubmit retryable server rejections up to $(docv) times.")
  in
  let backoff_ms =
    Arg.(
      value & opt float 50.
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:
            "Base retry backoff; doubled per attempt, capped at 2s, with \
             deterministic jitter.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit queries to a running $(b,psst serve) and print the \
          answers (extracted from the same corpus/seed as $(b,psst query), \
          so offline and served answers are directly comparable)")
    Term.(
      const client $ socket_arg $ port_arg $ host_arg $ num_graphs_arg
      $ seed_arg $ qsize $ nqueries $ epsilon $ delta $ exact $ input_arg
      $ tenant $ add_file $ do_ping $ do_health $ stats_json
      $ connect_timeout_ms $ timeout_ms $ retries $ backoff_ms)

let experiment_cmd =
  let fig =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIG" ~doc:"One of fig9..fig14, ablation or all.")
  in
  let db_size =
    Arg.(value & opt int 120 & info [ "db-size" ] ~doc:"Corpus size.")
  in
  let queries =
    Arg.(
      value & opt int 8 & info [ "queries" ] ~doc:"Queries per data point.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a figure of the paper")
    Term.(const experiment $ fig $ db_size $ queries $ seed_arg)

let main_cmd =
  let doc = "probabilistic subgraph similarity search (VLDB 2012 reproduction)" in
  Cmd.group (Cmd.info "psst" ~doc)
    [
      generate_cmd;
      index_cmd;
      query_cmd;
      topk_cmd;
      shard_cmd;
      serve_cmd;
      client_cmd;
      experiment_cmd;
    ]

let () =
  (* Fault-injection plans from PSST_FAULTS / PSST_FAULT_SEED (chaos CI,
     DESIGN.md §12) arm before any subcommand touches a fault site. *)
  (match Psst_fault.arm_from_env () with
  | armed ->
    if armed then
      Printf.eprintf "psst: fault injection armed from PSST_FAULTS\n%!"
  | exception Failure msg -> die "%s" msg);
  exit (Cmd.eval main_cmd)
