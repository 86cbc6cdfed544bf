(* One ledger run of one workload:

   1. make the inputs from the seed ([Inputs]);
   2. set up [setups] times — index build, flat image, server processes,
      a Ping answered on every endpoint — and keep the last fleet;
      [setup_s] is the median;
   3. drive the timed phase ([Traffic]); untraced, it is the source of
      every end-to-end number;
   4. read each server's peak RSS, stop the servers, run the checks;
   5. with [trace], replay the requests layer by layer ([Replay]) and
      measure the remaining layers directly;
   6. print every metric, write the record, print the result line. *)

module Proto = Psst_proto

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  graphs : int;
  psst : string;
  work : string;
  setups : int;
  min_ops : int;
  micro_quota : float;
  quiet : bool;
}

let nproc = Domain.recommended_domain_count ()
let now = Unix.gettimeofday
let ( // ) = Filename.concat

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all
let copy_file src dst = Out_channel.with_open_bin dst (fun oc -> output_string oc (read_file src))
let file_size path = (Unix.stat path).st_size

(* --- set-up ----------------------------------------------------------- *)

type times = { setup_s : float; save_s : float; ready_s : float }

type fleet = {
  index : string;
  db : Query.database;
  main : Fleet.proc;  (** where clients send: monolith, router or primary *)
  servers : Fleet.proc list;  (** processes that execute queries *)
  procs : Fleet.proc list;
  standby : (Fleet.proc * string) option;  (** with its base index copy *)
  times : times;
}

let wait_subscribed (p : Fleet.proc) =
  let deadline = now () +. 60. in
  while Fleet.counter (Fleet.scrape p) "replica.subscribes" < 1. do
    if now () > deadline then failwith "standby never subscribed to the primary";
    Thread.delay 0.01
  done

let setup opts (inp : Inputs.t) dir =
  mkdir_p dir;
  let t0 = now () in
  let db =
    Query.index_database ~mining:Experiments.mining_params ~domains:nproc inp.graphs
  in
  let index = dir // "index.psst" and corpus = dir // "corpus.pgdb" in
  let (), save_s = time (fun () -> Query.save_database ~flat:true index db) in
  Pgraph_io.save_binary corpus inp.graphs;
  let t_spawn = ref nan in
  let spawn name sock args =
    if Float.is_nan !t_spawn then t_spawn := now ();
    Fleet.spawn ~psst:opts.psst ~log:(dir // (name ^ ".log")) ~name ~socket:(dir // sock) args
  in
  let served index =
    [ "serve"; "--input"; corpus; "--index"; index; "--mmap" ]
  in
  let domains n = [ "--domains"; string_of_int n ] in
  let main, servers, procs, standby =
    match opts.workload with
    | "cold" | "warm" ->
      let m = spawn "server" "m.sock" (served index @ domains nproc) in
      Fleet.wait_ready m;
      (m, [ m ], [ m ], None)
    | "routed" ->
      let manifest = dir // "shards.manifest" in
      Fleet.run_tool ~psst:opts.psst ~log:(dir // "shard.log")
        [ "shard"; "--input"; corpus; "--index"; index; "--flat"; "--shards"; "2"; "-o"; manifest ];
      let workers =
        List.init 2 (fun i ->
            spawn (Printf.sprintf "worker%d" i) (Printf.sprintf "w%d.sock" i)
              ([ "serve"; "--role"; "worker"; "--manifest"; manifest; "--shard"; string_of_int i;
                 "--mmap" ]
              @ domains 1))
      in
      List.iter Fleet.wait_ready workers;
      let router =
        spawn "router" "r.sock"
          ([ "serve"; "--role"; "router" ]
          @ List.concat_map
              (fun (w : Fleet.proc) -> [ "--worker"; Proto.endpoint_to_string w.endpoint ])
              workers)
      in
      Fleet.wait_ready router;
      (router, workers, router :: workers, None)
    | "ingest" ->
      let p = spawn "primary" "p.sock" (served index @ domains nproc) in
      Fleet.wait_ready p;
      let standby_index = dir // "standby.psst" in
      copy_file index standby_index;
      let s =
        spawn "standby" "s.sock"
          (served standby_index @ domains 1
          @ [ "--standby-of"; Proto.endpoint_to_string p.endpoint ])
      in
      Fleet.wait_ready s;
      wait_subscribed p;
      (p, [ p ], [ p; s ], Some (s, standby_index))
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let t = now () in
  {
    index;
    db;
    main;
    servers;
    procs;
    standby;
    times = { setup_s = t -. t0; save_s; ready_s = t -. !t_spawn };
  }

let teardown f = List.iter Fleet.stop f.procs

(* --- reporting helpers ------------------------------------------------- *)

type report = {
  mutable metrics : (string * float) list;  (** reverse order of emission *)
  mutable checks : (string * bool * string) list;
}

let put r name v = r.metrics <- (name, v) :: r.metrics

let check r name ok fmt =
  Printf.ksprintf (fun detail -> r.checks <- (name, ok, detail) :: r.checks) fmt

let ms_percentile r name lats p =
  match Quantile.guarded (Quantile.sorted lats) p with
  | Some v -> put r name (1e3 *. v)
  | None -> ()

let same_answer (answers, stats) (o : Query.outcome) =
  answers = o.answers && stats = Proto.stats_of_query o.stats

let reply_outcome = function
  | Some (Proto.Answer { answers; stats; _ }) -> Some (answers, stats)
  | _ -> None

(* Registry deltas over the timed phase, summed over the scraped
   servers; [ops] is the number of queries they served in it. *)
let server_deltas ~ops before after =
  let sum f = List.fold_left2 (fun acc b a -> acc +. (f a -. f b)) 0. before after in
  let hist name sel = sum (fun j -> sel (Fleet.histogram j name)) in
  let hits = sum (fun j -> Fleet.counter j "cache.hit") in
  let misses = sum (fun j -> Fleet.counter j "cache.miss") in
  let ratio a b = if b = 0. then 0. else a /. b in
  [
    ("qcache.hit_rate", ratio hits (hits +. misses));
    ("qcache.flushes", sum (fun j -> Fleet.counter j "cache.flush"));
    ( "server.queue_wait_ms",
      1e3 *. ratio (hist "server.queue.wait_s" snd) (hist "server.queue.wait_s" fst) );
    ("server.batch_size", ratio (hist "server.batch.size" snd) (hist "server.batch.size" fst));
    ("pool.parallel_runs", ratio (sum (fun j -> Fleet.counter j "pool.parallel_runs")) ops);
    ("pool.caller_share", ratio (hist "pool.caller_share" snd) (hist "pool.caller_share" fst));
  ]

let ping_us (p : Fleet.proc) =
  let c = Psst_client.connect p.endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
      let lats = List.init 200 (fun _ -> snd (time (fun () -> Psst_client.ping c))) in
      1e6 *. Quantile.percentile (Quantile.sorted lats) 0.5)

let codec_us (config : Query.config) q (answer : Proto.reply) =
  let iters = 2000 in
  let run = Proto.Run { id = 1; query = q; config } in
  let (), t =
    time (fun () ->
        for _ = 1 to iters do
          ignore (Proto.request_of_string (Proto.encode_request run));
          ignore (Proto.reply_of_string (Proto.encode_reply answer))
        done)
  in
  1e6 *. t /. float_of_int iters

(* 200 pool requests from one client against one endpoint; p50 in ms and
   the replies. *)
let probe endpoint config pool =
  let c = Psst_client.connect endpoint in
  Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () ->
      let out =
        Array.init 200 (fun i ->
            time (fun () ->
                Psst_client.rpc c (Proto.Run { id = i; query = pool.(i mod Array.length pool); config })))
      in
      let p50 = Quantile.percentile (Quantile.sorted (List.map (fun (_, t) -> t) (Array.to_list out))) 0.5 in
      (1e3 *. p50, Array.map fst out))

(* --- the scratch ingest replay ----------------------------------------- *)

(* Replays [batches] into a scratch copy of the base image through the
   ingest layers ([Query.add_graphs], then [Psst_ingest.save_delta]; the
   [Pmi.add_graphs] inside the former is timed by a second, separate
   call), and feeds the resulting chain — or [source], a served primary's
   chain — to a scratch standby through [Psst_ingest.apply_replicated].
   Returns the layer metrics, the scratch primary's chain, and whether
   every delta applied on the standby. *)
let ingest_replay dir ~base_index batches ~source =
  let scratch = dir // "scratch.psst" and scratch_standby = dir // "scratch_standby.psst" in
  copy_file base_index scratch;
  copy_file base_index scratch_standby;
  let db0, chain = Psst_ingest.load ~mmap:true scratch in
  let apply = ref 0. and pmi = ref 0. and persist = ref 0. and bytes = ref 0 and graphs = ref 0 in
  ignore
    (Array.fold_left
       (fun (db : Query.database) batch ->
         let prev_count = Corpus.length db.graphs in
         let db', t_apply = time (fun () -> Query.add_graphs db batch) in
         apply := !apply +. t_apply;
         (* Pure, so timing it again on its own leaves [db'] as it is. *)
         let _, t_pmi = time (fun () -> Pmi.add_graphs db.pmi batch) in
         pmi := !pmi +. t_pmi;
         let (), t_persist = time (fun () -> Psst_ingest.save_delta chain ~prev_count batch) in
         persist := !persist +. t_persist;
         bytes := !bytes + file_size (Psst_ingest.delta_path scratch (chain.next_seq - 1));
         graphs := !graphs + Array.length batch;
         db')
       db0 batches);
  let source = Option.value source ~default:chain in
  let sdb, schain = Psst_ingest.load ~mmap:true scratch_standby in
  let snap = Atomic.make { Psst_ingest.epoch = 0; db = sdb } in
  let replica = ref 0. in
  let replicated =
    List.init (Array.length batches) (fun k ->
        let seq = k + 1 in
        let bytes = Psst_ingest.delta_bytes source ~seq in
        let r, t = time (fun () -> Psst_ingest.apply_replicated schain snap ~seq ~bytes) in
        replica := !replica +. t;
        match r with `Applied _ -> true | `Stale | `Error _ -> false)
  in
  let nb = float_of_int (max 1 (Array.length batches)) and ng = float_of_int (max 1 !graphs) in
  ( [
      ("ingest.apply_ms", 1e3 *. !apply /. nb);
      ("pmi.add_ms_per_graph", 1e3 *. !pmi /. ng);
      ("ingest.persist_ms", 1e3 *. !persist /. nb);
      ("ingest.delta_bytes_per_graph", float_of_int !bytes /. ng);
      ("replica.apply_ms", 1e3 *. !replica /. nb);
    ],
    chain,
    List.for_all Fun.id replicated )

(* --- the run ------------------------------------------------------------ *)

let git_rev () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read (".git" // "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (".git" // r) with
    | Some rev -> rev
    | None -> (
      match read (".git" // "packed-refs") with
      | Some packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; name ] when name = r -> Some rev
               | _ -> None)
        |> Option.value ~default:"unknown"
      | None -> "unknown"))
  | Some rev -> rev
  | None -> "unknown"

let run opts =
  let inp =
    Inputs.make ~graphs:opts.graphs ~seed:opts.seed
      ~batches:(if opts.workload = "ingest" then Inputs.max_batches else 4)
  in
  let n = Array.length inp.graphs in
  let config = inp.config in
  let rdir = opts.work // Printf.sprintf "%s-%d-%d" opts.workload opts.seed (Unix.getpid ()) in
  let r = { metrics = []; checks = [] } in
  (* Set-up, [setups] times; the last fleet serves the timed phase. Only
     its database stays in this process's heap, compacted before the
     timed phase so the load generator's collector has little to scan. *)
  let rec setups k times =
    let f = setup opts inp (rdir // Printf.sprintf "setup%d" k) in
    if k + 1 < opts.setups then begin
      teardown f;
      setups (k + 1) (f.times :: times)
    end
    else (f, f.times :: times)
  in
  let f, times = setups 0 [] in
  let setup_median sel = Quantile.median (List.map sel times) in
  let setup_s = setup_median (fun t -> t.setup_s) in
  let stream_rng k = Psst_util.Prng.stream ~seed:opts.seed k in
  let pool_len = Array.length inp.pool in
  let window () = Traffic.window ~seconds:opts.seconds ~min_ops:opts.min_ops in
  (* Timed phase. The pool workloads fill the cache first, untimed. *)
  let fill =
    if opts.workload = "warm" || opts.workload = "routed" then
      Traffic.fill f.main.endpoint config inp.pool
    else [||]
  in
  let before = List.map Fleet.scrape f.servers in
  Gc.compact ();
  let served = ref [] and acks = ref [] and reads = ref [] and reader_error = ref None in
  (match opts.workload with
  | "cold" ->
    served :=
      Traffic.closed_client f.main.endpoint config inp.stream (window ()) ~next:(fun i ->
          if i < Array.length inp.stream then Some i else None)
  | "warm" | "routed" ->
    let rng = stream_rng 0 in
    served :=
      Traffic.closed_client f.main.endpoint config inp.pool (window ()) ~next:(fun _ ->
          Some (Psst_util.Prng.int rng pool_len))
  | _ ->
    let writer_done = Atomic.make false in
    (* An exception would end the reader thread silently; it is kept and
       counted as a failed read instead. *)
    let reader =
      Thread.create
        (fun () ->
          let rng = stream_rng 0 in
          try
            reads :=
              Traffic.closed_client f.main.endpoint config inp.pool
                (Traffic.window ~seconds:infinity ~min_ops:0)
                ~next:(fun i ->
                  if i > 0 && Atomic.get writer_done then None
                  else Some (Psst_util.Prng.int rng pool_len))
          with e -> reader_error := Some (Printexc.to_string e))
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set writer_done true;
        Thread.join reader)
      (fun () -> acks := Traffic.ingest_writer f.main.endpoint inp.batches (window ())));
  let queries = !served in
  let after = List.map Fleet.scrape f.servers in
  let rss = List.fold_left (fun acc p -> acc +. Fleet.peak_rss_mb p) 0. f.procs in
  (* End-to-end metrics. *)
  put r "setup_s" setup_s;
  let attempted, failed =
    if opts.workload = "ingest" then begin
      let acked = List.filter (fun a -> Result.is_ok a.Traffic.result) !acks in
      let span =
        match (!acks, List.rev !acks) with
        | first :: _, last :: _ -> last.at +. last.ack_latency -. first.at
        | _ -> nan
      in
      put r "ops_per_s" (float_of_int (List.length acked) /. span);
      let lats = List.map (fun a -> a.Traffic.ack_latency) acked in
      ms_percentile r "p50_ms" lats 0.5;
      ms_percentile r "p75_ms" lats 0.75;
      (* Reads count as operations too; a reader that died counts once. *)
      let died = if Option.is_some !reader_error then 1 else 0 in
      let failed_reads = List.length (List.filter Traffic.failed !reads) in
      ( List.length !acks + List.length !reads + died,
        List.length !acks - List.length acked + failed_reads + died )
    end
    else begin
      let ok = List.filter (fun s -> not (Traffic.failed s)) queries in
      let span =
        List.fold_left (fun acc (s : Traffic.served) -> Float.max acc (s.sent +. s.latency)) 0. queries
        -. List.fold_left (fun acc (s : Traffic.served) -> Float.min acc s.sent) infinity queries
      in
      put r "ops_per_s" (float_of_int (List.length ok) /. span);
      let lats = List.map (fun (s : Traffic.served) -> s.latency) ok in
      ms_percentile r "p50_ms" lats 0.5;
      ms_percentile r "p75_ms" lats 0.75;
      (List.length queries, List.length queries - List.length ok)
    end
  in
  put r "rss_mb" rss;
  (* Diagnostics. *)
  let lats =
    if opts.workload = "ingest" then
      List.filter_map
        (fun a -> if Result.is_ok a.Traffic.result then Some a.Traffic.ack_latency else None)
        !acks
    else List.map (fun (s : Traffic.served) -> s.latency) queries
  in
  ms_percentile r "p90_ms" lats 0.9;
  ms_percentile r "p99_ms" lats 0.99;
  put r "failed_frac" (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted);
  put r "samples" (float_of_int (List.length lats));
  if opts.workload = "ingest" then begin
    let rl = List.map (fun (s : Traffic.served) -> s.latency) !reads in
    ms_percentile r "read_p50_ms" rl 0.5;
    ms_percentile r "read_p75_ms" rl 0.75;
    put r "reads" (float_of_int (List.length !reads))
  end;
  (* Live measurements that need the servers: trace runs only. *)
  let layer_live = ref [] in
  if opts.trace then begin
    let ops = float_of_int (List.length (if opts.workload = "ingest" then !reads else queries)) in
    layer_live := server_deltas ~ops before after @ [ ("client.ping_us", ping_us f.main) ];
    if opts.workload = "warm" then begin
      let late = ref [] in
      List.iter
        (fun rate ->
          let rng = stream_rng 99 in
          let o =
            Traffic.open_loop f.main.endpoint config inp.pool ~rate ~seconds:(opts.seconds /. 2.)
              ~pick:(fun _ -> Psst_util.Prng.int rng pool_len)
          in
          let tag = Printf.sprintf "open%.0f" rate in
          ms_percentile r (tag ^ "_p50_ms") (Array.to_list o.latencies) 0.5;
          ms_percentile r (tag ^ "_p90_ms") (Array.to_list o.latencies) 0.9;
          check r (tag ^ ".no_errors") (o.errors = 0) "%d errors at %.0f rps" o.errors rate;
          late := Array.to_list o.late @ !late)
        [ 20.; 40. ];
      match Quantile.guarded (Quantile.sorted !late) 0.9 with
      | Some v ->
        put r "loadgen.late_p90_ms" (1e3 *. v);
        check r "loadgen.late_p90" (v <= 0.005) "generator p90 lateness %.3f ms" (1e3 *. v)
      | None -> ()
    end;
    if opts.workload = "routed" then begin
      let workers = List.map (fun (p : Fleet.proc) -> probe p.endpoint config inp.pool) f.servers in
      let routed_ms, routed = probe f.main.endpoint config inp.pool in
      List.iteri (fun i (ms, _) -> put r (Printf.sprintf "router.shard_ms.%d" i) ms) workers;
      put r "router.routed_ms" routed_ms;
      put r "router.overhead_ms"
        (routed_ms -. List.fold_left (fun acc (ms, _) -> Float.max acc ms) 0. workers);
      let answers = function Proto.Answer { answers; _ } -> answers | _ -> [ -1 ] in
      let merged_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i rr ->
               Psst_shard.merge_answers (List.map (fun (_, out) -> answers out.(i)) workers)
               = answers rr)
             routed)
      in
      check r "routed.merge" merged_ok "merged worker answers equal the routed answers"
    end
  end;
  (* Stop the fleet; the ingest primary dies by SIGKILL, mid-nothing. *)
  (match f.standby with
  | Some (s, _) ->
    Fleet.kill f.main;
    Fleet.stop s
  | None -> teardown f);
  (* Checks. *)
  let offline q = Query.run ~domains:nproc f.db q config in
  check r "failed_frac" (failed = 0) "%d of %d operations failed" failed attempted;
  (match opts.workload with
  | "cold" ->
    let stream = Array.of_list queries in
    List.iter
      (fun i ->
        if i < Array.length stream then
          let s = stream.(i) in
          let ok =
            match reply_outcome s.reply with
            | Some got -> same_answer got (offline inp.stream.(s.query))
            | None -> false
          in
          check r (Printf.sprintf "cold.request%d" i) ok "served = offline Query.run")
      [ 0; 10; 20; 30 ]
  | "warm" | "routed" ->
    Array.iteri
      (fun qi first ->
        let o = offline inp.pool.(qi) in
        let first = reply_outcome (Some first) in
        let repeats =
          List.filter_map
            (fun (s : Traffic.served) -> if s.query = qi then Some (reply_outcome s.reply) else None)
            queries
        in
        let ok =
          match first with
          | Some got -> same_answer got o && List.for_all (fun x -> x = first) repeats
          | None -> false
        in
        check r (Printf.sprintf "pool.query%d" qi) ok "first reply = offline, %d repeats identical"
          (List.length repeats))
      fill
  | _ ->
    let base_answers = Array.map (fun q -> (offline q).Query.answers) inp.pool in
    let bad =
      List.filter
        (fun (s : Traffic.served) ->
          match s.reply with
          | Some (Proto.Answer { answers; stats; _ }) ->
            stats.Proto.degraded || List.filter (fun a -> a < n) answers <> base_answers.(s.query)
          | _ -> true)
        !reads
    in
    (match !reader_error with
    | Some e -> check r "ingest.reads" false "the reader failed: %s" e
    | None ->
      check r "ingest.reads"
        (bad = [] && !reads <> [])
        "%d of %d reads differ from the base answers on ids < %d" (List.length bad)
        (List.length !reads) n);
    let acked = List.length (List.filter (fun a -> Result.is_ok a.Traffic.result) !acks) in
    let sent = Array.concat (Array.to_list (Array.sub inp.batches 0 acked)) in
    let loaded, _ = Psst_ingest.load ~mmap:true f.index in
    let expect = n + Array.length sent in
    let len = Corpus.length loaded.graphs in
    let prefix_ok =
      len >= expect
      && Pgraph_io.db_fingerprint (Array.sub (Corpus.to_array loaded.graphs) n (expect - n))
         = Pgraph_io.db_fingerprint sent
    in
    check r "ingest.acked_load" prefix_ok "%d graphs load after SIGKILL, %d acked" len expect;
    let standby_index = snd (Option.get f.standby) in
    let rec same k =
      let p = Psst_ingest.delta_path f.index k and s = Psst_ingest.delta_path standby_index k in
      match (Sys.file_exists p, Sys.file_exists s) with
      | false, false -> Ok (k - 1)
      | true, true -> if read_file p = read_file s then same (k + 1) else Error k
      | _ -> Error k
    in
    (match same 1 with
    | Ok k -> check r "ingest.standby_bytes" true "%d delta files byte-identical" k
    | Error k -> check r "ingest.standby_bytes" false "delta %d differs or is missing" k));
  (* The traced replay and the directly measured layers. *)
  if opts.trace then begin
    let mapped, t_load = time (fun () -> Query.load_database ~mmap:true f.index) in
    let requests =
      match opts.workload with
      | "cold" ->
        List.filteri (fun i _ -> i < 10) queries
        |> List.map (fun (s : Traffic.served) -> (inp.stream.(s.query), reply_outcome s.reply))
      | "warm" | "routed" ->
        let timed = List.filteri (fun i _ -> i < 200) queries in
        Array.to_list (Array.mapi (fun qi rep -> (inp.pool.(qi), reply_outcome (Some rep))) fill)
        @ List.map (fun (s : Traffic.served) -> (inp.pool.(s.query), reply_outcome s.reply)) timed
      | _ ->
        List.filteri (fun i _ -> i < 10) !reads
        |> List.map (fun (s : Traffic.served) ->
               ( inp.pool.(s.query),
                 Option.map
                   (fun (answers, stats) -> (List.filter (fun a -> a < n) answers, stats))
                   (reply_outcome s.reply) ))
    in
    let memo = opts.workload = "warm" || opts.workload = "routed" in
    let rp = Replay.run ~memo mapped config (Array.of_list (List.map fst requests)) in
    let mismatches = ref 0 in
    List.iteri
      (fun i (_, served) ->
        let (answers, stats) as got = rp.outcomes.(i) in
        let served_ok =
          match served with
          | None -> false
          | Some (sa, ss) -> sa = answers && (opts.workload = "ingest" || ss = stats)
        in
        if not (same_answer got rp.reference.(i) && served_ok) then incr mismatches)
      requests;
    check r "trace.replay" (!mismatches = 0) "%d of %d replayed requests differ from served or Query.run"
      !mismatches (List.length requests);
    let layer = Replay.metrics rp in
    let coverage = List.assoc "trace.coverage" layer in
    let overhead = List.assoc "trace.overhead_pct" layer in
    check r "trace.coverage" (coverage >= 0.95) "layer self time covers %.3f of the replay" coverage;
    check r "trace.overhead" (overhead <= 5.) "tracing overhead %.2f%% over %d requests" overhead
      (List.length requests);
    let spans_path = opts.work // Printf.sprintf "spans-%s-%d.jsonl" opts.workload opts.seed in
    Spans.write_jsonl rp.spans spans_path;
    (* Index build, layer by layer. *)
    let skeletons = Array.map Pgraph.skeleton inp.graphs in
    let features, t_mine = time (fun () -> Selection.select skeletons Experiments.mining_params) in
    let _, t_struct = time (fun () -> Structural.build skeletons features ~emb_cap:64) in
    let pmi, t_pmi = time (fun () -> Pmi.build ~domains:nproc inp.graphs features) in
    (* Ingest layers: the served batches on [ingest], four batches elsewhere. *)
    let scratch = rdir // "scratch" in
    mkdir_p scratch;
    let ingest_layers =
      if opts.workload = "ingest" then begin
        let k = ref 0 in
        while Sys.file_exists (Psst_ingest.delta_path f.index (!k + 1)) do incr k done;
        let source =
          { Psst_ingest.base = f.index; base_fp = Corpus.fingerprint mapped.graphs; next_seq = !k + 1 }
        in
        (* The primary's base image is never rewritten (batches land in
           side files), so its bytes are the base the batches chain on. *)
        let metrics, chain, replicated =
          ingest_replay scratch ~base_index:f.index (Array.sub inp.batches 0 !k)
            ~source:(Some source)
        in
        let identical =
          List.for_all
            (fun seq ->
              read_file (Psst_ingest.delta_path chain.base seq)
              = read_file (Psst_ingest.delta_path f.index seq))
            (List.init !k (fun i -> i + 1))
        in
        check r "trace.ingest_bytes" identical "%d replayed deltas byte-identical to the primary's" !k;
        check r "trace.replica_apply" replicated "every served delta applies on a scratch standby";
        metrics
      end
      else begin
        let metrics, _, replicated =
          ingest_replay scratch ~base_index:f.index (Array.sub inp.batches 0 4) ~source:None
        in
        check r "trace.replica_apply" replicated "every scratch delta applies on a scratch standby";
        metrics
      end
    in
    let q0 = fst (List.hd requests) in
    let answer =
      let o = rp.reference.(0) in
      Proto.Answer { id = 1; answers = o.answers; stats = Proto.stats_of_query o.stats }
    in
    let micro =
      Micro.run ~quota:opts.micro_quota { Micro.heap = f.db; mapped; config; queries = inp.pool }
    in
    List.iter
      (fun (k, v) -> put r k v)
      (List.filter (fun (k, _) -> k <> "trace.coverage" && k <> "trace.overhead_pct") layer
      @ !layer_live
      @ [
          ("proto.run_bytes", float_of_int (String.length (Proto.encode_request (Proto.Run { id = 1; query = q0; config }))));
          ("proto.answer_bytes", float_of_int (String.length (Proto.encode_reply answer)));
          ("proto.codec_us", codec_us config q0 answer);
          ("index.mine_s", t_mine);
          ("index.structural_s", t_struct);
          ("index.pmi_s", t_pmi);
          ("index.pmi_entries", float_of_int (Pmi.filled_entries pmi));
          ("store.save_s", setup_median (fun t -> t.save_s));
          ("store.bytes_per_graph", float_of_int (file_size f.index) /. float_of_int n);
          ("store.mmap_load_ms", 1e3 *. t_load);
          ("server.ready_s", setup_median (fun t -> t.ready_s));
        ]
      @ ingest_layers
      @ [ ("trace.coverage", coverage); ("trace.overhead_pct", overhead) ]
      @ Micro.metrics micro)
  end;
  rm_rf rdir;
  (* Report. *)
  let metrics = List.rev r.metrics in
  let checks = List.rev r.checks in
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  let unit_of name = match Spec.find name with Some m -> m.unit_ | None -> "" in
  if not opts.quiet then begin
    List.iter
      (fun (name, ok, detail) ->
        Printf.printf "check %s %s %s\n" name (if ok then "ok" else "FAILED") detail)
      checks;
    List.iter
      (fun (name, v) ->
        Printf.printf "metric %s %s %s %s\n" opts.workload name (Json.number v) (unit_of name))
      metrics
  end;
  let metric_obj names =
    Json.Obj
      (List.filter_map
         (fun name ->
           Option.map
             (fun v -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
             (List.assoc_opt name metrics))
         names)
  in
  let gated =
    List.map (fun (m : Spec.metric) -> m.name) (if opts.trace then Spec.per_layer else Spec.end_to_end)
  in
  (match opts.out with
  | None -> ()
  | Some path ->
    let record =
      Json.Obj
        [
          ("workload", Json.Str opts.workload);
          ("seed", Json.Num (float_of_int opts.seed));
          ("git_rev", Json.Str (git_rev ()));
          ("nproc", Json.Num (float_of_int nproc));
          ("seconds", Json.Num opts.seconds);
          ("trace", Json.Bool opts.trace);
          ( "sizes",
            Json.Obj
              [
                ("graphs", Json.Num (float_of_int n));
                ("features", Json.Num (float_of_int (List.length f.db.features)));
                ("pmi_entries", Json.Num (float_of_int (Pmi.filled_entries f.db.pmi)));
                ("cold_stream", Json.Num (float_of_int (Array.length inp.stream)));
                ("pool", Json.Num (float_of_int pool_len));
                ("setups", Json.Num (float_of_int opts.setups));
              ] );
          ("attempted", Json.Num (float_of_int attempted));
          ("failed", Json.Num (float_of_int failed));
          ("correct", Json.Bool correct);
          ("metrics", metric_obj (List.map fst metrics));
          ( "checks",
            Json.Arr
              (List.map
                 (fun (name, ok, detail) ->
                   Json.Obj [ ("name", Json.Str name); ("ok", Json.Bool ok); ("detail", Json.Str detail) ])
                 checks) );
        ]
    in
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string record ^ "\n")));
  if not opts.quiet then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int (max 1 attempted)));
              ("failed", Json.Num (float_of_int failed));
              ("metrics", metric_obj gated);
            ]));
  (correct, checks)
