(* Scatter-gather router over shard workers (DESIGN.md §14).

   One router process fronts N {!Psst_server} workers, each serving one
   shard of a {!Psst_shard} deployment. Per client request the router
   fans the query out to every worker, gathers the per-shard replies and
   merges them — T-PS answers by sorted union, top-k by the
   threshold-aware merge — which is bit-identical to a monolithic server
   because every per-graph verdict draws from PRNG streams keyed on the
   global graph id (see Psst_shard).

   Thread roles mirror Psst_server minus the batcher: the shared
   Psst_listener's accept thread and one reader thread per client
   connection. Each reader owns its own set
   of worker connections (Psst_client.t is single-threaded) and executes
   requests serially: send to every worker first, then gather, so the
   shards verify concurrently while the router blocks only once per
   request.

   Failure ladder per worker and request (DESIGN.md §12): transport
   break or timeout -> reconnect and retry up to [retries] times (each
   retry against the shard's current best replica) -> local bounds-only
   fallback on the shard's own file when the router was given one
   (answer flagged degraded: a superset of the exact per-shard answer)
   -> otherwise the whole request fails with one clean retryable
   [Unavailable]. Top-k has no bounds fallback (a ranking with a hole
   is wrong, not degraded), so a dead worker fails the request cleanly.
   The ["router.scatter"] chaos site makes a worker appear faulted (or
   slow, [Delay]) from the router's side without touching the worker
   process.

   Replica awareness (DESIGN.md §17): each shard's entry in [workers]
   is a GROUP of endpoints — slot 0 the primary, the rest standbys. A
   request goes to the shard's preferred replica: the primary while it
   is believed alive, else the freshest live replica (highest observed
   ingest epoch, ties to the lowest rid). Liveness comes from two
   sources: any reader marking a replica dead on a transport failure
   (so failover happens mid-request, on the first retry), and the
   optional heartbeat poller ([heartbeat_ms] > 0) polling [Get_health]
   per replica — which is also what revives a recovered primary and
   triggers failback. Because a standby answers bit-identically at its
   applied epoch, failover restores *exact* answers where a dead
   single-replica shard could only degrade to bounds. *)

module Proto = Psst_proto
module Client = Psst_client
module Listener = Psst_listener

let m_listener = Listener.metrics "router"
let m_worker_calls = Psst_obs.counter "router.worker.calls"
let m_worker_retries = Psst_obs.counter "router.worker.retries"
let m_worker_failures = Psst_obs.counter "router.worker.failures"
let m_degraded_shards = Psst_obs.counter "router.degraded_shards"
let m_unavailable = Psst_obs.counter "router.unavailable"
let m_latency = Psst_obs.histogram "router.latency_s"
let m_failover = Psst_obs.counter "router.failover"
let m_failback = Psst_obs.counter "router.failback"
let m_replica_lag = Psst_obs.histogram ~lo:1. ~hi:1e6 "router.replica_lag"

let fault_scatter = Psst_fault.site "router.scatter"

type config = {
  endpoint : Proto.endpoint;
  workers : Proto.endpoint array array;
      (* [workers.(sid).(rid)]: one replica group per shard *)
  shard_timeout_ms : float;
  retries : int;
  heartbeat_ms : float;  (* 0. = no liveness poller *)
  local_fallback : (int -> Query.database option) option;
}

let default_config ~endpoint ~workers =
  {
    endpoint;
    workers = Array.of_list (List.map (fun e -> [| e |]) workers);
    shard_timeout_ms = 0.;
    retries = 1;
    heartbeat_ms = 0.;
    local_fallback = None;
  }

(* One reader thread's lazily-connected link to one shard (to whichever
   replica of the group is currently preferred). *)
type wstate = { mutable client : Client.t option; mutable rid : int }

(* Shared per-replica liveness, guarded by [rmutex]. Replicas start
   optimistically alive so the first request goes straight to the
   primary without waiting for a poll. *)
type replica_state = { mutable alive : bool; mutable repoch : int }

type t = {
  cfg : config;
  listener : Listener.t;
  stopping : bool Atomic.t;
  mutable is_stopped : bool;
  mutable hb_thread : Thread.t option;
  rmutex : Mutex.t;
  replicas : replica_state array array;  (* guarded by rmutex *)
  preferred : int array;  (* rid serving each shard, guarded by rmutex *)
}

let endpoint t = Listener.endpoint t.listener
let stopped t = t.is_stopped
let served t = Listener.served t.listener

(* --- replica liveness and preference --- *)

let preferred_rid t sid =
  Mutex.lock t.rmutex;
  let rid = t.preferred.(sid) in
  Mutex.unlock t.rmutex;
  rid

(* Caller holds rmutex. Primary while alive, else the freshest live
   replica (ties to the lowest rid); with the whole group down, stay on
   the primary optimistically — the degradation ladder takes over. *)
let recompute_preferred t sid =
  let group = t.replicas.(sid) in
  let next =
    if group.(0).alive then 0
    else begin
      let best = ref (-1) in
      Array.iteri
        (fun rid st ->
          if
            st.alive
            && (!best < 0 || st.repoch > group.(!best).repoch)
          then best := rid)
        group;
      if !best < 0 then 0 else !best
    end
  in
  let prev = t.preferred.(sid) in
  if next <> prev then begin
    t.preferred.(sid) <- next;
    if next = 0 then begin
      Psst_obs.incr m_failback;
      Psst_obs.warn ~code:"router.failback"
        (Printf.sprintf "shard %d: primary is back, failing back from replica %d"
           sid prev)
    end
    else begin
      Psst_obs.incr m_failover;
      Psst_obs.warn ~code:"router.failover"
        (Printf.sprintf
           "shard %d: replica %d down, failing over to replica %d (epoch %d)"
           sid prev next group.(next).repoch)
    end
  end

let mark_dead t sid rid =
  Mutex.lock t.rmutex;
  if t.replicas.(sid).(rid).alive then begin
    t.replicas.(sid).(rid).alive <- false;
    recompute_preferred t sid
  end;
  Mutex.unlock t.rmutex

let mark_alive t sid rid epoch =
  Mutex.lock t.rmutex;
  let st = t.replicas.(sid).(rid) in
  st.repoch <- epoch;
  if not st.alive then begin
    st.alive <- true;
    recompute_preferred t sid
  end;
  Mutex.unlock t.rmutex

(* --- worker links --- *)

let drop_client ws =
  match ws.client with
  | Some c ->
    Client.close c;
    ws.client <- None
  | None -> ()

(* Point [ws] at the shard's currently preferred replica, dropping a
   connection to a replica that is no longer it. *)
let sync_preferred t ws sid =
  let rid = preferred_rid t sid in
  if ws.rid <> rid then begin
    drop_client ws;
    ws.rid <- rid
  end

let ensure_client t ws sid =
  match ws.client with
  | Some c -> c
  | None ->
    let c =
      Client.connect ~connect_timeout_ms:t.cfg.shard_timeout_ms
        ~call_timeout_ms:t.cfg.shard_timeout_ms t.cfg.workers.(sid).(ws.rid)
    in
    ws.client <- Some c;
    c

(* Sequential rpc with reconnect, for workers that fell off the pipelined
   fast path. [attempts] are *re*tries: the caller already burned the
   first try. Each retry re-reads the shard's preferred replica, so a
   failure that just marked the primary dead sends the retry to a live
   standby — mid-request failover. *)
let retry_rpc t ws sid req =
  let rec go attempt =
    if attempt >= t.cfg.retries then begin
      Psst_obs.incr m_worker_failures;
      None
    end
    else begin
      Psst_obs.incr m_worker_retries;
      Psst_obs.incr m_worker_calls;
      sync_preferred t ws sid;
      match Client.rpc (ensure_client t ws sid) req with
      | reply -> Some reply
      | exception e when Client.link_broken e ->
        drop_client ws;
        mark_dead t sid ws.rid;
        go (attempt + 1)
    end
  in
  go 0

(* Scatter one request to every worker: consult the chaos site once per
   worker, pipeline the sends so the shards execute concurrently, then
   gather in worker order. Slot [sid] is [None] when the worker stayed
   unreachable through the retry budget (or the chaos site declared it
   faulted). *)
let scatter t (wss : wstate array) req =
  let n = Array.length wss in
  let state = Array.make n `Retry in
  for sid = 0 to n - 1 do
    state.(sid) <-
      (match Psst_fault.fire fault_scatter with
      | Some (Psst_fault.Delay s) ->
        Unix.sleepf s;
        `Send
      | Some _ ->
        (* Injected router-side fault: this worker is unreachable for
           this request, no retries — the ladder below decides whether
           that degrades the shard or fails the query. *)
        drop_client wss.(sid);
        Psst_obs.incr m_worker_failures;
        `Faulted
      | None -> `Send)
  done;
  for sid = 0 to n - 1 do
    if state.(sid) = `Send then begin
      Psst_obs.incr m_worker_calls;
      sync_preferred t wss.(sid) sid;
      match Client.send (ensure_client t wss.(sid) sid) req with
      | () -> state.(sid) <- `Sent
      | exception e when Client.link_broken e ->
        drop_client wss.(sid);
        mark_dead t sid wss.(sid).rid;
        state.(sid) <- `Retry
    end
  done;
  Array.mapi
    (fun sid st ->
      match st with
      | `Faulted -> None
      | `Sent -> (
        match Client.read_reply (ensure_client t wss.(sid) sid) with
        | reply -> Some reply
        | exception e when Client.link_broken e ->
          drop_client wss.(sid);
          mark_dead t sid wss.(sid).rid;
          retry_rpc t wss.(sid) sid req)
      | `Send | `Retry -> retry_rpc t wss.(sid) sid req)
    state

(* --- per-request merging --- *)

let merge_proto_stats (a : Proto.query_stats) (b : Proto.query_stats) =
  {
    Proto.relaxed_truncated = a.relaxed_truncated || b.relaxed_truncated;
    structural_candidates = a.structural_candidates + b.structural_candidates;
    prob_candidates = a.prob_candidates + b.prob_candidates;
    accepted_by_bounds = a.accepted_by_bounds + b.accepted_by_bounds;
    pruned_by_bounds = a.pruned_by_bounds + b.pruned_by_bounds;
    degraded = a.degraded || b.degraded;
  }

(* Bounds-only fallback for one shard: correct to the PMI bounds (a
   superset of the worker's exact answer), always flagged degraded. *)
let shard_fallback t sid ~why query config =
  match t.cfg.local_fallback with
  | None -> None
  | Some lookup -> (
    match lookup sid with
    | None -> None
    | Some db -> (
      match Query.run_bounds_only db query config with
      | out ->
        Psst_obs.incr m_degraded_shards;
        Psst_obs.warn ~code:"router.degraded"
          (Printf.sprintf
             "worker %d %s: serving shard %d from local PMI bounds" sid why sid);
        Some
          ( out.Query.answers,
            { (Proto.stats_of_query out.Query.stats) with Proto.degraded = true } )
      | exception _ -> None))

(* What the request kind decides, and nothing else: which worker reply
   answers it, whether a shard has a degraded form, and how the
   per-shard fragments merge. *)
type 'frag kind = {
  what : string;  (* names the request in the "shard unavailable" error *)
  fragment : Proto.reply -> 'frag option;
  degrade : int -> why:string -> 'frag option;
  merge : 'frag list -> Proto.reply;
}

(* A threshold query: a shard degrades to its local bounds-only answer,
   and fragments merge by sorted union plus the summed funnel. *)
let threshold t ~id query config =
  {
    what = "T-PS query";
    fragment =
      (function
      | Proto.Answer { answers; stats; _ } -> Some (answers, stats)
      | _ -> None);
    degrade = (fun sid ~why -> shard_fallback t sid ~why query config);
    merge =
      (function
      | [] ->
        Proto.Error_reply
          { id; code = Proto.Internal; message = "router has no workers" }
      | (a0, s0) :: rest ->
        let answers, stats =
          List.fold_left
            (fun (ans, st) (a, s) -> (a :: ans, merge_proto_stats st s))
            ([ a0 ], s0) rest
        in
        Proto.Answer { id; answers = Psst_shard.merge_answers answers; stats });
  }

(* A top-k query has no degraded form: a ranking missing one shard's
   graphs is wrong, not degraded. Fragments merge by the threshold-aware
   top-k merge. *)
let topk ~id k =
  {
    what = "top-k query";
    fragment =
      (function Proto.Topk_answer { hits; _ } -> Some hits | _ -> None);
    degrade = (fun _ ~why:_ -> None);
    merge =
      (fun per_shard ->
        let hits =
          per_shard
          |> List.map (List.map (fun (g, ssp) -> { Topk.graph = g; ssp }))
          |> Psst_shard.merge_topk ~k
          |> List.map (fun (h : Topk.hit) -> (h.graph, h.ssp))
        in
        Proto.Topk_answer { id; hits });
  }

type 'frag resolution =
  | Frag of 'frag
  | Hard of (Proto.error_code * string)
      (* a non-retryable error: propagated under the request's id *)
  | Down of int  (* worker sid with no answer and no degraded form *)

let resolve kind sid reply =
  let degrade why =
    match kind.degrade sid ~why with Some f -> Frag f | None -> Down sid
  in
  match reply with
  | None -> degrade "unreachable"
  | Some (Proto.Error_reply { code; message; _ })
    when Proto.error_code_retryable code ->
    (* The worker rejected without executing (queue full / draining):
       same ladder as an unreachable worker. *)
    degrade ("rejected: " ^ message)
  | Some (Proto.Error_reply { code; message; _ }) -> Hard (code, message)
  | Some r -> (
    match kind.fragment r with
    | Some f -> Frag f
    | None ->
      Hard (Proto.Internal, Printf.sprintf "worker %d: unexpected reply kind" sid))

(* One request: scatter to every shard, resolve each reply, then gather.
   The first hard error wins, then the first shard that is down; else
   the fragments merge in shard order. *)
let handle t wss ~id req kind =
  let resolutions = Array.mapi (resolve kind) (scatter t wss req) in
  let hard = ref None and down = ref None and frags = ref [] in
  Array.iter
    (function
      | Frag f -> frags := f :: !frags
      | Hard e -> if !hard = None then hard := Some e
      | Down sid -> if !down = None then down := Some sid)
    resolutions;
  match (!hard, !down) with
  | Some (code, message), _ -> Proto.Error_reply { id; code; message }
  | None, Some sid ->
    Psst_obs.incr m_unavailable;
    Proto.Error_reply
      {
        id;
        code = Proto.Unavailable;
        message =
          Printf.sprintf
            "shard %d unavailable and no local fallback; %s failed — retry" sid
            kind.what;
      }
  | None, None -> kind.merge (List.rev !frags)

(* --- health aggregation and the heartbeat poller --- *)

(* One short-lived Get_health probe. Shared by the roster and the
   poller; updates the liveness table as a side effect, so a [client
   --health] against the router is also a poll. *)
let probe t sid rid =
  let timeout =
    if t.cfg.shard_timeout_ms > 0. then t.cfg.shard_timeout_ms else 1000.
  in
  match
    let c =
      Client.connect ~connect_timeout_ms:timeout ~call_timeout_ms:timeout
        t.cfg.workers.(sid).(rid)
    in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.health c)
  with
  | h ->
    mark_alive t sid rid h.Proto.epoch;
    Some h
  | exception e when Client.link_broken e ->
    mark_dead t sid rid;
    None

let roster t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun sid group ->
            let slots =
              Array.to_list
                (Array.mapi
                   (fun rid _ ->
                     match probe t sid rid with
                     | Some h ->
                       {
                         Proto.wid = sid;
                         reachable = true;
                         worker_uptime_s = h.Proto.uptime_s;
                         worker_queue_depth = h.Proto.queue_depth;
                         worker_degraded_answers = h.Proto.degraded_answers;
                         rid;
                         worker_epoch = h.Proto.epoch;
                         primary = false;  (* stamped below *)
                       }
                     | None ->
                       {
                         Proto.wid = sid;
                         reachable = false;
                         worker_uptime_s = 0.;
                         worker_queue_depth = 0;
                         worker_degraded_answers = 0;
                         rid;
                         worker_epoch = 0;
                         primary = false;
                       })
                   group)
            in
            (* Stamp the preferred replica after all probes, so a probe
               that just triggered a failover is reflected. *)
            let pref = preferred_rid t sid in
            List.map
              (fun (w : Proto.worker_health) ->
                { w with Proto.primary = w.Proto.rid = pref })
              slots)
          t.cfg.workers))

(* The router executes requests inline on the reader threads — it has
   no admission queue of its own (per-worker depths are in the roster) —
   and it holds no database and never ingests (shards are rebuilt
   offline and redeployed, DESIGN.md §15, §16), so those fields stay
   zero. *)
let health_snapshot t =
  { (Listener.health t.listener) with Proto.workers = roster t }

let fresh_wss t =
  Array.mapi
    (fun sid _ -> { client = None; rid = preferred_rid t sid })
    t.cfg.workers

let health t = health_snapshot t

(* Liveness poller: one Get_health probe per replica per cycle, cadence
   [heartbeat_ms] with a deterministic jitter (so a fleet of routers
   does not poll in lockstep), sleeping in short slices to react to
   stop. Also feeds router.replica_lag: the freshest observed epoch in
   each group minus each live replica's epoch. *)
let heartbeat_loop t =
  let cycle = ref 0 in
  while not (Atomic.get t.stopping) do
    Array.iteri
      (fun sid group -> Array.iteri (fun rid _ -> ignore (probe t sid rid)) group)
      t.cfg.workers;
    Mutex.lock t.rmutex;
    Array.iteri
      (fun _sid group ->
        if Array.length group > 1 then begin
          let freshest =
            Array.fold_left
              (fun acc st -> if st.alive then max acc st.repoch else acc)
              0 group
          in
          Array.iter
            (fun st ->
              if st.alive then
                Psst_obs.observe m_replica_lag
                  (float_of_int (max 0 (freshest - st.repoch))))
            group
        end)
      t.replicas;
    Mutex.unlock t.rmutex;
    incr cycle;
    let jitter = 0.9 +. (0.2 *. float_of_int (!cycle * 7919 mod 997) /. 997.) in
    let until = Unix.gettimeofday () +. (t.cfg.heartbeat_ms /. 1000. *. jitter) in
    while (not (Atomic.get t.stopping)) && Unix.gettimeofday () < until do
      Thread.delay 0.05
    done
  done

(* --- client connections --- *)

(* One client connection's worker links; requests run serially on the
   connection's reader thread. *)
let session t c =
  let wss = fresh_wss t in
  let reply r = Listener.reply t.listener c r in
  let unavailable ~id message =
    reply (Proto.Error_reply { id; code = Proto.Unavailable; message })
  in
  let answer_query ~id make =
    if Atomic.get t.stopping then
      reply
        (Proto.Error_reply
           { id; code = Proto.Shutdown;
             message = "router is shutting down; retry elsewhere" })
    else begin
      let t0 = Unix.gettimeofday () in
      reply (make ());
      Psst_obs.observe m_latency (Unix.gettimeofday () -. t0)
    end
  in
  let handle = function
    | Proto.Ping | Proto.Get_stats -> ()  (* answered by the listener *)
    | Proto.Get_health -> reply (Proto.Health_reply (health_snapshot t))
    | Proto.Set_tenant _ ->
      (* Accepted for forward compatibility: workers meter tenants;
         the router itself schedules nothing per-tenant. *)
      reply Proto.Pong
    | Proto.Add_graphs { id; _ } ->
      (* A sharded deployment's placement is fixed offline
         (DESIGN.md §15); routing live appends would change shard
         hashing under readers. Reject cleanly — retryable against a
         standalone worker. *)
      unavailable ~id
        "ingest is not supported through the router; send Add_graphs to \
         a standalone worker"
    | Proto.Subscribe _ | Proto.Replica_ack _ ->
      (* Replication streams run worker-to-standby (DESIGN.md §17);
         the router is stateless and has no delta chain to stream. *)
      unavailable ~id:0
        "replication subscriptions are not supported through the router; \
         subscribe to the shard's primary worker"
    | Proto.Run { id; query; config } as req ->
      answer_query ~id (fun () ->
          handle t wss ~id req (threshold t ~id query config))
    | Proto.Run_topk { id; k; _ } as req ->
      answer_query ~id (fun () -> handle t wss ~id req (topk ~id k))
  in
  { Listener.handle; close = (fun () -> Array.iter drop_client wss) }

(* --- lifecycle --- *)

let start cfg =
  if Array.length cfg.workers = 0 then
    invalid_arg "Psst_router: at least one worker endpoint required";
  Array.iteri
    (fun sid group ->
      if Array.length group = 0 then
        invalid_arg
          (Printf.sprintf "Psst_router: shard %d has an empty replica group" sid))
    cfg.workers;
  if cfg.retries < 0 then invalid_arg "Psst_router: retries must be >= 0";
  if cfg.heartbeat_ms < 0. then
    invalid_arg "Psst_router: heartbeat_ms must be >= 0";
  let listener = Listener.bind m_listener cfg.endpoint in
  let t =
    {
      cfg;
      listener;
      stopping = Atomic.make false;
      is_stopped = false;
      hb_thread = None;
      rmutex = Mutex.create ();
      replicas =
        Array.map
          (Array.map (fun _ -> { alive = true; repoch = 0 }))
          cfg.workers;
      preferred = Array.make (Array.length cfg.workers) 0;
    }
  in
  Listener.serve listener ~session:(session t);
  if cfg.heartbeat_ms > 0. then
    t.hb_thread <-
      Some
        (Thread.create
           (fun () ->
             try heartbeat_loop t
             with e ->
               Psst_obs.warn ~code:"router.heartbeat" (Printexc.to_string e))
           ());
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Listener.close_admission t.listener;
    Option.iter Thread.join t.hb_thread;
    (* A request already executing finishes its scatter (bounded by the
       per-shard timeouts); closing the connection under it only loses
       the reply write, never wedges the thread. *)
    Listener.close_connections t.listener;
    t.is_stopped <- true
  end
