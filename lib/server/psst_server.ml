(* Resident query server (DESIGN.md §11, §16).

   Thread roles:
     - accept thread and reader threads (Psst_listener): one reader per
       connection parses frames, answers Ping/Get_stats/Set_tenant
       inline, submits Run/Run_topk to the query queue and Add_graphs
       batches to the ingest writer's queue, and answers a refused
       submission with a retryable error;
     - batcher thread: owns the domain pool; takes micro-batches from
       the query queue, enforces queue-wait deadlines, fixes one
       verification deadline per micro-batch, maps every job over the
       pool as one task (Query.run_on or Topk.run), then writes the
       replies in admission order through one reply mapping;
     - ingest writer (Psst_ingest, when enabled): the single mutator of
       the served database — applies Add_graphs batches, persists them
       as delta files, and publishes each new epoch with one atomic
       swap.

   Both queues are Psst_util.Tenant_queue instances, so the cap, the
   per-tenant quota, round-robin between tenants and the drain barrier
   are one policy for queries (weight 1) and ingest (weight = graphs).

   Snapshot consistency: the live database is an epoch-numbered
   immutable snapshot behind an Atomic. Readers capture the snapshot at
   admission time and each job runs against its own snapshot and config,
   so a query admitted before an ingest batch never observes the new
   graphs and every answer is bit-identical to an offline Query.run (or
   Topk.run) against that epoch's database. Jobs of different epochs in
   one micro-batch run side by side and share cache entries: an epoch
   only appends graphs, so every entry an older epoch can read is right
   at every later one (Qcache).

   Closing the query queue is the drain barrier: no job enters after
   it, and the batcher's take returns nothing only once every admitted
   job is out, so every admitted request is answered before stop()
   returns. *)

module Proto = Psst_proto
module Listener = Psst_listener
module Pool = Psst_util.Pool

(* --- metrics (bound once; see Psst_obs interning rules) --- *)

let m_listener = Listener.metrics "server"
let m_reject_full = Psst_obs.counter "server.reject.queue_full"
let m_reject_quota = Psst_obs.counter "server.reject.tenant_quota"
let m_reject_deadline = Psst_obs.counter "server.reject.deadline"
let m_reject_shutdown = Psst_obs.counter "server.reject.shutdown"
let m_batch_size = Psst_obs.histogram ~lo:1. ~hi:1e4 "server.batch.size"
let m_queue_depth = Psst_obs.histogram ~lo:1. ~hi:1e6 "server.queue.depth"
let m_queue_wait = Psst_obs.histogram "server.queue.wait_s"
let m_latency = Psst_obs.histogram "server.latency_s"

(* Per-tenant counters are interned on first use — [Psst_obs.counter]
   returns the existing counter for a repeated name, so dynamic tenant
   names are safe (one registry row per tenant per verb). *)
let tenant_counter tenant verb =
  Psst_obs.counter (Printf.sprintf "server.tenant.%s.%s" tenant verb)

type config = {
  endpoint : Proto.endpoint;
  domains : int;
  queue_cap : int;
  deadline_ms : float;
  verify_budget_ms : float;
  batch_max : int;
  cache_cap : int;
  ingest_queue_cap : int;
  tenant_quota : int;
  writable : bool;
      (* false = standby: Add_graphs is rejected with a retryable error
         (the replication stream is the only mutator) until promotion
         flips it with [set_writable]. *)
}

let default_config endpoint =
  {
    endpoint;
    domains = 1;
    queue_cap = 128;
    deadline_ms = 0.;
    verify_budget_ms = 0.;
    batch_max = 32;
    cache_cap = 16384;
    ingest_queue_cap = 1024;
    tenant_quota = 0;
    writable = true;
  }

(* The replication seam (DESIGN.md §17), implemented by Psst_replica and
   injected here so the server stays below it in the library graph. *)
type subscription = { sub_ack : seq:int -> unit; sub_close : unit -> unit }

type publisher = {
  pub_publish : Psst_ingest.publish;
  pub_subscribe :
    from_seq:int ->
    send:(Psst_proto.reply -> bool) ->
    (subscription, string) Result.t;
}

let default_tenant = "default"

(* Per-query traces retained for [--stats-json]. *)
let trace_cap = 256

(* Chaos site around batch execution (DESIGN.md §12): a Fail plan here
   stands in for the verification stage dying (pool wedged, OOM-killed
   helper, ...) and exercises the bounds-only degradation path. *)
let fault_batch = Psst_fault.site "server.batch"

type job = {
  jconn : Listener.conn;
  jid : int;
  jtenant : string;
  jsnap : Psst_ingest.snapshot;  (* the epoch captured at admission *)
  jkind :
    [ `Run of Lgraph.t * Query.config | `Topk of Lgraph.t * int * Query.config ];
  enqueued : float;
}

type t = {
  cfg : config;
  db_ref : Psst_ingest.snapshot Atomic.t;
  ingest : Psst_ingest.t option;  (* None when ingest_queue_cap = 0 *)
  publisher : publisher option;
  mutable writable : bool;  (* flipped (once) by promotion *)
  pool : Pool.t;
  cache : Qcache.t option;
      (* cross-query verification cache, shared by every batch on the
         persistent pool; None when [cache_cap = 0]. Keyed by the
         database's lineage, which an epoch swap keeps. *)
  listener : Listener.t;
  queue : job Psst_util.Tenant_queue.t;
      (* one job per rota turn, so a tenant saturating its quota gets an
         equal share of batch slots, never the whole batch *)
  mutable is_stopped : bool;
  mutable batch_thread : Thread.t option;
  trace_mutex : Mutex.t;
  trace_ring : Psst_obs.Trace.t Queue.t;  (* guarded by [trace_mutex] *)
}

let endpoint t = Listener.endpoint t.listener
let stopped t = t.is_stopped
let served t = Listener.served t.listener
let database t = (Atomic.get t.db_ref).Psst_ingest.db
let epoch t = (Atomic.get t.db_ref).Psst_ingest.epoch
let snapshot_ref t = t.db_ref
let writable t = t.writable
let set_writable t w = t.writable <- w

let traces t =
  Mutex.protect t.trace_mutex (fun () -> List.of_seq (Queue.to_seq t.trace_ring))

let push_trace t tr =
  Mutex.protect t.trace_mutex (fun () ->
      Queue.add tr t.trace_ring;
      while Queue.length t.trace_ring > trace_cap do
        ignore (Queue.pop t.trace_ring)
      done)

let reply t c r = Listener.reply t.listener c r

(* --- admission --- *)

(* The one rejection mapping, for queries and ingest batches alike: a
   refused submission becomes its Error_reply, its server.reject.*
   counter and the tenant's [rejected] counter. [`Ingest] picks the
   ingest queue's wording and cap. *)
let reject t c ~id ~tenant ~queue verdict =
  let name, quota, units, cap =
    match queue with
    | `Query -> ("admission queue", "quota", "requests", t.cfg.queue_cap)
    | `Ingest -> ("ingest queue", "ingest quota", "graphs", t.cfg.ingest_queue_cap)
  in
  let code, message, counter =
    match verdict with
    | `Full ->
      ( Proto.Queue_full,
        Printf.sprintf "%s full (%d %s); retry later" name cap units,
        Some m_reject_full )
    | `Quota ->
      ( Proto.Queue_full,
        Printf.sprintf "tenant %S is at its %s (%d queued %s); retry later"
          tenant quota t.cfg.tenant_quota units,
        Some m_reject_quota )
    | `Closed ->
      ( Proto.Shutdown,
        "server is shutting down; retry elsewhere",
        Some m_reject_shutdown )
    | `Unavailable msg -> (Proto.Unavailable, msg, None)
  in
  Option.iter Psst_obs.incr counter;
  Psst_obs.incr (tenant_counter tenant "rejected");
  reply t c (Proto.Error_reply { id; code; message })

let admit t job =
  match
    Psst_util.Tenant_queue.submit t.queue ~tenant:job.jtenant ~weight:1 job
  with
  | `Admitted -> Psst_obs.incr (tenant_counter job.jtenant "admitted")
  | (`Quota | `Full | `Closed) as v ->
    reject t job.jconn ~id:job.jid ~tenant:job.jtenant ~queue:`Query v

let health_snapshot t =
  let snap = Atomic.get t.db_ref in
  {
    (Listener.health t.listener) with
    Proto.queue_depth = Psst_util.Tenant_queue.weight t.queue;
    epoch = snap.Psst_ingest.epoch;
    ingest_queued =
      (match t.ingest with
      | Some ing -> Psst_ingest.queued_graphs ing
      | None -> 0);
    ingest_applied =
      (match t.ingest with
      | Some ing -> Psst_ingest.applied_graphs ing
      | None -> 0);
  }

let health = health_snapshot

(* Hand one Add_graphs batch to the ingest writer. The ack runs on the
   writer thread after the epoch swap (or the failed persist), so an
   Ingest_ack in hand means every later query on any connection sees the
   new graphs. *)
let handle_add_graphs t c ~tenant ~id ~token graphs =
  let reject = reject t c ~id ~tenant ~queue:`Ingest in
  if not t.writable then
    reject
      (`Unavailable
        "this server is a read-only standby; send writes to the primary")
  else
  match t.ingest with
  | None ->
    reject
      (`Unavailable "ingest is disabled on this server (--ingest-queue-cap 0)")
  | Some ing -> (
    let ack = function
      | Ok (r : Psst_ingest.result) ->
        Psst_obs.incr (tenant_counter tenant "ingested");
        reply t c
          (Proto.Ingest_ack
             { id; epoch = r.epoch; base = r.base; count = r.count })
      | Error msg ->
        (* Persist or apply failed; nothing was published, so the batch
           is safely retryable. *)
        reject (`Unavailable msg)
    in
    match Psst_ingest.submit ~token ing ~tenant graphs ~ack with
    | `Admitted -> ()
    | (`Quota | `Full | `Closed) as v -> reject v)

(* One connection's state: its tenant (set by Set_tenant) and, once
   Subscribe turned it into a replication stream, its subscription —
   acks from the peer land there, and it is torn down with the
   connection however the reader exits. *)
let session t c =
  let tenant = ref default_tenant in
  let sub : subscription option ref = ref None in
  let error code message =
    reply t c (Proto.Error_reply { id = 0; code; message })
  in
  let admit_job id kind =
    admit t
      {
        jconn = c;
        jid = id;
        jtenant = !tenant;
        jsnap = Atomic.get t.db_ref;
        jkind = kind;
        enqueued = Unix.gettimeofday ();
      }
  in
  let handle = function
    | Proto.Ping | Proto.Get_stats -> ()  (* answered by the listener *)
    | Proto.Get_health -> reply t c (Proto.Health_reply (health_snapshot t))
    | Proto.Set_tenant name ->
      tenant := name;
      reply t c Proto.Pong
    | Proto.Add_graphs { id; token; graphs } ->
      handle_add_graphs t c ~tenant:!tenant ~id ~token graphs
    | Proto.Subscribe { from_seq } -> (
      match t.publisher with
      | None ->
        error Proto.Unavailable
          "this server does not accept replication subscriptions (no \
           persistent delta chain)"
      | Some _ when !sub <> None ->
        error Proto.Malformed "connection is already subscribed"
      | Some p -> (
        match p.pub_subscribe ~from_seq ~send:(Listener.send t.listener c) with
        | Ok s -> sub := Some s
        | Error msg -> error Proto.Unavailable msg))
    | Proto.Replica_ack { seq } ->
      (* One-way: the stream carries Delta_frames the other direction,
         so acks are never answered. An ack outside a subscription is
         simply ignored. *)
      Option.iter (fun s -> s.sub_ack ~seq) !sub
    | Proto.Run { id; query; config } -> admit_job id (`Run (query, config))
    | Proto.Run_topk { id; query; k; config } ->
      admit_job id (`Topk (query, k, config))
  in
  {
    Listener.handle;
    close = (fun () -> Option.iter (fun s -> s.sub_close ()) !sub);
  }

(* --- batching --- *)

let job_error t job code message =
  (match code with
  | Proto.Deadline -> Psst_obs.incr m_reject_deadline
  | _ -> ());
  reply t job.jconn
    (Proto.Error_reply { id = job.jid; code; message })

(* One pool task: the job against the snapshot and config it was
   admitted under, so its answer is bit-identical to an offline run on
   that epoch's database whatever ingest published since. [deadline] is
   the micro-batch's one verification deadline; top-k never degrades, so
   it ignores it. The task never raises: its exception is its result. *)
let execute t ~deadline job =
  let db = job.jsnap.Psst_ingest.db in
  match
    Psst_fault.inject fault_batch;
    match job.jkind with
    | `Run (q, cfg) -> `Run (Query.run_on ?deadline ?cache:t.cache t.pool db q cfg)
    | `Topk (q, k, cfg) -> `Topk (Topk.run ?cache:t.cache db q ~k cfg)
  with
  | out -> Ok out
  | exception e -> Error e

(* The one reply mapping, run on the batcher thread in admission order:
   an outcome becomes its answer, with the trace and the served and
   latency metrics. An injected server.batch fault stands for the
   verification stage being down: a threshold job degrades to its
   bounds-only answer (a flagged superset of the exact one, DESIGN.md
   §12), and a top-k job, which has no such fallback, gets a retryable
   error rather than a wrong ranking. Any other exception is Internal. *)
let rec finish t job result =
  let served r =
    Psst_obs.incr (tenant_counter job.jtenant "served");
    reply t job.jconn r;
    Psst_obs.observe m_latency (Unix.gettimeofday () -. job.enqueued)
  in
  match (result, job.jkind) with
  | Ok (`Run (out : Query.outcome)), _ ->
    push_trace t out.trace;
    served
      (Proto.Answer
         {
           id = job.jid;
           answers = out.answers;
           stats = Proto.stats_of_query out.stats;
         })
  | Ok (`Topk (out : Topk.outcome)), _ ->
    served
      (Proto.Topk_answer
         {
           id = job.jid;
           hits = List.map (fun (h : Topk.hit) -> (h.graph, h.ssp)) out.hits;
         })
  | Error (Psst_fault.Injected _), `Run (q, cfg) -> (
    Psst_obs.warn ~code:"server.batch"
      "verification unavailable (injected fault): serving bounds-only answers";
    match Query.run_bounds_only ?cache:t.cache job.jsnap.Psst_ingest.db q cfg with
    | out -> finish t job (Ok (`Run out))
    | exception e ->
      job_error t job Proto.Internal ("query failed: " ^ Printexc.to_string e))
  | Error (Psst_fault.Injected _), `Topk _ ->
    job_error t job Proto.Unavailable "top-k stage unavailable; retry"
  | Error e, kind ->
    let msg = Printexc.to_string e in
    Psst_obs.warn ~code:"server.batch" msg;
    job_error t job Proto.Internal
      ((match kind with `Run _ -> "query" | `Topk _ -> "top-k")
      ^ " failed: " ^ msg)

let process_batch t batch =
  let now = Unix.gettimeofday () in
  Psst_obs.observe m_batch_size (float_of_int (List.length batch));
  List.iter
    (fun j -> Psst_obs.observe m_queue_wait (now -. j.enqueued))
    batch;
  let live, expired =
    if t.cfg.deadline_ms <= 0. then (batch, [])
    else
      List.partition
        (fun j -> (now -. j.enqueued) *. 1000. <= t.cfg.deadline_ms)
        batch
  in
  List.iter
    (fun j ->
      job_error t j Proto.Deadline
        (Printf.sprintf "deadline exceeded: waited %.1f ms in queue (limit %.1f)"
           ((now -. j.enqueued) *. 1000.)
           t.cfg.deadline_ms))
    expired;
  (* One absolute verification deadline for the whole micro-batch, fixed
     before the fan-out: however the pool schedules the jobs, they
     degrade against the same wall-clock instant. *)
  let deadline =
    if t.cfg.verify_budget_ms > 0. then
      Some (Unix.gettimeofday () +. (t.cfg.verify_budget_ms /. 1000.))
    else None
  in
  let live = Array.of_list live in
  Pool.map_array t.pool ~chunk:1 (execute t ~deadline) live
  |> Array.iteri (fun i result -> finish t live.(i) result)

let rec batch_loop t =
  match Psst_util.Tenant_queue.take t.queue ~max:t.cfg.batch_max with
  | [] -> () (* closed and drained *)
  | batch ->
    process_batch t batch;
    batch_loop t

(* --- lifecycle --- *)

let start ?chain ?publisher cfg db =
  if cfg.batch_max < 1 then invalid_arg "Psst_server: batch_max must be >= 1";
  if cfg.cache_cap < 0 then invalid_arg "Psst_server: cache_cap must be >= 0";
  if cfg.ingest_queue_cap < 0 then
    invalid_arg "Psst_server: ingest_queue_cap must be >= 0";
  (* Raises on a bad queue_cap or tenant_quota, before anything is bound. *)
  let queue =
    Psst_util.Tenant_queue.create ~depth:m_queue_depth ~quota:cfg.tenant_quota
      ~cap:cfg.queue_cap ()
  in
  let listener = Listener.bind m_listener cfg.endpoint in
  let db_ref = Atomic.make { Psst_ingest.epoch = 0; db } in
  let t =
    {
      cfg;
      db_ref;
      ingest =
        (if cfg.ingest_queue_cap > 0 then
           Some
             (Psst_ingest.create ?chain
                ?publish:(Option.map (fun p -> p.pub_publish) publisher)
                ~tenant_quota:cfg.tenant_quota
                ~queue_cap:cfg.ingest_queue_cap db_ref)
         else None);
      publisher;
      writable = cfg.writable;
      pool = Pool.create ~domains:cfg.domains ();
      cache =
        (if cfg.cache_cap > 0 then Some (Qcache.create ~value_cap:cfg.cache_cap ())
         else None);
      listener;
      queue;
      is_stopped = false;
      batch_thread = None;
      trace_mutex = Mutex.create ();
      trace_ring = Queue.create ();
    }
  in
  Listener.serve listener ~session:(session t);
  t.batch_thread <-
    Some
      (Thread.create
         (fun () ->
           try batch_loop t
           with e ->
             (* A bug escaping process_batch's per-job guards: report it
                loudly; stop() can still join and shut the process down. *)
             Psst_obs.warn ~code:"server.batcher" (Printexc.to_string e))
         ());
  t

let stop t =
  if Psst_util.Tenant_queue.close t.queue then begin
    Listener.close_admission t.listener;
    Option.iter Thread.join t.batch_thread;
    (* Queries are drained; now drain the ingest writer so every admitted
       Add_graphs batch is applied (and persisted) and acknowledged
       before the connections go away. *)
    Option.iter Psst_ingest.stop t.ingest;
    (* Every admitted request is answered by now; drop the connections so
       the reader threads unblock and exit. *)
    Listener.close_connections t.listener;
    Pool.shutdown t.pool;
    t.is_stopped <- true
  end
