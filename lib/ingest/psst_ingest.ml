(* Continuous-ingest pipeline (DESIGN.md §16).

   Concurrency model: one writer thread owns all mutation of the served
   database. Readers (the server's connection threads and batcher) only
   ever [Atomic.get] the snapshot, so there is no read-side locking and
   no torn state — an epoch is immutable once published. The writer
   builds each next epoch with Query.add_graphs (pure: fresh corpus
   array, fresh index image) while queries keep running on the previous
   one, persists the delta first, then publishes with one Atomic.set.
   Crash ordering: the delta hits disk before the epoch swap, so an
   acknowledged batch is always reloadable; a batch that failed to
   persist is rejected with the in-memory database unchanged — memory
   and disk never diverge by more than the batch being rejected. *)

module S = Psst_store

let m_batches = Psst_obs.counter "ingest.batches"
let m_graphs = Psst_obs.counter "ingest.graphs"
let m_rejects = Psst_obs.counter "ingest.rejects"
let m_stale = Psst_obs.counter "ingest.delta.stale"
let m_dedup = Psst_obs.counter "ingest.dedup"
let m_lagging = Psst_obs.counter "ingest.replication.lagging"
let m_queue_depth = Psst_obs.histogram ~lo:1. ~hi:1e6 "ingest.queue.depth"
let m_apply = Psst_obs.histogram "ingest.apply_s"

type snapshot = { epoch : int; db : Query.database }
type result = { epoch : int; base : int; count : int }

(* --- delta-file persistence --- *)

let delta_path base k = Printf.sprintf "%s.delta.%d" base k

type chain = { base : string; base_fp : int32; mutable next_seq : int }

let meta_section ~seq ~base_fp ~prev_count ~count =
  let e = S.encoder () in
  S.put_i64 e seq;
  S.put_i32 e base_fp;
  S.put_i64 e prev_count;
  S.put_i64 e count;
  S.section "delta.meta" e

let graphs_section graphs =
  let e = S.encoder () in
  S.put_array e Pgraph_io.encode_binary graphs;
  S.section "delta.graphs" e

let write_delta chain ~prev_count graphs =
  S.write_file (delta_path chain.base chain.next_seq) ~kind:S.Delta
    [
      meta_section ~seq:chain.next_seq ~base_fp:chain.base_fp ~prev_count
        ~count:(Array.length graphs);
      graphs_section graphs;
    ]

let save_delta chain ~prev_count graphs =
  write_delta chain ~prev_count graphs;
  chain.next_seq <- chain.next_seq + 1

(* The one delta validator: every checksum, then the chain stamps. The
   fingerprint pins delta [seq] to its base file and [prev_count] pins
   its position, so replay after a base rebuild or out of order is
   caught here instead of producing a silently different database.
   Without [prev_count] the stored count is trusted — the primary's
   read-back before streaming, whose subscriber re-checks it against
   its own database. Store_error on any anomaly. *)
let validate chain ~seq ?prev_count sections =
  let stored_seq, fp, stored_prev, count =
    S.decode_section sections "delta.meta" (fun d ->
        let stored_seq = S.get_nat d in
        let fp = S.get_i32 d in
        let stored_prev = S.get_nat d in
        let count = S.get_nat d in
        (stored_seq, fp, stored_prev, count))
  in
  if stored_seq <> seq then
    S.error "delta %d of %s records sequence number %d" seq chain.base
      stored_seq;
  if fp <> chain.base_fp then
    S.error
      "delta %d of %s was written for a different base corpus (fingerprint \
       %08lx, base is %08lx)"
      seq chain.base fp chain.base_fp;
  let prev_count = Option.value prev_count ~default:stored_prev in
  if stored_prev <> prev_count then
    S.error "delta %d of %s chains onto %d graphs, the database holds %d" seq
      chain.base stored_prev prev_count;
  let graphs =
    S.decode_section sections "delta.graphs" (fun d ->
        S.get_array d Pgraph_io.decode_binary)
  in
  if Array.length graphs <> count then
    S.error "delta %d of %s holds %d graphs, its metadata says %d" seq
      chain.base (Array.length graphs) count;
  graphs

(* Raw bytes of a persisted delta, validated before they leave — the
   replication hub streams these so a standby's file is the exact bytes
   of the primary's, not a re-encoding, and local disk rot is caught
   here rather than on the standby. *)
let delta_bytes chain ~seq =
  let bytes =
    try In_channel.with_open_bin (delta_path chain.base seq) In_channel.input_all
    with Sys_error m -> S.error "cannot read delta %d of %s: %s" seq chain.base m
  in
  ignore (validate chain ~seq (S.read_string bytes ~kind:S.Delta));
  bytes

let apply_deltas ~base db =
  let chain =
    { base; base_fp = Corpus.fingerprint db.Query.graphs; next_seq = 1 }
  in
  let rec go db =
    let seq = chain.next_seq in
    if not (Sys.file_exists (delta_path base seq)) then db
    else
      match
        validate chain ~seq ~prev_count:(Corpus.length db.Query.graphs)
          (S.read_file (delta_path base seq) ~kind:S.Delta)
      with
      | graphs ->
        let db = Query.add_graphs db graphs in
        chain.next_seq <- seq + 1;
        go db
      | exception S.Store_error msg ->
        (* Stale (base rebuilt) or damaged: keep the epochs that chained,
           drop the rest of the chain — a bad delta never changes
           answers, it only costs the graphs it carried. *)
        Psst_obs.incr m_stale;
        Psst_obs.warn ~code:"ingest.delta"
          (Printf.sprintf "stopping delta replay at %s: %s"
             (delta_path base seq) msg);
        db
  in
  let db = go db in
  (db, chain)

let load ?salvage ?mmap path =
  apply_deltas ~base:path (Query.load_database ?salvage ?mmap path)

let clear_deltas path =
  let rec go k removed =
    let p = delta_path path k in
    if Sys.file_exists p then begin
      (try Sys.remove p with Sys_error _ -> ());
      go (k + 1) (removed + 1)
    end
    else removed
  in
  go 1 0

(* --- the commit both writers run --- *)

(* Build the next epoch on the current snapshot from [graphs ~prev_count]
   (the primary's batch, or the standby's validated frame), persist it as
   delta [chain.next_seq] when a chain is armed, and only then publish it
   and advance the chain: a raise anywhere publishes nothing and leaves
   [next_seq] where it was. *)
let commit ?chain db_ref ~graphs ~persist =
  let snap = Atomic.get db_ref in
  let prev_count = Corpus.length snap.db.Query.graphs in
  match
    let graphs = graphs ~prev_count in
    let db', dt =
      Psst_util.Timer.time (fun () -> Query.add_graphs snap.db graphs)
    in
    Option.iter (fun c -> persist c ~prev_count graphs) chain;
    (Array.length graphs, db', dt)
  with
  | n, db', dt ->
    Atomic.set db_ref { epoch = snap.epoch + 1; db = db' };
    Option.iter (fun c -> c.next_seq <- c.next_seq + 1) chain;
    Psst_obs.incr m_batches;
    Psst_obs.add m_graphs n;
    Psst_obs.observe m_apply dt;
    Ok { epoch = snap.epoch + 1; base = snap.db.Query.base + prev_count; count = n }
  | exception e ->
    Psst_obs.incr m_rejects;
    let msg =
      match e with
      | S.Store_error m | Psst_fault.Injected m | Sys_error m -> m
      | e -> Printexc.to_string e
    in
    Psst_obs.warn ~code:"ingest.apply" msg;
    Error msg

(* The standby's write path: the frame is validated against the live
   database before anything is written, then persisted byte for byte
   (hence a chain byte-identical to the primary's). The replication
   thread is this process's single writer — client Add_graphs is
   rejected while in standby. *)
let apply_replicated chain db_ref ~seq ~bytes =
  if seq < chain.next_seq then `Stale
  else if seq > chain.next_seq then
    `Error
      (Printf.sprintf "delta stream gap: expected seq %d, received %d"
         chain.next_seq seq)
  else
    match
      commit ~chain db_ref
        ~graphs:(fun ~prev_count ->
          validate chain ~seq ~prev_count (S.read_string bytes ~kind:S.Delta))
        ~persist:(fun c ~prev_count:_ _ ->
          S.write_bytes (delta_path c.base seq) bytes)
    with
    | Ok r -> `Applied r
    | Error msg -> `Error msg

(* --- the single-writer pipeline --- *)

type publish = seq:int -> [ `Replicated | `No_standby | `Lagging of string ]

type batch = {
  token : string;  (* idempotency key; "" = dedup disabled *)
  graphs : Pgraph.t array;
  ack : (result, string) Result.t -> unit;
}

(* One remembered ack per idempotency token, writer-thread-only. [seq]
   is the delta the batch persisted as (None when persistence is off),
   so a retry of a batch whose first ack was blocked on replication can
   re-await the same seq instead of ingesting twice. *)
type remembered = { r_result : result; r_seq : int option }

let token_cap = 4096

type t = {
  db_ref : snapshot Atomic.t;
  chain : chain option;
  publish : publish option;
  queue : batch Psst_util.Tenant_queue.t;  (* weighed in graphs *)
  applied : int Atomic.t;  (* graphs applied to the live database *)
  tokens : (string, remembered) Hashtbl.t;  (* writer thread only *)
  token_fifo : string Queue.t;  (* insertion order, for bounded eviction *)
  mutable writer : Thread.t option;
}

let queued_graphs t = Psst_util.Tenant_queue.weight t.queue
let applied_graphs t = Atomic.get t.applied

(* Remember an applied batch's ack under its idempotency token (bounded:
   oldest tokens are evicted past [token_cap]). Writer thread only. *)
let remember t token r_result r_seq =
  if token <> "" then begin
    if not (Hashtbl.mem t.tokens token) then begin
      Queue.add token t.token_fifo;
      while Queue.length t.token_fifo > token_cap do
        Hashtbl.remove t.tokens (Queue.pop t.token_fifo)
      done
    end;
    Hashtbl.replace t.tokens token { r_result; r_seq }
  end

(* Acked batches must be on the standby's disk too (semi-synchronous
   replication): the ack waits for the subscriber. A lagging or dead
   subscriber turns the ack into a retryable error — the batch stays
   applied and persisted locally, and the retry (same token) re-awaits
   replication of the same seq instead of re-ingesting. *)
let ack_after_publish t ~seq ~result ack =
  match t.publish with
  | None -> ack (Ok result)
  | Some pub -> (
    match (match seq with Some seq -> pub ~seq | None -> `No_standby) with
    | `Replicated | `No_standby -> ack (Ok result)
    | `Lagging msg ->
      Psst_obs.incr m_lagging;
      Psst_obs.warn ~code:"ingest.replication" msg;
      ack (Error ("replication lagging: " ^ msg)))

let apply_one t b =
  let n = Array.length b.graphs in
  match if b.token = "" then None else Hashtbl.find_opt t.tokens b.token with
  | Some { r_result; r_seq } ->
    (* A retry of an already-applied batch: answer with the original ack
       (after replication of its seq, as for a first attempt). *)
    Psst_obs.incr m_dedup;
    ack_after_publish t ~seq:r_seq ~result:r_result b.ack
  | None ->
    if n = 0 then
      b.ack (Ok { epoch = (Atomic.get t.db_ref).epoch; base = 0; count = 0 })
    else
      match
        commit ?chain:t.chain t.db_ref
          ~graphs:(fun ~prev_count:_ -> b.graphs)
          ~persist:write_delta
      with
      | Ok result ->
        Atomic.fetch_and_add t.applied n |> ignore;
        let seq = Option.map (fun c -> c.next_seq - 1) t.chain in
        remember t b.token result seq;
        ack_after_publish t ~seq ~result b.ack
      | Error msg ->
        (* Nothing was published, so the caller may simply retry. *)
        b.ack (Error ("ingest batch failed: " ^ msg))

(* One batch per take, round-robin across tenants, until the queue is
   closed and drained. *)
let rec writer_loop t =
  match Psst_util.Tenant_queue.take t.queue ~max:1 with
  | [] -> ()
  | batches ->
    List.iter (apply_one t) batches;
    writer_loop t

let create ?chain ?publish ?tenant_quota ~queue_cap db_ref =
  let t =
    {
      db_ref;
      chain;
      publish;
      queue =
        Psst_util.Tenant_queue.create ~depth:m_queue_depth ?quota:tenant_quota
          ~cap:queue_cap ();
      applied = Atomic.make 0;
      tokens = Hashtbl.create 64;
      token_fifo = Queue.create ();
      writer = None;
    }
  in
  t.writer <-
    Some
      (Thread.create
         (fun () ->
           try writer_loop t
           with e ->
             Psst_obs.warn ~code:"ingest.writer" (Printexc.to_string e))
         ());
  t

let submit ?(token = "") t ~tenant graphs ~ack =
  let verdict =
    Psst_util.Tenant_queue.submit t.queue ~tenant ~weight:(Array.length graphs)
      { token; graphs; ack }
  in
  (match verdict with `Full | `Quota -> Psst_obs.incr m_rejects | _ -> ());
  verdict

let stop t =
  if Psst_util.Tenant_queue.close t.queue then Option.iter Thread.join t.writer
