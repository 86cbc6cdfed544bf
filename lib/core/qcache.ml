module Bitset = Psst_util.Bitset

(* Cross-query verification cache (DESIGN.md §13).

   Keys are strings built from the database's lineage id, the query's
   canonical code (Canon.code, so the key space buckets by isomorphism
   class), its exact textual presentation (Lgraph.to_string) and the
   parameters the cached artifact depends on. The presentation component
   is load-bearing for bit-identity: capped VF2 enumeration and
   relaxation order depend on vertex/edge numbering, so two isomorphic
   but differently-presented queries may legitimately produce different
   (equally sound) embedding samples — they must not share entries.

   Every cached artifact is a deterministic, PRNG-free function of
   (query presentation, features, at most one graph, parameters) — or,
   for final SSP values, of those plus the verifier config, seed and
   stop threshold: Query.run and Topk.run both draw candidate gi from
   Prng.stream ~seed gi, independently of pool size and ranking order.
   So a hit returns exactly the value a cold run would recompute, and
   cached runs stay bit-identical to cold runs under fixed seeds.

   Query.add_graphs only appends: it keeps the features and every graph
   at its index. So a database and every database grown from it share
   one lineage id, and an entry stored at one epoch stays right at every
   later one; nothing is ever flushed. A lineage is a chain: only an
   extension of its tip (the database holding the lineage's graph
   count) keeps the id, so two different graphs never share an index
   under one id. Every other database (indexed, loaded, sliced, merged,
   or a second extension of one parent) gets a fresh id, and entries of
   different ids never meet.

   All operations take one mutex; compute callbacks run outside the lock
   (two domains may race to fill the same key — both compute the same
   deterministic value, first insert wins). *)

let m_hit = Psst_obs.counter "cache.hit"
let m_miss = Psst_obs.counter "cache.miss"
let m_evict = Psst_obs.counter "cache.evict"
let h_key = Psst_obs.histogram "cache.key_s"

(* Bounded FIFO table. Insertion order approximates recency well enough
   for the workloads here; eviction is O(1) amortised. *)
module Tbl = struct
  type 'v t = {
    tbl : (string, 'v) Hashtbl.t;
    order : string Queue.t;
    cap : int;
  }

  let create cap = { tbl = Hashtbl.create 64; order = Queue.create (); cap }
  let find t k = Hashtbl.find_opt t.tbl k
  let remove t k = Hashtbl.remove t.tbl k

  let add t k v =
    if not (Hashtbl.mem t.tbl k) then begin
      while Hashtbl.length t.tbl >= t.cap do
        match Queue.take_opt t.order with
        | None -> Hashtbl.reset t.tbl (* unreachable: queue covers tbl *)
        | Some old ->
          (* Stale queue entries (removed for poisoning) pop silently. *)
          if Hashtbl.mem t.tbl old then begin
            Hashtbl.remove t.tbl old;
            Psst_obs.incr m_evict
          end
      done;
      Hashtbl.replace t.tbl k v;
      Queue.add k t.order
    end

  let length t = Hashtbl.length t.tbl
end

type t = {
  mu : Mutex.t;
  relaxed : (Lgraph.t list * [ `Complete | `Truncated ]) Tbl.t;
  prepared : Pruning.prepared Tbl.t;
  emb : Bitset.t list Tbl.t;
  sprep : Verify.smp_prep Tbl.t;
  ssp : float Tbl.t;
}

let create ?(query_cap = 128) ?(value_cap = 16384) () =
  (* Caps below 1 would make [Tbl.add]'s eviction loop unsatisfiable
     (an empty table still exceeds the cap). *)
  if query_cap < 1 then invalid_arg "Qcache.create: query_cap must be >= 1";
  if value_cap < 1 then invalid_arg "Qcache.create: value_cap must be >= 1";
  {
    mu = Mutex.create ();
    relaxed = Tbl.create query_cap;
    prepared = Tbl.create query_cap;
    emb = Tbl.create value_cap;
    sprep = Tbl.create value_cap;
    ssp = Tbl.create value_cap;
  }

let entries t =
  Mutex.protect t.mu (fun () ->
      Tbl.length t.relaxed + Tbl.length t.prepared + Tbl.length t.emb
      + Tbl.length t.sprep + Tbl.length t.ssp)

(* [tip] is the graph count of the lineage's newest database; the one
   compare-and-set in [extend] moves it, so exactly one extension of each
   database keeps the id. *)
type lineage = { id : int; tip : int Atomic.t }

let next_id = Atomic.make 0
let lineage ~count = { id = Atomic.fetch_and_add next_id 1; tip = Atomic.make count }

let extend l ~parent ~grown =
  if Atomic.compare_and_set l.tip parent grown then l else lineage ~count:grown

(* [None] is the unarmed scope of a run without a cache: every accessor
   then just runs its compute callback. *)
type armed = { cache : t; qkey : string }
type scope = armed option

let scope cache ~lineage ~q ~delta ~relax_cap =
  Option.map
    (fun t ->
      let qkey =
        Psst_obs.span h_key (fun () ->
            Printf.sprintf "%d\x01%s\x01%s\x01d=%d;rc=%d" lineage.id (Canon.code q)
              (Lgraph.to_string q) delta relax_cap)
      in
      { cache = t; qkey })
    cache

(* Shared lookup-or-compute; [key] extends the scope's query key. The lock
   covers only table access, never the compute callback; exceptions from
   [compute] (injected faults, budget aborts) propagate without storing
   anything. A cached value [evict] accepts is dropped and recomputed. *)
let memo ~evict table s key compute =
  match s with
  | None -> compute ()
  | Some { cache = t; qkey } ->
    let tbl = table t and key = key qkey in
    let cached =
      Mutex.protect t.mu (fun () ->
          match Tbl.find tbl key with
          | Some v when evict v ->
            Tbl.remove tbl key;
            Psst_obs.incr m_evict;
            None
          | found -> found)
    in
    (match cached with
    | Some v ->
      Psst_obs.incr m_hit;
      v
    | None ->
      Psst_obs.incr m_miss;
      let v = compute () in
      Mutex.protect t.mu (fun () -> Tbl.add tbl key v);
      v)

let never _ = false
let relaxed s ~compute = memo ~evict:never (fun t -> t.relaxed) s Fun.id compute
let prepared s ~compute = memo ~evict:never (fun t -> t.prepared) s Fun.id compute

let emb_key ~graph ~emb_cap qkey =
  Printf.sprintf "%s\x02g=%d;cap=%d" qkey graph emb_cap

let embeddings s ~graph ~emb_cap ~compute =
  memo ~evict:never (fun t -> t.emb) s (emb_key ~graph ~emb_cap) compute

let smp_prep s ~graph ~emb_cap ~compute =
  memo ~evict:never (fun t -> t.sprep) s (emb_key ~graph ~emb_cap) compute

(* Everything a final SSP depends on beyond (query, graph): the verifier,
   the seed and, for an adaptive verifier, its stop threshold. Query.run
   stops at its epsilon, so its adaptive estimates differ from top-k's,
   which stop on precision alone ([stop = None]); the fixed-budget and
   exact estimates ignore [stop] and are shared by both. *)
let verifier_key ~stop ~seed = function
  | `Exact -> "exact"
  | `Smp (vc : Verify.config) ->
    let fixed = Printf.sprintf "smp;t=%h;x=%h;c=%d;s=%d" vc.tau vc.xi vc.emb_cap seed in
    if not vc.adaptive then fixed
    else
      match stop with
      | None -> fixed ^ ";ad"
      | Some e -> Printf.sprintf "%s;ad;e=%h" fixed e

(* Final SSP values are validated on read: a poisoned entry (NaN or out
   of [0,1] — SSP is a probability) is evicted and recomputed instead of
   served (DESIGN.md §13). *)
let ssp s ~graph ~stop ~seed verifier ~compute =
  let poisoned v =
    let bad = Float.is_nan v || v < 0. || v > 1. in
    if bad then
      Psst_obs.warn ~code:"cache.poisoned"
        (Printf.sprintf "evicted out-of-range cached SSP %h for graph %d" v graph);
    bad
  in
  memo ~evict:poisoned (fun t -> t.ssp) s
    (fun qkey ->
      Printf.sprintf "%s\x03g=%d;%s" qkey graph (verifier_key ~stop ~seed verifier))
    compute

let poison_ssp t value =
  Mutex.protect t.mu (fun () ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.ssp.Tbl.tbl [] in
      List.iter (fun k -> Hashtbl.replace t.ssp.Tbl.tbl k value) keys;
      List.length keys)
