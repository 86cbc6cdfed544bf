(* Sharded serving (DESIGN.md §14): the differential harness pinning the
   tentpole invariant — answers computed over a partitioned corpus are
   bit-identical to the monolithic ones. Offline: per-shard Query.run /
   Topk.run merged with Psst_shard at 1/2/4 shards under 1/4 verification
   domains, cold and warm cache passes, counters included. Served: a
   scatter-gather router fronting 1/2/4/8 shard workers diffed
   reply-for-reply against a monolithic server over the wire. Property layer: answer-set
   union, threshold-aware top-k merge with deterministic ties, and the
   split → load → re-split round trip of an on-disk deployment. *)

module P = Psst_proto
module Client = Psst_client
module Server = Psst_server
module Sh = Psst_shard
module Prng = Psst_util.Prng

open Tgen.Fixtures

let shards_of db plan =
  List.map (fun (base, count) -> Sh.sub_database db ~base ~count) plan

let check_counters what (a : Query.stats) (b : Query.stats) =
  Alcotest.(check bool) what true
    (a.Query.relaxed_count = b.Query.relaxed_count
    && a.relaxed_truncated = b.relaxed_truncated
    && a.structural_candidates = b.structural_candidates
    && a.prob_candidates = b.prob_candidates
    && a.accepted_by_bounds = b.accepted_by_bounds
    && a.pruned_by_bounds = b.pruned_by_bounds
    && a.degraded_candidates = b.degraded_candidates)

(* --- offline differential: shards x domains, cold and warm --- *)

let test_differential_offline () =
  let ds, db = make_db 409 24 in
  let n = Array.length ds.Generator.graphs in
  let rng = Prng.make 61 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  List.iter
    (fun domains ->
      List.iter
        (fun parts ->
          let plan = Sh.plan_even ~parts ~total:n in
          let shards = shards_of db plan in
          let mono_cache = Qcache.create () in
          let shard_caches = List.map (fun _ -> Qcache.create ()) shards in
          List.iteri
            (fun qi q ->
              (* pass 1 fills the caches, pass 2 must answer warm and
                 still bit-identically *)
              for pass = 1 to 2 do
                let tag =
                  Printf.sprintf "d=%d s=%d q=%d pass=%d" domains parts qi pass
                in
                let mono = Query.run ~domains ~cache:mono_cache db q base_config in
                let outs =
                  List.map2
                    (fun s c -> Query.run ~domains ~cache:c s q base_config)
                    shards shard_caches
                in
                Alcotest.(check (list int))
                  (tag ^ ": merged answers bit-identical")
                  mono.Query.answers
                  (Sh.merge_answers
                     (List.map (fun o -> o.Query.answers) outs));
                check_counters
                  (tag ^ ": merged counters bit-identical")
                  mono.Query.stats
                  (Sh.merge_stats (List.map (fun o -> o.Query.stats) outs));
                let mono_topk = Topk.run db q ~k:5 base_config in
                let merged_topk =
                  Sh.merge_topk ~k:5
                    (List.map
                       (fun s -> (Topk.run s q ~k:5 base_config).Topk.hits)
                       shards)
                in
                Alcotest.(check bool)
                  (tag ^ ": merged top-k bit-identical")
                  true
                  (merged_topk = mono_topk.Topk.hits)
              done)
            queries)
        [ 1; 2; 4 ])
    [ 1; 4 ]

(* --- served differential: router vs monolithic server, on the wire --- *)

let with_servers db shards f =
  let socks =
    List.map (fun _ -> Filename.temp_file "psst_shard_w" ".sock") shards
  in
  let msock = Filename.temp_file "psst_shard_m" ".sock" in
  let rsock = Filename.temp_file "psst_shard_r" ".sock" in
  let endpoints = List.map (fun s -> P.Unix_socket s) socks in
  let start ep sdb =
    Server.start
      { (Server.default_config ep) with Server.domains = 1 }
      sdb
  in
  let workers = List.map2 start endpoints shards in
  let mono = start (P.Unix_socket msock) db in
  let router =
    Psst_router.start
      (Psst_router.default_config ~endpoint:(P.Unix_socket rsock)
         ~workers:endpoints)
  in
  Fun.protect
    ~finally:(fun () ->
      Psst_router.stop router;
      Server.stop mono;
      List.iter Server.stop workers;
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        (msock :: rsock :: socks))
    (fun () -> f (Server.endpoint mono) (Psst_router.endpoint router))

(* A router over 1, 2, 4 and 8 shard workers vs one monolithic server,
   reply for reply: answers, counters and top-k hits. *)
let test_differential_routed () =
  let ds, db = make_db 419 20 in
  let n = Array.length ds.Generator.graphs in
  let rng = Prng.make 67 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let check_routed parts mc rc =
    List.iteri
      (fun qi q ->
        (* two passes: the second hits both sides' server caches *)
        for pass = 1 to 2 do
          let tag = Printf.sprintf "s=%d q=%d pass=%d" parts qi pass in
          let run = P.Run { id = qi; query = q; config = base_config } in
          (match (Client.rpc mc run, Client.rpc rc run) with
          | ( P.Answer { answers = ma; stats = ms; _ },
              P.Answer { answers = ra; stats = rs; _ } ) ->
            Alcotest.(check (list int))
              (tag ^ ": routed answers = monolithic") ma ra;
            Alcotest.(check bool)
              (tag ^ ": routed counters = monolithic") true (ms = rs)
          | _ -> Alcotest.failf "%s: expected two Answers" tag);
          let topk =
            P.Run_topk { id = qi; query = q; k = 4; config = base_config }
          in
          match (Client.rpc mc topk, Client.rpc rc topk) with
          | P.Topk_answer { hits = mh; _ }, P.Topk_answer { hits = rh; _ }
            ->
            Alcotest.(check bool)
              (tag ^ ": routed top-k = monolithic") true (mh = rh)
          | _ -> Alcotest.failf "%s: expected two Topk_answers" tag
        done)
      queries
  in
  List.iter
    (fun parts ->
      let shards = shards_of db (Sh.plan_even ~parts ~total:n) in
      with_servers db shards (fun mono_ep router_ep ->
          let mc = Client.connect mono_ep in
          let rc = Client.connect router_ep in
          Fun.protect
            ~finally:(fun () -> Client.close mc; Client.close rc)
            (fun () -> check_routed parts mc rc)))
    [ 1; 2; 4; 8 ]

(* --- properties --- *)

(* Shared indexed corpus for the db-backed properties: built once on
   first use, never mutated. *)
let shared = lazy (make_db 401 20)

let prop_union_is_monolithic =
  QCheck.Test.make ~name:"union of per-shard answers = monolithic set"
    ~count:8 QCheck.small_int
    (fun seed ->
      let ds, db = Lazy.force shared in
      let n = Array.length ds.Generator.graphs in
      let rng = Prng.make (seed + 7000) in
      let q, _ = Generator.extract_query rng ds ~edges:4 in
      let parts = 1 + (abs seed mod 4) in
      let mono = Query.run db q base_config in
      let merged =
        Sh.merge_answers
          (List.map
             (fun sdb -> (Query.run sdb q base_config).Query.answers)
             (shards_of db (Sh.plan_even ~parts ~total:n)))
      in
      merged = mono.Query.answers)

let prop_topk_merge_is_global =
  (* Pure merge law, with heavy ties: SSPs drawn from a 5-value grid so
     ties across shards are common. Each shard's list is its own top-k
     (sorted ssp desc, graph asc, truncated) — exactly what a worker
     returns — and the merge must reproduce the global top-k, ties
     broken by graph id. *)
  QCheck.Test.make ~name:"threshold-aware top-k merge = global top-k"
    ~count:200
    QCheck.(triple small_int (int_range 1 6) (int_range 1 8))
    (fun (seed, shards, k) ->
      let rng = Prng.make (seed + 9000) in
      let n = 1 + Prng.int rng 30 in
      let hits =
        List.init n (fun g ->
            { Topk.graph = g; ssp = float_of_int (Prng.int rng 5) /. 4. })
      in
      let order a b =
        match compare b.Topk.ssp a.Topk.ssp with
        | 0 -> compare a.Topk.graph b.Topk.graph
        | c -> c
      in
      let topk l = List.filteri (fun i _ -> i < k) (List.sort order l) in
      let by_shard =
        List.init shards (fun s ->
            topk (List.filter (fun h -> h.Topk.graph mod shards = s) hits))
      in
      Sh.merge_topk ~k by_shard = topk hits)

let with_tmp_dir f =
  let path = Filename.temp_file "psst_shard_rt" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
        (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ())
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let prop_split_roundtrips_bit_identically =
  (* split → load_all → merge → split again, same basename in a fresh
     directory: every file of the second deployment — manifest included —
     must be byte-for-byte the first one's. *)
  QCheck.Test.make ~name:"split + re-merge round-trips the manifest"
    ~count:4
    QCheck.(int_range 1 4)
    (fun parts ->
      let ds, db = Lazy.force shared in
      let n = Array.length ds.Generator.graphs in
      let plan = Sh.plan_even ~parts ~total:n in
      with_tmp_dir (fun d1 ->
          with_tmp_dir (fun d2 ->
              let p1 = Filename.concat d1 "deploy.manifest" in
              let p2 = Filename.concat d2 "deploy.manifest" in
              let m1 = Sh.split_to_files ~manifest_path:p1 db plan in
              let merged = Sh.merge (Sh.load_all ~manifest_path:p1 m1) in
              let m2 = Sh.split_to_files ~manifest_path:p2 merged plan in
              m1 = m2
              && Sh.load_manifest p1 = m1
              && read_bytes p1 = read_bytes p2
              && List.for_all
                   (fun (e : Sh.entry) ->
                     read_bytes (Filename.concat d1 e.Sh.path)
                     = read_bytes (Filename.concat d2 e.Sh.path))
                   m1.Sh.entries)))

let suite =
  [
    Alcotest.test_case "offline differential: shards x domains, cold + warm"
      `Slow test_differential_offline;
    Alcotest.test_case "served differential: router = monolithic server"
      `Slow test_differential_routed;
    QCheck_alcotest.to_alcotest prop_union_is_monolithic;
    QCheck_alcotest.to_alcotest prop_topk_merge_is_global;
    QCheck_alcotest.to_alcotest prop_split_roundtrips_bit_identically;
  ]
