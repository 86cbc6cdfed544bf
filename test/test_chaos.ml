(* Chaos harness (DESIGN.md §12): deterministic fault injection, the
   self-healing salvage loader, crash atomicity under SIGKILL, and the
   serving stack's degradation invariant — under armed faults every reply
   is (a) correct and exact, (b) correct-to-bounds and flagged degraded,
   or (c) a clean retryable error. Never a hang, a crash, or a silently
   wrong answer; with faults disarmed, everything is bit-identical to
   offline Query.run.

   Faults are process-global state: every arming test disarms in a
   Fun.protect finally so no fault leaks into the other suites. *)

module F = Psst_fault
module P = Psst_proto
module S = Psst_store
module Client = Psst_client
module Server = Psst_server
module Prng = Psst_util.Prng

let counter_delta c f =
  let before = Psst_obs.counter_value c in
  let r = f () in
  (r, Psst_obs.counter_value c - before)

let with_tmp f =
  let path = Filename.temp_file "psst_chaos" ".store" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_store_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Store_error" what
  | exception S.Store_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Store_error, got %s" what
      (Printexc.to_string e)

(* --- the fault registry itself --- *)

let fire_pattern site n =
  List.init n (fun _ -> Option.is_some (F.fire site))

let test_fault_determinism () =
  let s = F.site "chaos.unit" in
  let record seed =
    F.arm ~seed [ ("chaos.unit", F.Fail, 0.3) ];
    Fun.protect ~finally:F.disarm (fun () -> fire_pattern s 200)
  in
  let a = record 99 in
  Alcotest.(check bool) "some consultations fire" true (List.mem true a);
  Alcotest.(check bool) "some consultations pass" true (List.mem false a);
  Alcotest.(check (list bool)) "same seed, same schedule" a (record 99);
  Alcotest.(check bool) "different seed, different schedule" false
    (a = record 100);
  (* The schedule is per-site: consulting another armed site between
     consultations must not perturb it. *)
  F.arm ~seed:99
    [ ("chaos.unit", F.Fail, 0.3); ("chaos.other", F.Fail, 0.5) ];
  let interleaved =
    Fun.protect ~finally:F.disarm (fun () ->
        let other = F.site "chaos.other" in
        List.init 200 (fun _ ->
            ignore (F.fire other);
            Option.is_some (F.fire s)))
  in
  Alcotest.(check (list bool)) "independent of other sites" a interleaved

let test_disarmed_is_silent () =
  let s = F.site "chaos.unit" in
  Alcotest.(check bool) "disarmed by default" false (F.enabled ());
  for _ = 1 to 1000 do
    match F.fire s with
    | None -> ()
    | Some _ -> Alcotest.fail "disarmed site fired"
  done;
  (* inject is a no-op when disarmed *)
  F.inject s

let test_fires_are_metered () =
  let s = F.site "chaos.metered" in
  F.arm ~seed:1 [ ("chaos.metered", F.Fail, 1.) ];
  let (), fired =
    counter_delta
      (Psst_obs.counter "fault.chaos.metered")
      (fun () ->
        Fun.protect ~finally:F.disarm (fun () ->
            for _ = 1 to 7 do
              ignore (F.fire s)
            done))
  in
  Alcotest.(check int) "every firing bumps fault.<site>" 7 fired

let test_parse_plan () =
  Alcotest.(check bool) "bare fail" true
    (F.parse_plan "a.b=fail" = [ ("a.b", F.Fail, 1.) ]);
  Alcotest.(check bool) "delay with ms and prob" true
    (F.parse_plan "x=delay:25@0.5" = [ ("x", F.Delay 0.025, 0.5) ]);
  Alcotest.(check bool) "multi-entry" true
    (F.parse_plan "a=partial@0.25, b=bitflip"
    = [ ("a", F.Partial_io, 0.25); ("b", F.Bitflip, 1.) ]);
  let bad spec =
    match F.parse_plan spec with
    | _ -> Alcotest.failf "%S: expected Failure" spec
    | exception Failure _ -> ()
  in
  bad "nonsense";
  bad "a=explode";
  bad "a=fail@2";
  bad "a=delay:-5"

let test_arm_from_env () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "PSST_FAULTS" "";
      F.disarm ())
    (fun () ->
      Unix.putenv "PSST_FAULTS" "";
      Alcotest.(check bool) "empty spec does not arm" false (F.arm_from_env ());
      Unix.putenv "PSST_FAULTS" "chaos.env=fail@0.5";
      Unix.putenv "PSST_FAULT_SEED" "7";
      Alcotest.(check bool) "plan arms" true (F.arm_from_env ());
      Alcotest.(check bool) "enabled" true (F.enabled ());
      F.disarm ();
      Unix.putenv "PSST_FAULTS" "garbage spec";
      match F.arm_from_env () with
      | _ -> Alcotest.fail "malformed spec: expected Failure"
      | exception Failure _ -> ())

(* --- store under fault: atomicity, orphan cleanup, corruption refusal --- *)

let sections_a =
  [ { S.name = "alpha"; payload = "payload one" };
    { S.name = "beta"; payload = String.make 64 'b' } ]

let sections_b =
  [ { S.name = "alpha"; payload = "payload TWO" };
    { S.name = "beta"; payload = String.make 64 'B' } ]

let test_partial_write_leaves_old_intact () =
  with_tmp (fun path ->
      S.write_file path ~kind:S.Database sections_a;
      F.arm ~seed:3 [ ("store.write", F.Partial_io, 1.) ];
      (match
         Fun.protect ~finally:F.disarm (fun () ->
             S.write_file path ~kind:S.Database sections_b)
       with
      | () -> Alcotest.fail "expected Injected from a partial write"
      | exception F.Injected _ -> ());
      Alcotest.(check bool) "orphan tmp left behind" true
        (Sys.file_exists (path ^ ".tmp"));
      (* The next reader gets the OLD data and cleans the orphan. *)
      let back, cleaned =
        counter_delta (Psst_obs.counter "store.tmp_cleaned") (fun () ->
            S.read_file path ~kind:S.Database)
      in
      Alcotest.(check bool) "old sections intact" true (back = sections_a);
      Alcotest.(check int) "orphan cleanup metered" 1 cleaned;
      Alcotest.(check bool) "orphan tmp removed" false
        (Sys.file_exists (path ^ ".tmp")))

let test_bitflipped_write_is_refused_by_readers () =
  with_tmp (fun path ->
      F.arm ~seed:5 [ ("store.write", F.Bitflip, 1.) ];
      Fun.protect ~finally:F.disarm (fun () ->
          S.write_file path ~kind:S.Database sections_a);
      (* The write completed — but its checksums must now refuse it. *)
      expect_store_error "bitflipped store" (fun () ->
          S.read_file path ~kind:S.Database))

let test_read_faults_surface_cleanly () =
  with_tmp (fun path ->
      S.write_file path ~kind:S.Database sections_a;
      F.arm ~seed:8 [ ("store.read", F.Bitflip, 1.) ];
      Fun.protect ~finally:F.disarm (fun () ->
          expect_store_error "bitflipped read" (fun () ->
              S.read_file path ~kind:S.Database));
      F.arm ~seed:8 [ ("store.read", F.Partial_io, 1.) ];
      Fun.protect ~finally:F.disarm (fun () ->
          expect_store_error "truncated read" (fun () ->
              S.read_file path ~kind:S.Database));
      (* disarmed: same file reads fine — the faults were injected, not real *)
      Alcotest.(check bool) "pristine after disarm" true
        (S.read_file path ~kind:S.Database = sections_a))

(* --- self-healing PMI salvage --- *)

let fast_bounds = { Bounds.default_config with mc_samples = 400 }
let fast_smp = { Verify.default_config with tau = 0.3 }
let slow_smp = { Verify.default_config with tau = 0.05 }

let index graphs =
  Query.index_database
    ~mining:{ Selection.default_params with max_edges = 2; beta = 0.2 }
    ~bounds:fast_bounds graphs

let make_db seed n =
  let ds =
    Generator.generate
      { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
        max_vertices = 10; motif_edges = 3 }
  in
  (ds, index ds.graphs)

let base_config =
  { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Smp fast_smp }

let c_columns = Psst_obs.counter "pmi.columns_built"

let corrupt_sections path original names =
  let spans = S.section_spans original in
  let b = Bytes.of_string original in
  List.iter
    (fun name ->
      let _, start, stop = List.find (fun (n, _, _) -> n = name) spans in
      (* Midpoint of the span: inside the checksummed payload, away from
         the section framing, so exactly this one section is damaged. *)
      let pos = start + ((stop - start) / 2) in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20)))
    names;
  write_bytes path (Bytes.to_string b)

(* A damaged PMI bulk section ("pmi.flat.*") has no finer grain than the
   image, so salvage rebuilds every column — any one, two or all three of
   them damaged — at each feature's VF2 occurrences in the graphs, and the
   deterministic build makes the salvaged index re-save byte for byte.
   That holds for an index as mined, for one grown by ingest (whose new
   postings were found the same way) and for a shard slice (whose
   features were mined over the whole corpus). *)
let test_salvage_rebuilds_damaged_image () =
  let ds, built = make_db 331 24 in
  let grown =
    Query.add_graphs
      (index (Array.sub ds.Generator.graphs 0 20))
      (Array.sub ds.Generator.graphs 20 4)
  in
  let sliced = Psst_shard.sub_database built ~base:5 ~count:12 in
  List.iter
    (fun (form, db) ->
      let ng = Corpus.length db.Query.graphs in
      with_tmp (fun path ->
          Query.save_database path db;
          let pristine = read_bytes path in
          List.iter
            (fun damaged ->
              let what = form ^ ": " ^ String.concat " + " damaged in
              corrupt_sections path pristine damaged;
              expect_store_error (what ^ ": plain load refuses") (fun () ->
                  Query.load_database path);
              let salvaged_before =
                Psst_obs.counter_value (Psst_obs.counter "store.salvaged_columns")
              in
              let warned_before =
                Psst_obs.counter_value (Psst_obs.counter "warn.store.salvaged")
              in
              let salvaged, rebuilt =
                counter_delta c_columns (fun () ->
                    Query.load_database ~salvage:true path)
              in
              Alcotest.(check int) (what ^ ": every column rebuilt") ng rebuilt;
              Alcotest.(check int) (what ^ ": salvage metered") ng
                (Psst_obs.counter_value (Psst_obs.counter "store.salvaged_columns")
                - salvaged_before);
              Alcotest.(check bool) (what ^ ": salvage warning recorded") true
                (Psst_obs.counter_value (Psst_obs.counter "warn.store.salvaged")
                > warned_before);
              with_tmp (fun path2 ->
                  Query.save_database path2 salvaged;
                  Alcotest.(check bool)
                    (what ^ ": salvaged index re-saves bit-identically")
                    true
                    (read_bytes path2 = pristine)))
            [
              [ "pmi.flat.bounds" ];
              [ "pmi.flat.postings"; "pmi.flat.bounds" ];
              [ "pmi.flat.dir" ];
              [ "pmi.flat.dir"; "pmi.flat.postings"; "pmi.flat.bounds" ];
            ]))
    [ ("built", built); ("grown", grown); ("sliced", sliced) ]

let test_salvage_cannot_rebuild_metadata () =
  (* The graphs and the PMI's feature / config / fingerprint sections
     have no rebuild source: a salvage load must refuse (callers fall back
     to a full rebuild). *)
  let _, db = make_db 337 8 in
  with_tmp (fun path ->
      Query.save_database path db;
      let pristine = read_bytes path in
      List.iter
        (fun name ->
          corrupt_sections path pristine [ name ];
          expect_store_error (name ^ " is not salvageable") (fun () ->
              Query.load_database ~salvage:true path))
        [ "pmi.config"; "pmi.patterns"; "pmi.db"; "graphs" ])

(* --- degradation: budgets and verification faults, offline --- *)

(* Choose queries that leave candidates for the verifier: degradation is
   only observable when phase 3 has work to cut short. *)
let queries_with_candidates ds db config rng ~want =
  let rec go acc n =
    if List.length acc >= want || n = 0 then List.rev acc
    else
      let q, _ = Generator.extract_query rng ds ~edges:4 in
      let out = Query.run db q config in
      if out.Query.stats.prob_candidates > 0 then go ((q, out) :: acc) (n - 1)
      else go acc (n - 1)
  in
  go [] 40

let test_budget_degrades_to_superset () =
  let ds, db = make_db 311 18 in
  let config = { base_config with verifier = `Smp slow_smp } in
  let picked =
    queries_with_candidates ds db config (Prng.make 17) ~want:2
  in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      (* A budget that is already spent: every candidate degrades. *)
      let out = Query.run ~budget_ms:1e-6 db q config in
      Alcotest.(check int) "all candidates degraded"
        out.Query.stats.prob_candidates out.Query.stats.degraded_candidates;
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (Printf.sprintf "degraded answers keep true answer %d" a)
            true
            (List.mem a out.Query.answers))
        exact.Query.answers;
      (* Pruning phases are untouched by the budget. *)
      Alcotest.(check int) "same candidate count"
        exact.Query.stats.prob_candidates out.Query.stats.prob_candidates;
      (* No budget: bit-identical to the exact run. *)
      let again = Query.run db q config in
      Alcotest.(check (list int)) "no budget, no deviation"
        exact.Query.answers again.Query.answers)
    picked

let test_verify_fault_degrades_to_superset () =
  let ds, db = make_db 317 18 in
  let picked =
    queries_with_candidates ds db base_config (Prng.make 19) ~want:2
  in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  F.arm ~seed:23 [ ("verify.sample", F.Fail, 0.02) ];
  Fun.protect ~finally:F.disarm (fun () ->
      List.iter
        (fun (q, (exact : Query.outcome)) ->
          let out = Query.run db q base_config in
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "answer %d survives verify faults" a)
                true
                (List.mem a out.Query.answers))
            exact.Query.answers)
        picked);
  (* Disarmed again: answers return to bit-identical. *)
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      let out = Query.run db q base_config in
      Alcotest.(check (list int)) "disarmed, bit-identical" exact.Query.answers
        out.Query.answers)
    picked

(* --- the verification cache under chaos (DESIGN.md §13) ---

   Faulted and budget-degraded verifications must never leave residue in
   the cache (the compute callback raises or is skipped before the cache
   is consulted, so nothing degraded is stored), a warm cache absorbs
   verification faults entirely (hits draw no samples), and a poisoned
   entry is evicted and recomputed — never served. *)

let test_verify_fault_with_armed_cache () =
  let ds, db = make_db 361 18 in
  let picked =
    queries_with_candidates ds db base_config (Prng.make 47) ~want:2
  in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  (* Cold cache under faults: superset invariant, like the uncached path. *)
  let cache = Qcache.create () in
  F.arm ~seed:31 [ ("verify.sample", F.Fail, 0.02) ];
  Fun.protect ~finally:F.disarm (fun () ->
      List.iter
        (fun (q, (exact : Query.outcome)) ->
          let out = Query.run ~cache db q base_config in
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "answer %d survives faults, cache armed" a)
                true
                (List.mem a out.Query.answers))
            exact.Query.answers)
        picked);
  (* Disarmed, same cache: bit-identical — no faulted value was stored. *)
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      let out = Query.run ~cache db q base_config in
      Alcotest.(check (list int)) "disarmed + cache, bit-identical"
        exact.Query.answers out.Query.answers)
    picked;
  (* Warm cache under faults: hits draw no samples, so the fault site is
     never consulted and replies stay exact, not merely superset. *)
  F.arm ~seed:31 [ ("verify.sample", F.Fail, 1.0) ];
  Fun.protect ~finally:F.disarm (fun () ->
      List.iter
        (fun (q, (exact : Query.outcome)) ->
          let out = Query.run ~cache db q base_config in
          Alcotest.(check (list int)) "warm cache absorbs certain faults"
            exact.Query.answers out.Query.answers;
          Alcotest.(check int) "warm replies are not degraded" 0
            out.Query.stats.degraded_candidates)
        picked)

let test_budget_with_armed_cache () =
  let ds, db = make_db 367 18 in
  let config = { base_config with verifier = `Smp slow_smp } in
  let picked = queries_with_candidates ds db config (Prng.make 53) ~want:2 in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  let cache = Qcache.create () in
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      (* Spent budget, cold cache: everything degrades, superset holds. *)
      let out = Query.run ~budget_ms:1e-6 ~cache db q config in
      Alcotest.(check int) "all candidates degraded (cold cache)"
        out.Query.stats.prob_candidates out.Query.stats.degraded_candidates;
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (Printf.sprintf "budget keeps true answer %d (cache armed)" a)
            true
            (List.mem a out.Query.answers))
        exact.Query.answers;
      (* No budget, same cache: bit-identical — the degraded pass stored
         no bound-derived values. *)
      let fresh = Query.run ~cache db q config in
      Alcotest.(check (list int)) "degraded pass left no residue"
        exact.Query.answers fresh.Query.answers;
      (* Warm cache, spent budget: deadline checks precede cache lookups,
         so budget semantics are preserved — candidates still degrade. *)
      let again = Query.run ~budget_ms:1e-6 ~cache db q config in
      Alcotest.(check int) "warm cache does not bypass the budget"
        again.Query.stats.prob_candidates
        again.Query.stats.degraded_candidates)
    picked

let test_poisoned_cache_entry_evicted () =
  let ds, db = make_db 373 18 in
  let picked =
    queries_with_candidates ds db base_config (Prng.make 59) ~want:2
  in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  let cache = Qcache.create () in
  List.iter
    (fun (q, _) -> ignore (Query.run ~cache db q base_config))
    picked;
  let poisoned = Qcache.poison_ssp cache Float.nan in
  Alcotest.(check bool) "ssp entries were poisoned" true (poisoned > 0);
  let evict = Psst_obs.counter "cache.evict" in
  let warn = Psst_obs.counter "warn.cache.poisoned" in
  let evict0 = Psst_obs.counter_value evict
  and warn0 = Psst_obs.counter_value warn in
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      let out = Query.run ~cache db q base_config in
      Alcotest.(check (list int)) "poisoned entries recomputed, not served"
        exact.Query.answers out.Query.answers)
    picked;
  Alcotest.(check bool) "poisoned reads evicted" true
    (Psst_obs.counter_value evict - evict0 >= poisoned);
  Alcotest.(check bool) "poisoning warned" true
    (Psst_obs.counter_value warn - warn0 >= poisoned);
  (* The recomputed values replaced the poison: a third pass is warm and
     clean (no further warnings). *)
  let warn1 = Psst_obs.counter_value warn in
  List.iter
    (fun (q, (exact : Query.outcome)) ->
      let out = Query.run ~cache db q base_config in
      Alcotest.(check (list int)) "re-cached pass stays clean"
        exact.Query.answers out.Query.answers)
    picked;
  Alcotest.(check int) "no warnings after recompute" warn1
    (Psst_obs.counter_value warn)

(* --- the serving stack under chaos --- *)

let with_server ?(domains = 1) ?(verify_budget_ms = 0.) db f =
  let path = Filename.temp_file "psst_chaos_srv" ".sock" in
  let srv =
    Server.start
      {
        (Server.default_config (P.Unix_socket path)) with
        Server.domains;
        verify_budget_ms;
      }
      db
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv)

let with_client ?(connect_timeout_ms = 5000.) ?(call_timeout_ms = 30000.) srv f
    =
  let c =
    Client.connect ~connect_timeout_ms ~call_timeout_ms (Server.endpoint srv)
  in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let check_invariant ~what offline replies =
  List.iteri
    (fun i exact ->
      match replies.(i) with
      | P.Answer { answers; stats; _ } ->
        if stats.P.degraded then
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: degraded reply %d keeps answer %d" what i
                   a)
                true (List.mem a answers))
            exact
        else
          Alcotest.(check (list int))
            (Printf.sprintf "%s: exact reply %d is bit-identical" what i)
            exact answers
      | P.Error_reply { code; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error reply %d is retryable" what i)
          true
          (P.error_code_retryable code)
      | _ -> Alcotest.failf "%s: reply %d has unexpected kind" what i)
    offline

let test_served_chaos_invariant () =
  let ds, db = make_db 347 20 in
  let rng = Prng.make 29 in
  let queries =
    List.init 4 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline =
    List.map (fun q -> (Query.run db q base_config).Query.answers) queries
  in
  with_server db (fun srv ->
      (* Round 1, armed: byte-at-a-time socket IO on both sides plus a
         flaky verification stage. Every reply must satisfy the chaos
         invariant; the run must terminate (call timeouts bound hangs). *)
      F.arm ~seed:4242
        [
          ("proto.read", F.Partial_io, 0.25);
          ("proto.write", F.Partial_io, 0.25);
          ("server.batch", F.Fail, 0.5);
        ];
      Fun.protect ~finally:F.disarm (fun () ->
          with_client srv (fun c ->
              let replies =
                Client.run_all ~max_retries:6 ~backoff_ms:5. c queries
                  base_config
              in
              check_invariant ~what:"armed" offline replies));
      (* Round 2, disarmed: bit-identical to offline, not flagged. *)
      with_client srv (fun c ->
          let replies = Client.run_all c queries base_config in
          List.iteri
            (fun i exact ->
              match replies.(i) with
              | P.Answer { answers; stats; _ } ->
                Alcotest.(check (list int))
                  (Printf.sprintf "disarmed reply %d bit-identical" i)
                  exact answers;
                Alcotest.(check bool)
                  (Printf.sprintf "disarmed reply %d not degraded" i)
                  false stats.P.degraded
              | _ -> Alcotest.failf "disarmed reply %d: expected Answer" i)
            offline))

let test_served_budget_and_health () =
  let ds, db = make_db 353 18 in
  let config = { base_config with verifier = `Smp slow_smp } in
  let picked =
    queries_with_candidates ds db config (Prng.make 43) ~want:2
  in
  Alcotest.(check bool) "found queries with verification work" true
    (picked <> []);
  let queries = List.map fst picked in
  let offline = List.map (fun (_, o) -> o.Query.answers) picked in
  with_server ~verify_budget_ms:1e-6 db (fun srv ->
      with_client srv (fun c ->
          let h0 = Client.health c in
          Alcotest.(check bool) "uptime sane" true (h0.P.uptime_s >= 0.);
          Alcotest.(check int) "no degraded answers yet" 0
            h0.P.degraded_answers;
          let replies = Client.run_all c queries config in
          check_invariant ~what:"budgeted" offline replies;
          let degraded_replies =
            Array.to_list replies
            |> List.filter (function
                 | P.Answer { stats; _ } -> stats.P.degraded
                 | _ -> false)
            |> List.length
          in
          Alcotest.(check bool) "budget produced degraded answers" true
            (degraded_replies > 0);
          let h = Client.health c in
          Alcotest.(check int) "health counts the degraded answers"
            degraded_replies h.P.degraded_answers;
          Alcotest.(check bool) "health counts served" true
            (h.P.served > h0.P.served)))

let test_connect_timeout () =
  (* A listener whose accept queue is full drops further SYNs, so a
     connect to it hangs in SYN-sent — exactly the case the timeout
     exists for. The call must return a clean Client_error within the
     timeout instead of blocking for the kernel's minutes-long retry. *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fillers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (srv :: !fillers))
    (fun () ->
      Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen srv 1;
      let port =
        match Unix.getsockname srv with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      (* Saturate the accept queue; these are never accepted. *)
      for _ = 1 to 8 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        fillers := fd :: !fillers;
        Unix.set_nonblock fd;
        try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with
        | Unix.Unix_error
            ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
        ->
          ()
      done;
      Thread.delay 0.05;
      let t0 = Unix.gettimeofday () in
      (match
         Client.connect ~connect_timeout_ms:300.
           (P.Tcp ("127.0.0.1", port))
       with
      | c ->
        Client.close c;
        Alcotest.fail "connected past a full accept queue?"
      | exception Client.Client_error _ -> ());
      Alcotest.(check bool) "bounded connect wait" true
        (Unix.gettimeofday () -. t0 < 10.))

(* --- the router under chaos (DESIGN.md §14) ---

   Same degradation contract as a single server, applied per shard: a
   slow worker only delays, a faulted or dead worker degrades exactly its
   own shard to a flagged bounds superset when the router holds the shard
   locally, and fails the whole request with one clean retryable error
   when it does not. Top-k never degrades — a ranking with a missing
   shard would be wrong, not conservative. *)

let with_router ?(fallback = false) db parts f =
  let shards =
    List.map
      (fun (base, count) -> Psst_shard.sub_database db ~base ~count)
      parts
  in
  let socks =
    List.map (fun _ -> Filename.temp_file "psst_chaos_w" ".sock") shards
  in
  let rsock = Filename.temp_file "psst_chaos_r" ".sock" in
  let endpoints = List.map (fun s -> P.Unix_socket s) socks in
  let workers =
    List.map2
      (fun ep sdb ->
        Server.start
          { (Server.default_config ep) with Server.domains = 1 }
          sdb)
      endpoints shards
  in
  let arr = Array.of_list shards in
  let router =
    Psst_router.start
      {
        (Psst_router.default_config ~endpoint:(P.Unix_socket rsock)
           ~workers:endpoints)
        with
        Psst_router.local_fallback =
          (if fallback then
             Some
               (fun sid ->
                 if sid >= 0 && sid < Array.length arr then Some arr.(sid)
                 else None)
           else None);
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Psst_router.stop router;
      List.iter Server.stop workers;
      List.iter
        (fun s -> try Sys.remove s with Sys_error _ -> ())
        (rsock :: socks))
    (fun () -> f router (Array.of_list workers))

let test_router_chaos_scenarios () =
  let ds, db = make_db 431 16 in
  let plan = Psst_shard.plan_even ~parts:2 ~total:16 in
  let rng = Prng.make 71 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline =
    List.map (fun q -> (Query.run db q base_config).Query.answers) queries
  in
  let run_all c =
    List.mapi
      (fun i q ->
        Client.rpc c (P.Run { id = i; query = q; config = base_config }))
      queries
  in
  let check_exact what replies =
    List.iteri
      (fun i exact ->
        match List.nth replies i with
        | P.Answer { answers; stats; _ } ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: reply %d bit-identical" what i)
            exact answers;
          Alcotest.(check bool)
            (Printf.sprintf "%s: reply %d not degraded" what i)
            false stats.P.degraded
        | _ -> Alcotest.failf "%s: reply %d: expected Answer" what i)
      offline
  in
  with_router ~fallback:true db plan (fun router workers ->
      let ep = Psst_router.endpoint router in
      let c = Client.connect ~call_timeout_ms:30000. ep in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* baseline: disarmed, bit-identical *)
          check_exact "baseline" (run_all c);
          (* a slow worker only delays; answers stay exact *)
          F.arm ~seed:83 [ ("router.scatter", F.Delay 0.02, 1.) ];
          Fun.protect ~finally:F.disarm (fun () ->
              check_exact "delayed" (run_all c));
          (* a faulted worker degrades its shard to a flagged superset *)
          F.arm ~seed:89 [ ("router.scatter", F.Fail, 1.) ];
          Fun.protect ~finally:F.disarm (fun () ->
              let replies = run_all c in
              List.iteri
                (fun i exact ->
                  match List.nth replies i with
                  | P.Answer { answers; stats; _ } ->
                    Alcotest.(check bool)
                      (Printf.sprintf "faulted: reply %d flagged" i)
                      true stats.P.degraded;
                    List.iter
                      (fun a ->
                        Alcotest.(check bool)
                          (Printf.sprintf
                             "faulted: reply %d keeps answer %d" i a)
                          true (List.mem a answers))
                      exact
                  | _ -> Alcotest.failf "faulted: reply %d: expected Answer" i)
                offline);
          (* disarmed again: bit-identical, nothing lingers *)
          check_exact "disarmed" (run_all c);
          (* worker killed mid-serving, shard held locally: flagged
             superset for its shard, the other shard still exact *)
          Server.stop workers.(0);
          let b1 = match plan with _ :: (b, _) :: _ -> b | _ -> 16 in
          let replies = run_all c in
          List.iteri
            (fun i exact ->
              match List.nth replies i with
              | P.Answer { answers; stats; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "killed: reply %d flagged" i)
                  true stats.P.degraded;
                List.iter
                  (fun a ->
                    Alcotest.(check bool)
                      (Printf.sprintf "killed: reply %d keeps answer %d" i a)
                      true (List.mem a answers))
                  exact;
                Alcotest.(check (list int))
                  (Printf.sprintf "killed: reply %d healthy shard exact" i)
                  (List.filter (fun g -> g >= b1) exact)
                  (List.filter (fun g -> g >= b1) answers)
              | _ -> Alcotest.failf "killed: reply %d: expected Answer" i)
            offline;
          (* top-k never falls back to bounds: clean retryable error *)
          match
            Client.rpc c
              (P.Run_topk
                 { id = 9; query = List.hd queries; k = 3;
                   config = base_config })
          with
          | P.Error_reply { code; _ } ->
            Alcotest.(check bool) "top-k with a dead worker is retryable"
              true
              (P.error_code_retryable code)
          | _ -> Alcotest.fail "top-k with a dead worker: expected error"))

let test_router_dead_worker_without_fallback () =
  let ds, db = make_db 433 16 in
  let plan = Psst_shard.plan_even ~parts:2 ~total:16 in
  let q, _ = Generator.extract_query (Prng.make 73) ds ~edges:4 in
  with_router ~fallback:false db plan (fun router workers ->
      Server.stop workers.(1);
      let c =
        Client.connect ~call_timeout_ms:30000. (Psst_router.endpoint router)
      in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match
             Client.rpc c (P.Run { id = 0; query = q; config = base_config })
           with
          | P.Error_reply { code; _ } ->
            Alcotest.(check bool) "dead shard, no fallback: retryable" true
              (P.error_code_retryable code)
          | _ -> Alcotest.fail "dead shard, no fallback: expected error");
          (* the healthy worker is untouched: a fresh request still errors
             (whole request, not a silent partial answer) *)
          match
            Client.rpc c
              (P.Run_topk { id = 1; query = q; k = 2; config = base_config })
          with
          | P.Error_reply { code; _ } ->
            Alcotest.(check bool) "dead shard top-k: retryable" true
              (P.error_code_retryable code)
          | _ -> Alcotest.fail "dead shard top-k: expected error"))

(* --- crash atomicity: SIGKILL a child mid-write --- *)

let exe =
  let candidates =
    [ "../bin/psst.exe"; "_build/default/bin/psst.exe"; "bin/psst.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/psst.exe"

let run_child ?(env = [||]) args =
  (* Drop any PSST_FAULTS* the test process itself carries (putenv in
     test_arm_from_env): with duplicate entries the child's getenv sees
     the FIRST one, which would shadow the plan passed in [env]. *)
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 11 && String.sub kv 0 11 = "PSST_FAULTS")
           && not
                (String.length kv >= 15
                && String.sub kv 0 15 = "PSST_FAULT_SEED"))
    |> Array.of_list
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      Unix.create_process_env exe
        (Array.append [| exe |] args)
        (Array.append inherited env)
        devnull devnull devnull)

let test_sigkill_mid_write () =
  with_tmp (fun path ->
      (* A pristine index written by a clean child run. *)
      let pid =
        run_child [| "index"; "-n"; "10"; "--seed"; "5"; "-o"; path |]
      in
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "clean index run failed");
      let pristine = read_bytes path in
      (* A second run, same output path, with a 5 s delay injected into the
         middle of store.write: the tmp file sits half-flushed while the
         child sleeps — SIGKILL it there. *)
      let pid =
        run_child
          ~env:
            [| "PSST_FAULTS=store.write=delay:5000"; "PSST_FAULT_SEED=1" |]
          [| "index"; "-n"; "10"; "--seed"; "6"; "-o"; path |]
      in
      let rec await_tmp n =
        if Sys.file_exists (path ^ ".tmp") then true
        else if n = 0 then false
        else begin
          Thread.delay 0.05;
          await_tmp (n - 1)
        end
      in
      let caught_mid_write = await_tmp 1200 (* up to 60 s *) in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.(check bool) "child was killed inside the write window" true
        caught_mid_write;
      Alcotest.(check bool) "old index bytes intact after SIGKILL" true
        (read_bytes path = pristine);
      Alcotest.(check bool) "orphan tmp left by the kill" true
        (Sys.file_exists (path ^ ".tmp"));
      (* The next open serves the old index and cleans the orphan. *)
      let db = Query.load_database path in
      Alcotest.(check int) "old index loads" 10 (Corpus.length db.Query.graphs);
      Alcotest.(check bool) "orphan tmp cleaned on open" false
        (Sys.file_exists (path ^ ".tmp")))

let test_sigkill_mid_split () =
  (* Crash atomicity of a deployment: every file `psst shard` writes goes
     through the atomic tmp+rename store path and the manifest is written
     last, so a SIGKILL anywhere mid-split leaves the previous deployment
     fully intact and loadable — never a manifest naming half-written
     shard files. *)
  let dir = Filename.temp_file "psst_chaos_split" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let manifest = Filename.concat dir "deploy.manifest" in
      let pid =
        run_child
          [| "shard"; "-n"; "10"; "--seed"; "5"; "-o"; manifest;
             "--shards"; "2" |]
      in
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "clean shard split failed");
      let m = Psst_shard.load_manifest manifest in
      let files =
        manifest
        :: List.map (fun e -> Filename.concat dir e.Psst_shard.path)
             m.Psst_shard.entries
      in
      let pristine = List.map read_bytes files in
      (* Re-split the same deployment path from a different corpus, with a
         5 s delay injected into the middle of every store write: the
         child sits on a half-flushed .tmp — SIGKILL it there. *)
      let pid =
        run_child
          ~env:
            [| "PSST_FAULTS=store.write=delay:5000"; "PSST_FAULT_SEED=1" |]
          [| "shard"; "-n"; "12"; "--seed"; "6"; "-o"; manifest;
             "--shards"; "2" |]
      in
      let tmp_present () =
        Array.exists
          (fun e -> Filename.check_suffix e ".tmp")
          (Sys.readdir dir)
      in
      let rec await n =
        if tmp_present () then true
        else if n = 0 then false
        else begin
          Thread.delay 0.05;
          await (n - 1)
        end
      in
      let caught = await 1200 (* up to 60 s *) in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.(check bool) "child was killed inside a write window" true
        caught;
      List.iter2
        (fun path bytes ->
          Alcotest.(check bool)
            (Filename.basename path ^ " intact after SIGKILL")
            true
            (read_bytes path = bytes))
        files pristine;
      (* The old deployment still loads and reassembles. *)
      let m' = Psst_shard.load_manifest manifest in
      Alcotest.(check bool) "manifest unchanged" true (m' = m);
      let db =
        Psst_shard.merge (Psst_shard.load_all ~manifest_path:manifest m')
      in
      Alcotest.(check int) "old deployment reassembles" 10
        (Corpus.length db.Query.graphs))

(* --- ingest under faults (DESIGN.md §16) --- *)

let make_batch seed n =
  (Generator.generate { Generator.default_params with num_graphs = n; seed })
    .Generator.graphs

let with_ingest_server ~chain db f =
  let path = Filename.temp_file "psst_chaos_ing" ".sock" in
  let srv = Server.start ~chain (Server.default_config (P.Unix_socket path)) db in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv)

(* Armed store.write faults while ingesting: the persist fails before
   the epoch swap, so the batch is rejected with a clean retryable
   error, the served database and the base store are unchanged, queries
   keep answering exactly against the old epoch, and after disarming the
   same batch applies — the store plus chain stay loadable throughout. *)
let test_ingest_store_faults_reject_cleanly () =
  with_tmp @@ fun path ->
  let ds, db = make_db 521 12 in
  Query.save_database path db;
  let base_bytes = read_bytes path in
  let db, chain = Psst_ingest.load path in
  let batch = make_batch 977 5 in
  let rng = Prng.make 71 in
  let q = fst (Generator.extract_query rng ds ~edges:4) in
  let exact0 = Query.run db q base_config in
  with_ingest_server ~chain db (fun srv ->
      with_client srv (fun c ->
          List.iter
            (fun (label, plan) ->
              F.arm ~seed:43 [ ("store.write", plan, 1.) ];
              Fun.protect ~finally:F.disarm (fun () ->
                  (match Client.add_graphs c batch with
                  | Error (code, _) ->
                    Alcotest.(check bool)
                      (label ^ ": rejection is retryable") true
                      (P.error_code_retryable code)
                  | Ok _ ->
                    Alcotest.failf "%s: persist fault must reject the batch"
                      label);
                  Alcotest.(check int) (label ^ ": epoch unchanged") 0
                    (Server.epoch srv);
                  Alcotest.(check bool) (label ^ ": no delta file") false
                    (Sys.file_exists (Psst_ingest.delta_path path 1));
                  (* Queries during the fault: exact, against the old
                     epoch. *)
                  match Client.run_all c [ q ] base_config with
                  | [| P.Answer { answers; _ } |] ->
                    Alcotest.(check (list int))
                      (label ^ ": answers exact under fault")
                      exact0.Query.answers answers
                  | _ -> Alcotest.failf "%s: expected Answer" label))
            [ ("fail", F.Fail); ("partial", F.Partial_io) ];
          (* Disarmed: the same batch applies and persists. *)
          (match Client.add_graphs c batch with
          | Ok r ->
            Alcotest.(check int) "applies after disarm" 1 r.Psst_ingest.epoch
          | Error _ -> Alcotest.fail "batch must apply once disarmed");
          Alcotest.(check bool) "delta exists after disarm" true
            (Sys.file_exists (Psst_ingest.delta_path path 1))));
  Alcotest.(check bool) "base store never rewritten" true
    (read_bytes path = base_bytes);
  (* The chain is loadable and reconstructs base + the applied batch. *)
  let reloaded, _ = Psst_ingest.load path in
  Alcotest.(check int) "reload = base + applied batch" 17
    (Corpus.length reloaded.Query.graphs);
  ignore (Psst_ingest.clear_deltas path)

(* Armed server.batch faults while epochs advance: ingest still applies
   (it does not run through the batcher), and every query reply is
   exact or a flagged superset of the post-ingest offline answers —
   never silently wrong. Disarmed, replies return to bit-identical. *)
let test_ingest_batch_faults_degrade () =
  let ds, db0 = make_db 523 15 in
  let batch = make_batch 983 6 in
  let db1 = Query.add_graphs db0 batch in
  let rng = Prng.make 73 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let offline1 = List.map (fun q -> Query.run db1 q base_config) queries in
  with_server db0 (fun srv ->
      with_client srv (fun c ->
          F.arm ~seed:47 [ ("server.batch", F.Fail, 1.) ];
          Fun.protect ~finally:F.disarm (fun () ->
              (match Client.add_graphs c batch with
              | Ok r ->
                Alcotest.(check int) "ingest applies under batch faults" 1
                  r.Psst_ingest.epoch
              | Error _ -> Alcotest.fail "ingest must not consult server.batch");
              let replies = Client.run_all c queries base_config in
              List.iteri
                (fun i (exact : Query.outcome) ->
                  match replies.(i) with
                  | P.Answer { answers; stats; _ } ->
                    List.iter
                      (fun a ->
                        Alcotest.(check bool)
                          (Printf.sprintf
                             "query %d keeps true answer %d under faults" i a)
                          true (List.mem a answers))
                      exact.Query.answers;
                    if not stats.P.degraded then
                      Alcotest.(check (list int))
                        (Printf.sprintf "query %d unflagged must be exact" i)
                        exact.Query.answers answers
                  | P.Error_reply { code; _ } ->
                    Alcotest.(check bool)
                      (Printf.sprintf "query %d error is retryable" i)
                      true (P.error_code_retryable code)
                  | _ -> Alcotest.failf "query %d: unexpected reply kind" i)
                offline1);
          (* Disarmed: bit-identical to offline on the ingested epoch. *)
          let replies = Client.run_all c queries base_config in
          List.iteri
            (fun i (exact : Query.outcome) ->
              match replies.(i) with
              | P.Answer { answers; _ } ->
                Alcotest.(check (list int))
                  (Printf.sprintf "query %d bit-identical after disarm" i)
                  exact.Query.answers answers
              | _ -> Alcotest.failf "query %d: expected Answer" i)
            offline1))

(* --- replication under chaos (DESIGN.md §17) ---

   The headline failover invariant: with the standby's stream and
   persist faulted (bitflipped frames, partial writes) and the primary
   SIGKILLed, every batch the primary ever acknowledged is on the
   promoted survivor, which then serves writable — bit-identical to an
   offline replay of its chain. During the armed window every ingest
   ack is either a success or a clean retryable error, and a retry with
   the same idempotency token converges without double-ingesting. *)

let await_connectable path ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect ~connect_timeout_ms:200. (P.Unix_socket path) with
    | c ->
      Client.close c;
      true
    | exception _ ->
      if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.05;
        go ()
      end
  in
  go ()

let wait_for ?(timeout = 30.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_replication_chaos_failover () =
  let dir = Filename.temp_file "psst_chaos_rep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let ppath = Filename.concat dir "primary.psst" in
  let spath = Filename.concat dir "standby.psst" in
  let psock = Filename.concat dir "primary.sock" in
  let ssock = Filename.concat dir "standby.sock" in
  let child = ref None in
  let cleanup () =
    (match !child with
    | Some pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | None -> ());
    F.disarm ();
    Array.iter
      (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* The primary's index is built by the CLI itself (the serve child
     validates the store against its own corpus — an index built with
     test-local mining parameters would be rejected and rebuilt). *)
  let pid = run_child [| "index"; "-n"; "12"; "--seed"; "541"; "-o"; ppath |] in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "index build failed");
  let ds =
    Generator.generate
      { Generator.default_params with num_graphs = 12; seed = 541 }
  in
  write_bytes spath (read_bytes ppath);
  (* The primary is a real child process serving the base index; its
     delta chain lives next to [ppath]. *)
  child :=
    Some
      (run_child
         [| "serve"; "--index"; ppath; "-n"; "12"; "--seed"; "541";
            "--socket"; psock |]);
  Alcotest.(check bool) "primary came up" true
    (await_connectable psock ~timeout:60.);
  let sdb, schain = Psst_ingest.load spath in
  let ssrv =
    Server.start ~chain:schain
      {
        (Server.default_config (P.Unix_socket ssock)) with
        Server.writable = false;
      }
      sdb
  in
  Fun.protect ~finally:(fun () -> Server.stop ssrv) @@ fun () ->
  (* Chaos on the standby's receive path and persist path: frames get
     bitflipped on the wire (validation refuses them, the connection
     drops and re-subscribes) and the verbatim persist suffers partial
     writes (the store discipline refuses the torn temp file). *)
  F.arm ~seed:97
    [ ("replica.stream", F.Bitflip, 0.25); ("store.write", F.Partial_io, 0.2) ];
  let st =
    Psst_replica.start_standby ~backoff_ms:5. ~max_backoff_ms:100.
      ~primary:(P.Unix_socket psock) ~chain:schain (Server.snapshot_ref ssrv)
  in
  let promoted = ref false in
  Fun.protect
    ~finally:(fun () -> if not !promoted then Psst_replica.stop_standby st)
  @@ fun () ->
  let batches = List.init 4 (fun i -> make_batch (1103 + i) 3) in
  let c = Client.connect ~call_timeout_ms:30000. (P.Unix_socket psock) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      List.iteri
        (fun i batch ->
          let token = Printf.sprintf "chaos-batch-%d" i in
          let rec attempt n =
            if n = 0 then
              Alcotest.failf "batch %d never acknowledged under chaos" i
            else
              match Client.add_graphs ~token c batch with
              | Ok r ->
                (* Dedup across retries: the ack names one ingestion of
                   this batch, whatever attempt it acknowledged. *)
                Alcotest.(check int)
                  (Printf.sprintf "batch %d acked exactly once" i)
                  (i + 1) r.Psst_ingest.epoch
              | Error (code, _) ->
                Alcotest.(check bool)
                  (Printf.sprintf "batch %d rejection is retryable" i)
                  true
                  (P.error_code_retryable code);
                Thread.delay 0.05;
                attempt (n - 1)
          in
          attempt 80)
        batches);
  (* Every acked batch reaches the survivor's disk (the ack gate held
     whenever the subscriber was live; reconnects replay the rest). *)
  wait_for "standby convergence" (fun () -> Psst_replica.applied_seq st = 4);
  (* The primary dies without warning, mid-deployment. *)
  (match !child with
  | Some pid ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    child := None
  | None -> assert false);
  F.disarm ();
  Psst_replica.promote st ssrv;
  promoted := true;
  Alcotest.(check bool) "survivor is writable" true (Server.writable ssrv);
  (* The survivor accepts the write load where the primary left off. *)
  let extra = make_batch 1201 3 in
  (let c = Client.connect (P.Unix_socket ssock) in
   Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
       match Client.add_graphs c extra with
       | Ok r ->
         Alcotest.(check int) "post-promotion epoch" 5 r.Psst_ingest.epoch
       | Error (_, msg) -> Alcotest.failf "post-promotion ingest failed: %s" msg));
  (* No acked batch lost: an offline replay of the survivor's chain
     holds the base corpus, all four acked batches and the
     post-promotion one, and the promoted server answers bit-identically
     to it — the monolithic offline reference. *)
  let offline_db, offline_chain = Psst_ingest.load spath in
  Alcotest.(check int) "survivor chain replays every delta" 6
    offline_chain.Psst_ingest.next_seq;
  Alcotest.(check int) "no acked batch lost"
    (12 + (4 * 3) + 3)
    (Corpus.length offline_db.Query.graphs);
  let rng = Prng.make 79 in
  let queries =
    List.init 3 (fun _ -> fst (Generator.extract_query rng ds ~edges:4))
  in
  let c = Client.connect (P.Unix_socket ssock) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      List.iteri
        (fun i q ->
          let exact = Query.run offline_db q base_config in
          match Client.rpc c (P.Run { id = i; query = q; config = base_config })
          with
          | P.Answer { answers; stats; _ } ->
            Alcotest.(check (list int))
              (Printf.sprintf "promoted reply %d bit-identical to offline" i)
              exact.Query.answers answers;
            Alcotest.(check bool)
              (Printf.sprintf "promoted reply %d not degraded" i)
              false stats.P.degraded
          | _ -> Alcotest.failf "promoted reply %d: expected Answer" i)
        queries)

let suite =
  [
    Alcotest.test_case "fault schedules are deterministic" `Quick
      test_fault_determinism;
    Alcotest.test_case "disarmed sites never fire" `Quick
      test_disarmed_is_silent;
    Alcotest.test_case "firings are metered" `Quick test_fires_are_metered;
    Alcotest.test_case "PSST_FAULTS syntax" `Quick test_parse_plan;
    Alcotest.test_case "arming from the environment" `Quick test_arm_from_env;
    Alcotest.test_case "partial write leaves old file intact" `Quick
      test_partial_write_leaves_old_intact;
    Alcotest.test_case "bitflipped write refused by readers" `Quick
      test_bitflipped_write_is_refused_by_readers;
    Alcotest.test_case "read faults surface as Store_error" `Quick
      test_read_faults_surface_cleanly;
    Alcotest.test_case "salvage rebuilds a damaged image" `Slow
      test_salvage_rebuilds_damaged_image;
    Alcotest.test_case "metadata sections are not salvageable" `Quick
      test_salvage_cannot_rebuild_metadata;
    Alcotest.test_case "budget degrades to a flagged superset" `Slow
      test_budget_degrades_to_superset;
    Alcotest.test_case "verify faults degrade to a superset" `Slow
      test_verify_fault_degrades_to_superset;
    Alcotest.test_case "verify faults with armed cache" `Slow
      test_verify_fault_with_armed_cache;
    Alcotest.test_case "budget with armed cache" `Slow
      test_budget_with_armed_cache;
    Alcotest.test_case "poisoned cache entry evicted, not served" `Slow
      test_poisoned_cache_entry_evicted;
    Alcotest.test_case "served chaos invariant" `Slow
      test_served_chaos_invariant;
    Alcotest.test_case "served budget + health endpoint" `Slow
      test_served_budget_and_health;
    Alcotest.test_case "connect timeout is bounded" `Quick
      test_connect_timeout;
    Alcotest.test_case "router: delay, fault, kill, disarm" `Slow
      test_router_chaos_scenarios;
    Alcotest.test_case "router: dead shard without fallback" `Slow
      test_router_dead_worker_without_fallback;
    Alcotest.test_case "ingest store faults reject cleanly" `Slow
      test_ingest_store_faults_reject_cleanly;
    Alcotest.test_case "ingest under batch faults degrades, never lies" `Slow
      test_ingest_batch_faults_degrade;
    Alcotest.test_case "SIGKILL mid-write keeps the old index" `Slow
      test_sigkill_mid_write;
    Alcotest.test_case "SIGKILL mid-split keeps the old deployment" `Slow
      test_sigkill_mid_split;
    Alcotest.test_case "replication failover loses no acked batch" `Slow
      test_replication_chaos_failover;
  ]
