module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

type config = { tau : float; xi : float; emb_cap : int; adaptive : bool }

let default_config = { tau = 0.1; xi = 0.05; emb_cap = 64; adaptive = false }

let num_samples c =
  int_of_float (ceil (4. *. log (2. /. c.xi) /. (c.tau *. c.tau)))

let embedding_sets ?(config = default_config) g relaxed =
  let gc = Pgraph.skeleton g in
  let m = Lgraph.num_edges gc in
  let seen = Hashtbl.create 64 in
  let sets = ref [] in
  List.iter
    (fun rq ->
      if Lgraph.num_edges rq = 0 then begin
        (* Empty relaxation: matches every world. *)
        let empty = Bitset.create m in
        let key = Bitset.elements empty in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          sets := empty :: !sets
        end
      end
      else
        List.iter
          (fun e ->
            let key = Bitset.elements e.Embedding.edges in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              sets := e.Embedding.edges :: !sets
            end)
          (Vf2.distinct_embeddings ~cap:config.emb_cap rq gc))
    relaxed;
  Exact.minimal_antichain !sets

let m_exact_calls = Psst_obs.counter "verify.exact_calls"
let m_smp_calls = Psst_obs.counter "verify.smp_calls"
let m_smp_samples = Psst_obs.counter "verify.smp_samples"
let m_early_stop = Psst_obs.counter "verify.early_stop"

(* Chaos site inside the Karp–Luby sampling loop (DESIGN.md §12): a Fail
   plan aborts the candidate's verification with Psst_fault.Injected —
   which Query.run catches and degrades to a bounds answer — and a Delay
   plan slows sampling down enough to trip verification budgets. *)
let fault_sample = Psst_fault.site "verify.sample"

(* Per-call estimator variance v^2 * p(1-p)/n of the Karp-Luby mean;
   the registry mean over a workload is the Fig 10-style noise figure. *)
let a_smp_variance = Psst_obs.accumulator "verify.smp_variance"

let exact_with_sets g sets =
  Psst_obs.incr m_exact_calls;
  match sets with [] -> 0. | sets -> Exact.prob_any_present g sets

let exact ?(config = default_config) g relaxed =
  exact_with_sets g (embedding_sets ~config g relaxed)

let exact_naive ?(config = default_config) g relaxed =
  (* No early return on an empty embedding set: the index-free competitor
     pays the full world enumeration either way. *)
  Exact.prob_any_present_naive g (embedding_sets ~config g relaxed)

(* The seed-independent part of one SMP run: the uncertain-edge event
   antichain, the calibrated junction tree per event, and the exact event
   probabilities. A [smp_prep] is immutable and safe to share across
   domains and across queries (Qcache keys it per (query presentation,
   graph, emb_cap)). *)
type smp_prep =
  | S_trivial of float
  | S_run of {
      usets : Bitset.t array;
      probs : float array;
      v : float;
      cals : Jtree.calibrated array;
      jt : Jtree.t;
    }

let smp_prepare g sets =
  match sets with
  | [] -> S_trivial 0.
  | _ ->
    let certain =
      Bitset.of_list (Lgraph.num_edges (Pgraph.skeleton g)) (Pgraph.certain_edges g)
    in
    (* Work over uncertain edges only; a set with none is always present. *)
    let usets = List.map (fun s -> Bitset.diff s certain) sets in
    if List.exists Bitset.is_empty usets then S_trivial 1.
    else begin
      let usets = Array.of_list (Exact.minimal_antichain usets) in
      let jt = Pgraph.jtree g in
      let cals =
        Array.map
          (fun s ->
            Jtree.calibrate jt (List.map (fun e -> (e, true)) (Bitset.elements s)))
          usets
      in
      let probs = Array.map Jtree.calibrated_prob cals in
      let v = Array.fold_left ( +. ) 0. probs in
      if v <= 0. then S_trivial 0. else S_run { usets; probs; v; cals; jt }
    end

type smp_result = { value : float; samples : int; early_stopped : bool }

(* Early stopping checks on a geometric schedule (32, 64, 128, ...); the
   Hoeffding half-width uses xi / 32 so a union bound over every possible
   checkpoint keeps the overall failure probability at xi. *)
let adaptive_first_check = 32
let adaptive_xi_slices = 32.

exception Stop_sampling

let smp_run ?(config = default_config) ?stop_epsilon rng prep =
  Psst_obs.incr m_smp_calls;
  match prep with
  | S_trivial x -> { value = x; samples = 0; early_stopped = false }
  | S_run { usets; probs; v; cals; jt } ->
    let n_max = num_samples config in
    let log_term = log (2. *. adaptive_xi_slices /. config.xi) in
    let next_check = ref adaptive_first_check in
    let cnt = ref 0 in
    let n_used = ref n_max in
    let early = ref false in
    (try
       for s = 1 to n_max do
         Psst_fault.inject fault_sample;
         let i = Prng.categorical rng probs in
         (match Jtree.sample_calibrated rng jt cals.(i) with
         | None -> () (* zero-probability event: never drawn in theory *)
         | Some (lookup, _) ->
           let earlier_fires =
             let rec go j =
               j < i
               && (Bitset.fold (fun e acc -> acc && lookup e) usets.(j) true
                  || go (j + 1))
             in
             go 0
           in
           if not earlier_fires then incr cnt);
         if config.adaptive && s >= !next_check && s < n_max then begin
           next_check := 2 * !next_check;
           let est = v *. float_of_int !cnt /. float_of_int s in
           let hw = v *. sqrt (log_term /. (2. *. float_of_int s)) in
           (* Precision is relative to the normaliser [v], like the fixed
              budget's guarantee (|est - p| <= O(v * tau) at n_max): an
              absolute [hw <= tau] test would let small-v candidates stop
              with a looser estimate than the non-adaptive path delivers. *)
           let precision_reached = hw <= config.tau *. v in
           let decision_clear =
             match stop_epsilon with
             | Some eps -> est +. hw < eps || est -. hw >= eps
             | None -> false
           in
           if precision_reached || decision_clear then begin
             n_used := s;
             early := true;
             raise Stop_sampling
           end
         end
       done
     with Stop_sampling -> ());
    let n = !n_used in
    Psst_obs.add m_smp_samples n;
    if !early then Psst_obs.incr m_early_stop;
    (let p_hat = float_of_int !cnt /. float_of_int n in
     Psst_obs.record a_smp_variance
       (v *. v *. p_hat *. (1. -. p_hat) /. float_of_int n));
    {
      value = Float.min 1. (v *. float_of_int !cnt /. float_of_int n);
      samples = n;
      early_stopped = !early;
    }

let smp_info ?(config = default_config) ?stop_epsilon rng g relaxed =
  smp_run ~config ?stop_epsilon rng (smp_prepare g (embedding_sets ~config g relaxed))

let smp ?(config = default_config) rng g relaxed =
  (smp_info ~config rng g relaxed).value
