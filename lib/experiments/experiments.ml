module Prng = Psst_util.Prng
module Timer = Psst_util.Timer
module Stats = Psst_util.Stats

type scale = { db_size : int; queries_per_point : int; seed : int }

let default_scale = { db_size = 120; queries_per_point = 8; seed = 2012 }

(* Scaled counterparts of the paper's defaults (§6): ε = 0.5, δ = 4 -> 2,
   query size 150 -> 8 edges, feature params 0.15, maxL 150 -> 3 edges. *)
let default_epsilon = 0.5
let default_delta = 2
let default_qsize = 8

(* Graphs are kept at <= ~20 edges so the paper's index-free Exact
   competitor (2^m possible worlds) terminates; organisms share a
   substantial motif core so the Fig 14 classification experiment is
   non-degenerate. *)
let dataset_params scale =
  {
    Generator.default_params with
    num_graphs = scale.db_size;
    num_organisms = 5;
    min_vertices = 9;
    max_vertices = 12;
    extra_edge_ratio = 0.2;
    motif_edges = 8;
    (* a rich label alphabet keeps cross-organism structural collisions
       rare, so the Fig 14 contrast is driven by the probability models *)
    num_vertex_labels = 10;
    num_edge_labels = 3;
    foreign_motif_prob = 0.5;
    seed = scale.seed;
  }

let mining_params = { Selection.default_params with max_edges = 3 }

(* Corpus for the feature-generation study (Fig 12 and the SIPBound arms):
   a poorer label alphabet gives the miner a rich frequent-pattern space,
   so the maxL / alpha / beta / gamma knobs actually bite. *)
let dataset_params_mining scale =
  { (dataset_params scale) with num_vertex_labels = 5; num_edge_labels = 2 }

let make_dataset scale = Generator.generate (dataset_params scale)

let make_db ?(mining = mining_params) ?(bounds = Bounds.default_config) graphs =
  Query.index_database ~mining ~bounds graphs

let make_queries scale ds ~edges =
  let rng = Prng.make (scale.seed + 777) in
  List.init scale.queries_per_point (fun _ -> Generator.extract_query rng ds ~edges)

let pct x = 100. *. x

let hr ppf title =
  Format.fprintf ppf "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Fig 9: verification — Exact vs SMP runtime and SMP quality vs query
   size.                                                               *)
(* ------------------------------------------------------------------ *)

let fig9 ?(scale = default_scale) ppf =
  hr ppf "Figure 9: verification (Exact vs SMP) vs query size";
  let ds = make_dataset scale in
  let db = make_db ds.graphs in
  (* Exact is the paper's index-free competitor: full possible-world
     enumeration. Its per-candidate cost is timed on a few pairs per query
     size; SMP quality is judged against the exact SSP values. *)
  let naive_pairs_per_size = 3 in
  Format.fprintf ppf
    "@[<v>%-6s %12s %12s %10s %10s %8s@]@." "size" "Exact(ms)" "SMP(ms)"
    "prec(%)" "recall(%)" "pairs";
  List.iter
    (fun qsize ->
      let queries = make_queries scale ds ~edges:qsize in
      let t_exact = ref [] and t_smp = ref [] in
      let precs = ref [] and recs = ref [] in
      let pairs = ref 0 in
      List.iter
        (fun (q, _) ->
          let relaxed, _ = Relax.relaxed_set q ~delta:default_delta in
          let cands =
            Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
              ~delta:default_delta
          in
          let exact_answers = ref [] and smp_answers = ref [] in
          List.iter
            (fun gi ->
              let g = Corpus.get db.Query.graphs gi in
              (try
                 let v = Verify.exact g relaxed in
                 if v >= default_epsilon then exact_answers := gi :: !exact_answers;
                 incr pairs;
                 if List.length !t_exact < naive_pairs_per_size then begin
                   let _, t = Timer.time (fun () -> Verify.exact_naive g relaxed) in
                   t_exact := (t *. 1000.) :: !t_exact
                 end;
                 let rng = Prng.make (gi + 31) in
                 let v', t' = Timer.time (fun () -> Verify.smp rng g relaxed) in
                 t_smp := (t' *. 1000.) :: !t_smp;
                 if v' >= default_epsilon then smp_answers := gi :: !smp_answers
               with Failure _ -> ()))
            cands;
          let p, r =
            Stats.precision_recall ~returned:!smp_answers ~truth:!exact_answers
          in
          precs := p :: !precs;
          recs := r :: !recs)
        queries;
      Format.fprintf ppf "@[<v>q%-5d %12.3f %12.3f %10.1f %10.1f %8d@]@." qsize
        (Stats.mean !t_exact) (Stats.mean !t_smp) (pct (Stats.mean !precs))
        (pct (Stats.mean !recs)) !pairs)
    [ 4; 6; 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* Fig 10: candidate size / pruning time vs probability threshold.     *)
(* ------------------------------------------------------------------ *)

let prune_stats ~mode ~certified pmi structural_cands relaxed epsilon =
  let rng = Prng.make 11 in
  let undecided = ref 0 in
  let t =
    Timer.time_only (fun () ->
        let prepared = Pruning.prepare pmi ~relaxed in
        List.iter
          (fun gi ->
            let r =
              Pruning.evaluate ~certified rng pmi prepared ~graph:gi ~epsilon
                ~mode
            in
            match r.Pruning.decision with
            | `Candidate -> incr undecided
            | `Accepted | `Pruned -> ())
          structural_cands)
  in
  (!undecided, t)

let fig10 ?(scale = default_scale) ppf =
  hr ppf "Figure 10: candidates & pruning time vs probability threshold";
  let ds = make_dataset scale in
  let db = make_db ds.graphs in
  let queries = make_queries scale ds ~edges:default_qsize in
  Format.fprintf ppf "@[<v>%-6s %10s %10s %14s %12s %12s %16s@]@." "eps"
    "Structure" "SSPBound" "OPT-SSPBound" "t_struct(s)" "t_ssp(s)" "t_opt-ssp(s)";
  List.iter
    (fun epsilon ->
      let acc = Array.make 3 [] and times = Array.make 3 [] in
      List.iter
        (fun (q, _) ->
          let relaxed, _ = Relax.relaxed_set q ~delta:default_delta in
          let cands, t_struct =
            Timer.time (fun () ->
                Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
                  ~delta:default_delta)
          in
          let n_rand, t_rand =
            prune_stats ~mode:Pruning.Random_pick ~certified:false db.Query.pmi
              cands relaxed epsilon
          in
          let n_opt, t_opt =
            prune_stats ~mode:Pruning.Optimized ~certified:false db.Query.pmi
              cands relaxed epsilon
          in
          acc.(0) <- float_of_int (List.length cands) :: acc.(0);
          acc.(1) <- float_of_int n_rand :: acc.(1);
          acc.(2) <- float_of_int n_opt :: acc.(2);
          times.(0) <- t_struct :: times.(0);
          times.(1) <- t_rand :: times.(1);
          times.(2) <- t_opt :: times.(2))
        queries;
      Format.fprintf ppf "@[<v>%-6.1f %10.1f %10.1f %14.1f %12.4f %12.4f %16.4f@]@."
        epsilon (Stats.mean acc.(0)) (Stats.mean acc.(1)) (Stats.mean acc.(2))
        (Stats.mean times.(0)) (Stats.mean times.(1)) (Stats.mean times.(2)))
    [ 0.3; 0.4; 0.5; 0.6; 0.7 ]

(* ------------------------------------------------------------------ *)
(* Fig 11: candidate size / pruning time vs distance threshold.        *)
(* ------------------------------------------------------------------ *)

let fig11 ?(scale = default_scale) ppf =
  hr ppf "Figure 11: candidates & pruning time vs subgraph distance threshold";
  let ds = Generator.generate (dataset_params_mining scale) in
  let skeletons = Array.map Pgraph.skeleton ds.graphs in
  let features = Selection.select skeletons mining_params in
  let structural = Structural.build skeletons features ~emb_cap:64 in
  let pmi_loose =
    Pmi.build ~config:{ Bounds.default_config with tightest = false } ds.graphs
      features
  in
  let pmi_tight = Pmi.build ~config:Bounds.default_config ds.graphs features in
  let queries = make_queries scale ds ~edges:default_qsize in
  Format.fprintf ppf "@[<v>%-6s %10s %10s %14s %12s %12s %16s@]@." "delta"
    "Structure" "SIPBound" "OPT-SIPBound" "t_struct(s)" "t_sip(s)" "t_opt-sip(s)";
  List.iter
    (fun delta ->
      let acc = Array.make 3 [] and times = Array.make 3 [] in
      List.iter
        (fun (q, _) ->
          let relaxed, _ = Relax.relaxed_set q ~delta in
          let cands, t_struct =
            Timer.time (fun () -> Structural.candidates structural ~skeleton:(fun gi -> skeletons.(gi)) q ~delta)
          in
          let n_loose, t_loose =
            prune_stats ~mode:Pruning.Optimized ~certified:false pmi_loose cands
              relaxed default_epsilon
          in
          let n_tight, t_tight =
            prune_stats ~mode:Pruning.Optimized ~certified:false pmi_tight cands
              relaxed default_epsilon
          in
          acc.(0) <- float_of_int (List.length cands) :: acc.(0);
          acc.(1) <- float_of_int n_loose :: acc.(1);
          acc.(2) <- float_of_int n_tight :: acc.(2);
          times.(0) <- t_struct :: times.(0);
          times.(1) <- t_loose :: times.(1);
          times.(2) <- t_tight :: times.(2))
        queries;
      Format.fprintf ppf "@[<v>%-6d %10.1f %10.1f %14.1f %12.4f %12.4f %16.4f@]@."
        delta (Stats.mean acc.(0)) (Stats.mean acc.(1)) (Stats.mean acc.(2))
        (Stats.mean times.(0)) (Stats.mean times.(1)) (Stats.mean times.(2)))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Fig 12: feature-generation parameter sweeps.                        *)
(* ------------------------------------------------------------------ *)

let candidates_with db queries ~mode ~epsilon ~delta =
  let acc = ref [] in
  List.iter
    (fun (q, _) ->
      let relaxed, _ = Relax.relaxed_set q ~delta in
      let cands =
        Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q ~delta
      in
      let n, _ =
        prune_stats ~mode ~certified:false db.Query.pmi cands relaxed epsilon
      in
      acc := float_of_int n :: !acc)
    queries;
  Stats.mean !acc

let structure_candidates db queries ~delta =
  Stats.mean
    (List.map
       (fun (q, _) ->
         float_of_int
           (List.length
              (Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
                 ~delta)))
       queries)

let fig12 ?(scale = default_scale) ppf =
  hr ppf "Figure 12: impact of feature-generation parameters";
  let ds = Generator.generate (dataset_params_mining scale) in
  let queries = make_queries scale ds ~edges:default_qsize in
  (* (a) maxL: candidate size of the SSP arms. *)
  Format.fprintf ppf "@[<v>(a) %-6s %10s %10s %14s@]@." "maxL" "Structure"
    "SSPBound" "OPT-SSPBound";
  List.iter
    (fun max_edges ->
      let db = make_db ~mining:{ mining_params with max_edges } ds.graphs in
      let s = structure_candidates db queries ~delta:default_delta in
      let rand =
        candidates_with db queries ~mode:Pruning.Random_pick
          ~epsilon:default_epsilon ~delta:default_delta
      in
      let opt =
        candidates_with db queries ~mode:Pruning.Optimized
          ~epsilon:default_epsilon ~delta:default_delta
      in
      Format.fprintf ppf "@[<v>    %-6d %10.1f %10.1f %14.1f@]@." max_edges s rand opt)
    [ 1; 2; 3; 4 ];
  (* (b) alpha: candidate size of the SIP arms. *)
  Format.fprintf ppf "@[<v>(b) %-6s %10s %10s %14s@]@." "alpha" "Structure"
    "SIPBound" "OPT-SIPBound";
  List.iter
    (fun alpha ->
      let mining = { mining_params with alpha } in
      let skeletons = Array.map Pgraph.skeleton ds.graphs in
      let features = Selection.select skeletons mining in
      let structural = Structural.build skeletons features ~emb_cap:64 in
      let pmi_loose =
        Pmi.build ~config:{ Bounds.default_config with tightest = false }
          ds.graphs features
      in
      let pmi_tight = Pmi.build ~config:Bounds.default_config ds.graphs features in
      let counts which_pmi =
        Stats.mean
          (List.map
             (fun (q, _) ->
               let relaxed, _ = Relax.relaxed_set q ~delta:default_delta in
               let cands =
                 Structural.candidates structural ~skeleton:(fun gi -> skeletons.(gi)) q ~delta:default_delta
               in
               let n, _ =
                 prune_stats ~mode:Pruning.Optimized ~certified:false which_pmi
                   cands relaxed default_epsilon
               in
               float_of_int n)
             queries)
      in
      let s =
        Stats.mean
          (List.map
             (fun (q, _) ->
               float_of_int
                 (List.length
                    (Structural.candidates structural ~skeleton:(fun gi -> skeletons.(gi)) q
                       ~delta:default_delta)))
             queries)
      in
      Format.fprintf ppf "@[<v>    %-6.2f %10.1f %10.1f %14.1f@]@." alpha s
        (counts pmi_loose) (counts pmi_tight))
    [ 0.05; 0.1; 0.15; 0.2; 0.25 ];
  (* (c) beta: index building time. *)
  Format.fprintf ppf "@[<v>(c) %-6s %16s %18s@]@." "beta" "t_structure(s)"
    "t_opt-sipbound(s)";
  List.iter
    (fun beta ->
      let mining = { mining_params with beta } in
      let skeletons = Array.map Pgraph.skeleton ds.graphs in
      let features, t_mine = Timer.time (fun () -> Selection.select skeletons mining) in
      let _, t_struct =
        Timer.time (fun () -> Structural.build skeletons features ~emb_cap:64)
      in
      let pmi = Pmi.build ~config:Bounds.default_config ds.graphs features in
      Format.fprintf ppf "@[<v>    %-6.2f %16.3f %18.3f@]@." beta
        (t_mine +. t_struct)
        (t_mine +. Pmi.build_seconds pmi))
    [ 0.05; 0.1; 0.15; 0.2; 0.25 ];
  (* (d) gamma: index size. *)
  Format.fprintf ppf "@[<v>(d) %-6s %18s %18s@]@." "gamma" "structure(entries)"
    "pmi(entries)";
  List.iter
    (fun gamma ->
      let mining = { mining_params with gamma } in
      let skeletons = Array.map Pgraph.skeleton ds.graphs in
      let features = Selection.select skeletons mining in
      let structural = Structural.build skeletons features ~emb_cap:64 in
      let pmi = Pmi.build ~config:Bounds.default_config ds.graphs features in
      Format.fprintf ppf "@[<v>    %-6.2f %18d %18d@]@." gamma
        (Structural.entries structural)
        (Pmi.filled_entries pmi))
    [ 0.05; 0.1; 0.15; 0.2; 0.25 ]

(* ------------------------------------------------------------------ *)
(* Fig 13: total query time vs database size — PMI vs Exact.           *)
(* ------------------------------------------------------------------ *)

let fig13 ?(scale = default_scale) ppf =
  hr ppf "Figure 13: total query processing time vs database size";
  Format.fprintf ppf "@[<v>%-8s %12s %12s@]@." "dbsize" "PMI(s)" "Exact(s)";
  let sizes = List.map (fun m -> max 10 (scale.db_size * m / 3)) [ 1; 2; 3; 4; 5 ] in
  let largest = List.fold_left max 0 sizes in
  (* Fig 13 runs on a reduced corpus (<= ~20 uncertain edges per graph) so
     the Exact competitor's 2^m possible-world scan terminates at all — the
     paper likewise stops plotting Exact once it passes 1000 s. Both arms
     use the same corpus. Datasets generated from one seed are
     prefix-consistent, so Exact's per-graph enumeration is measured once
     on the largest corpus and the scan time of a size-k database is the
     sum over its prefix. A single representative query drives the
     measurement — the world loop dominates; the query only changes the
     cheap per-world check. *)
  let fig13_params db_size =
    {
      (dataset_params { scale with db_size }) with
      min_vertices = 8;
      max_vertices = 10;
      extra_edge_ratio = 0.15;
      motif_edges = 6;
    }
  in
  let make_dataset s = Generator.generate (fig13_params s.db_size) in
  let big = make_dataset { scale with db_size = largest } in
  let probe_q, _ =
    Generator.extract_query (Prng.make (scale.seed + 779)) big
      ~edges:default_qsize
  in
  let probe_relaxed, _ = Relax.relaxed_set probe_q ~delta:default_delta in
  let per_graph =
    Array.map
      (fun g ->
        Timer.time_only (fun () ->
            try ignore (Verify.exact_naive g probe_relaxed) with Failure _ -> ()))
      big.Generator.graphs
  in
  let config =
    { Query.default_config with epsilon = default_epsilon; delta = default_delta }
  in
  List.iter
    (fun db_size ->
      let sub_scale = { scale with db_size } in
      let ds = make_dataset sub_scale in
      let db = make_db ds.graphs in
      let queries = make_queries sub_scale ds ~edges:default_qsize in
      let t_pmi =
        Stats.mean
          (List.map
             (fun (q, _) -> Timer.time_only (fun () -> ignore (Query.run db q config)))
             queries)
      in
      let t_exact = ref 0. in
      for gi = 0 to db_size - 1 do
        t_exact := !t_exact +. per_graph.(gi)
      done;
      Format.fprintf ppf "@[<v>%-8d %12.3f %12.3f@]@." db_size t_pmi !t_exact)
    sizes

(* ------------------------------------------------------------------ *)
(* Fig 14: answer quality, correlated vs independent model.            *)
(* ------------------------------------------------------------------ *)

let fig14 ?(scale = default_scale) ppf =
  hr ppf "Figure 14: query quality, COR vs IND, vs probability threshold";
  let ds = make_dataset scale in
  let db_cor = make_db ds.graphs in
  let db_ind = make_db (Generator.independent_db ds) in
  (* Queries come from the organisms' shared motif cores, so "same
     organism" is a structurally meaningful ground truth (paper §6). *)
  (* delta = 1 keeps SSP values in the regime where the two probability
     models actually disagree; with heavier relaxation the union over
     relaxed embeddings saturates towards 1 under both models. *)
  let fig14_delta = 1 in
  let rng = Prng.make (scale.seed + 778) in
  let queries =
    List.init scale.queries_per_point (fun _ ->
        Generator.extract_query ~from_motif:true rng ds ~edges:6)
  in
  Format.fprintf ppf "@[<v>%-6s %10s %10s %10s %10s@]@." "eps" "COR-P(%)"
    "COR-R(%)" "IND-P(%)" "IND-R(%)";
  List.iter
    (fun epsilon ->
      let config = { Query.default_config with epsilon; delta = fig14_delta } in
      let quality db =
        let ps = ref [] and rs = ref [] in
        List.iter
          (fun (q, org) ->
            let out = Query.run db q config in
            let truth = Generator.organism_members ds org in
            let p, r = Stats.precision_recall ~returned:out.Query.answers ~truth in
            ps := p :: !ps;
            rs := r :: !rs)
          queries;
        (pct (Stats.mean !ps), pct (Stats.mean !rs))
      in
      let cp, cr = quality db_cor in
      let ip, ir = quality db_ind in
      Format.fprintf ppf "@[<v>%-6.1f %10.1f %10.1f %10.1f %10.1f@]@." epsilon cp
        cr ip ir)
    [ 0.3; 0.4; 0.5; 0.6; 0.7 ]

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablations ?(scale = default_scale) ppf =
  hr ppf "Ablation A1: SIP bound quality (vs exact SIP)";
  let ds =
    Generator.generate
      { (dataset_params_mining { scale with db_size = min scale.db_size 40 }) with
        min_vertices = 7; max_vertices = 10 }
  in
  let skeletons = Array.map Pgraph.skeleton ds.Generator.graphs in
  let features = Selection.select skeletons mining_params in
  let arms =
    [
      ("paper+clique", Bounds.default_config, false);
      ("paper+first-fit", { Bounds.default_config with tightest = false }, false);
      ("certified", Bounds.default_config, true);
    ]
  in
  Format.fprintf ppf "@[<v>%-18s %12s %14s %10s@]@." "bounds" "mean width"
    "violations(%)" "pairs";
  List.iter
    (fun (name, config, use_safe) ->
      let widths = ref [] and violations = ref 0 and pairs = ref 0 in
      List.iter
        (fun ({ feature = f; support; _ } : Selection.mined) ->
          if Lgraph.num_edges f.graph >= 1 then
            List.iter
              (fun gi ->
                let g = ds.Generator.graphs.(gi) in
                match Exact.sip g f.graph with
                | exception Failure _ -> ()
                | sip ->
                  let b = Bounds.compute config g f.graph in
                  let lo, hi =
                    if use_safe then (b.Bounds.lower_safe, b.Bounds.upper_safe)
                    else (b.Bounds.lower, b.Bounds.upper)
                  in
                  incr pairs;
                  widths := (hi -. lo) :: !widths;
                  if sip < lo -. 1e-9 || sip > hi +. 1e-9 then incr violations)
              support)
        features;
      Format.fprintf ppf "@[<v>%-18s %12.4f %14.2f %10d@]@." name
        (Stats.mean !widths)
        (100. *. float_of_int !violations /. float_of_int (max 1 !pairs))
        !pairs)
    arms;

  hr ppf "Ablation A2: Usim assembly (greedy cover vs random pick)";
  let db = make_db ds.Generator.graphs in
  let queries = make_queries scale ds ~edges:6 in
  Format.fprintf ppf "@[<v>%-14s %12s %14s@]@." "assembly" "mean Usim"
    "pruned(%) @0.5";
  List.iter
    (fun (name, mode) ->
      let values = ref [] and pruned = ref 0 and total = ref 0 in
      List.iter
        (fun (q, _) ->
          let relaxed, _ = Relax.relaxed_set q ~delta:default_delta in
          let prepared = Pruning.prepare db.Query.pmi ~relaxed in
          let cands =
            Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
              ~delta:default_delta
          in
          let rng = Prng.make 3 in
          List.iter
            (fun gi ->
              let u =
                Pruning.usim ~certified:false rng db.Query.pmi prepared
                  ~graph:gi ~mode
              in
              values := u :: !values;
              incr total;
              if u < 0.5 then incr pruned)
            cands)
        queries;
      Format.fprintf ppf "@[<v>%-14s %12.4f %14.1f@]@." name
        (Stats.mean !values)
        (100. *. float_of_int !pruned /. float_of_int (max 1 !total)))
    [ ("greedy-cover", Pruning.Optimized); ("random-pick", Pruning.Random_pick) ];

  hr ppf "Ablation A3: SMP accuracy and time vs tau";
  Format.fprintf ppf "@[<v>%-8s %10s %12s %12s@]@." "tau" "samples"
    "mean |err|" "time(ms)";
  let pairs =
    List.concat_map
      (fun (q, _) ->
        let relaxed, _ = Relax.relaxed_set q ~delta:default_delta in
        Structural.candidates db.Query.structural ~skeleton:(Corpus.skeleton db.Query.graphs) q
          ~delta:default_delta
        |> List.filteri (fun i _ -> i < 3)
        |> List.filter_map (fun gi ->
               let g = ds.Generator.graphs.(gi) in
               match Verify.exact g relaxed with
               | exception Failure _ -> None
               | exact -> Some (g, relaxed, exact)))
      queries
  in
  List.iter
    (fun tau ->
      let config = { Verify.default_config with tau } in
      let errs = ref [] and times = ref [] in
      List.iteri
        (fun i (g, relaxed, exact) ->
          let rng = Prng.make (i + 3) in
          let est, t = Timer.time (fun () -> Verify.smp ~config rng g relaxed) in
          errs := Float.abs (est -. exact) :: !errs;
          times := (t *. 1000.) :: !times)
        pairs;
      Format.fprintf ppf "@[<v>%-8.2f %10d %12.4f %12.3f@]@." tau
        (Verify.num_samples config) (Stats.mean !errs) (Stats.mean !times))
    [ 0.3; 0.2; 0.1; 0.05 ];

  hr ppf "Ablation A4: VF2 vs Ullmann subgraph isomorphism";
  Format.fprintf ppf "@[<v>%-10s %14s %14s %10s@]@." "matcher" "exists(us)"
    "count-all(us)" "agree";
  let tasks =
    List.concat_map
      (fun (q, _) ->
        Array.to_list skeletons |> List.filteri (fun i _ -> i < 10)
        |> List.map (fun gc -> (q, gc)))
      queries
  in
  let time_matcher exists count =
    let t_e = ref [] and t_c = ref [] in
    List.iter
      (fun (q, gc) ->
        let _, te = Timer.time (fun () -> exists q gc) in
        let _, tc = Timer.time (fun () -> count q gc) in
        t_e := (te *. 1e6) :: !t_e;
        t_c := (tc *. 1e6) :: !t_c)
      tasks;
    (Stats.mean !t_e, Stats.mean !t_c)
  in
  let agree =
    List.for_all (fun (q, gc) -> Vf2.exists q gc = Ullmann.exists q gc) tasks
  in
  let ve, vc = time_matcher Vf2.exists (fun q g -> ignore (Vf2.count ~limit:256 q g)) in
  let ue, uc =
    time_matcher Ullmann.exists (fun q g -> ignore (Ullmann.count ~limit:256 q g))
  in
  Format.fprintf ppf "@[<v>%-10s %14.1f %14.1f %10s@]@." "vf2" ve vc "";
  Format.fprintf ppf "@[<v>%-10s %14.1f %14.1f %10b@]@." "ullmann" ue uc agree

let all ?(scale = default_scale) ppf =
  fig9 ~scale ppf;
  fig10 ~scale ppf;
  fig11 ~scale ppf;
  fig12 ~scale ppf;
  fig13 ~scale ppf;
  fig14 ~scale ppf;
  ablations ~scale ppf
