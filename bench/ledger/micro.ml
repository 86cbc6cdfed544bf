(* Per-call costs of the inner loops the layers are built from, in the
   manner of a PRNG README's per-generator table: Bechamel's OLS estimate
   of nanoseconds and minor-heap words per call, one row per kernel. The
   inputs come from the run's own corpus and query pool, so the rows
   describe the workload being measured. *)

open Bechamel

type inputs = {
  heap : Query.database;  (** built in-process *)
  mapped : Query.database;  (** the same image loaded with [~mmap:true] *)
  config : Query.config;
  queries : Lgraph.t array;
}

(* A (query, graph) pair whose Karp-Luby run draws samples, with its
   embedding sets. *)
let sampled_candidate (i : inputs) vc =
  let db = i.heap in
  let found = ref None in
  Array.iter
    (fun q ->
      if !found = None then begin
        let relaxed, _ = Relax.relaxed_set q ~delta:i.config.delta in
        List.iter
          (fun gi ->
            if !found = None then begin
              let g = Corpus.get db.graphs gi in
              let sets = Verify.embedding_sets ~config:vc g relaxed in
              let prep = Verify.smp_prepare g sets in
              let r = Verify.smp_run ~config:vc (Psst_util.Prng.make 1) prep in
              if r.samples > 0 then found := Some (g, sets, prep)
            end)
          (Structural.candidates db.structural ~skeleton:(Corpus.skeleton db.graphs) q
             ~delta:i.config.delta)
      end)
    i.queries;
  match !found with
  | Some c -> c
  | None -> failwith "micro: no candidate in the pool needs sampling"

let tests (i : inputs) =
  let vc = match i.config.verifier with `Smp vc -> vc | `Exact -> Verify.default_config in
  let g, sets, prep = sampled_candidate i vc in
  let jt = Pgraph.jtree g in
  let uncertain = Pgraph.uncertain_edges g in
  let calibrate s =
    Jtree.calibrate jt
      (List.filter_map
         (fun e -> if List.mem e uncertain then Some (e, true) else None)
         (Psst_util.Bitset.elements s))
  in
  let cals = List.map calibrate sets in
  let probs = Array.of_list (List.map Jtree.calibrated_prob cals) in
  let cal = List.hd cals in
  (* The filled PMI entry of the largest feature: a bound computation
     with embeddings and cuts to enumerate, and a VF2 enumeration that
     finds some. *)
  let fi, gi =
    let fs = Pmi.features i.heap.pmi in
    let best = ref None in
    Array.iteri
      (fun f (feat : Selection.feature) ->
        for g = 0 to Pmi.num_graphs i.heap.pmi - 1 do
          match (Pmi.lookup i.heap.pmi ~feature:f ~graph:g, !best) with
          | None, _ -> ()
          | Some _, Some (bf, _) when Lgraph.num_edges fs.(bf).graph >= Lgraph.num_edges feat.graph -> ()
          | Some _, _ -> best := Some (f, g)
        done)
      fs;
    match !best with Some fg -> fg | None -> failwith "micro: empty PMI"
  in
  let graph = Corpus.get i.heap.graphs gi in
  let feature = (Pmi.features i.heap.pmi).(fi).graph in
  let skeleton = Pgraph.skeleton graph in
  let bounds_config = Pmi.config i.heap.pmi in
  let rng = Psst_util.Prng.make 5 in
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"micro"
    [
      t "categorical" (fun () -> Psst_util.Prng.categorical rng probs);
      t "jtree_sample" (fun () -> Jtree.sample_calibrated rng jt cal);
      t "vf2_embeddings" (fun () -> Vf2.distinct_embeddings ~cap:64 feature skeleton);
      t "pmi_lookup_heap" (fun () -> Pmi.lookup i.heap.pmi ~feature:fi ~graph:gi);
      t "pmi_lookup_mmap" (fun () -> Pmi.lookup i.mapped.pmi ~feature:fi ~graph:gi);
      t "bounds_compute" (fun () -> Bounds.compute bounds_config graph feature);
      t "smp_run" (fun () -> Verify.smp_run ~config:vc rng prep);
    ]

(* [(row, ns per call, minor words per call)] in [Spec.micro_rows] order. *)
let run ~quota (i : inputs) =
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (tests i) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let estimate instance =
    let results = Analyze.all ols instance raw in
    fun row ->
      let key = "micro/" ^ row in
      match Option.bind (Hashtbl.find_opt results key) Analyze.OLS.estimates with
      | Some (x :: _) -> x
      | _ -> nan
  in
  let ns = estimate Toolkit.Instance.monotonic_clock in
  let words = estimate Toolkit.Instance.minor_allocated in
  List.map (fun row -> (row, ns row, words row)) Spec.micro_rows

let metrics rows =
  List.concat_map
    (fun (row, ns, words) ->
      [ ("micro." ^ row ^ ".ns", ns); ("micro." ^ row ^ ".minor_words", words) ])
    rows
