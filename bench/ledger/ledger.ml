(* ledger.exe — the repository's benchmark of record (README.md).

     ledger.exe run --workload W [--seed S] [--seconds T] [--trace [0|1]]
                    [--out FILE] [--psst PATH] [--work DIR]
     ledger.exe compare BASE_DIR CHANGE_DIR
     ledger.exe summary DIR
     ledger.exe micro [--seed S]
     ledger.exe smoke [--psst PATH]
     ledger.exe spec *)

let usage =
  "usage: ledger.exe run --workload cold|warm|routed|ingest [--seed S] [--seconds T] [--trace \
   [0|1]] [--out FILE] [--psst PATH] [--work DIR]\n\
  \       ledger.exe compare BASE_DIR CHANGE_DIR\n\
  \       ledger.exe summary DIR\n\
  \       ledger.exe micro [--seed S]\n\
  \       ledger.exe smoke [--psst PATH]\n\
  \       ledger.exe spec"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

(* The standard scale: the repository's default experiment corpus size. *)
let defaults =
  {
    Workload.workload = "";
    seed = 2012;
    seconds = float_of_int Spec.run_seconds;
    trace = false;
    out = None;
    graphs = Experiments.default_scale.db_size;
    psst = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "psst.exe"));
    work = ".ledger_run";
    setups = 3;
    min_ops = Quantile.min_samples 0.75;
    micro_quota = 0.25;
    quiet = false;
  }

let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" flag

let rec parse (o : Workload.opts) = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = w } rest
  | "--seed" :: s :: rest -> parse { o with seed = int_arg "--seed" s } rest
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some t when t > 0. -> parse { o with seconds = t } rest
    | _ -> die "--seconds expects a positive number")
  | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = v = "1" } rest
  | "--trace" :: rest -> parse { o with trace = true } rest
  | "--out" :: f :: rest -> parse { o with out = Some f } rest
  | "--psst" :: p :: rest -> parse { o with psst = p } rest
  | "--work" :: d :: rest -> parse { o with work = d } rest
  | arg :: _ -> die "unexpected argument %S" arg

let checked (o : Workload.opts) =
  if not (List.mem_assoc o.workload Spec.workloads) then
    die "--workload must be one of %s" (String.concat ", " (List.map fst Spec.workloads));
  if not (Sys.file_exists o.psst) then die "psst binary %s not found (build it first)" o.psst;
  o

let run_one o =
  match Workload.run o with
  | correct, _ -> if not correct then exit 1
  | exception e ->
    prerr_endline ("ledger: run failed: " ^ Printexc.to_string e);
    exit 1

(* Every workload at a smoke size with every check on: what keeps the
   benchmark from rotting between performance changes. *)
let smoke o =
  let failures =
    List.concat_map
      (fun (w, _) ->
        let o =
          {
            o with
            Workload.workload = w;
            graphs = 40;
            seconds = 0.3;
            setups = 1;
            min_ops = 4;
            trace = true;
            micro_quota = 0.01;
            quiet = true;
            work = ".ledger_smoke";
          }
        in
        let _, checks = Workload.run (checked o) in
        let bad = List.filter (fun (_, ok, _) -> not ok) checks in
        Printf.printf "smoke %s: %d checks, %d failed\n%!" w (List.length checks) (List.length bad);
        List.map (fun (name, _, detail) -> Printf.sprintf "%s %s: %s" w name detail) bad)
      Spec.workloads
  in
  List.iter prerr_endline failures;
  if failures <> [] then exit 1

let micro o =
  let inp = Inputs.make ~graphs:o.Workload.graphs ~seed:o.seed ~batches:4 in
  let db = Query.index_database ~mining:Experiments.mining_params inp.graphs in
  Workload.mkdir_p o.work;
  let path = Filename.concat o.work (Printf.sprintf "micro-%d.psst" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Query.save_database ~flat:true path db;
      let mapped = Query.load_database ~mmap:true path in
      List.iter
        (fun (row, ns, words) ->
          Printf.printf "metric micro micro.%s.ns %s ns\nmetric micro micro.%s.minor_words %s words\n"
            row (Json.number ns) row (Json.number words))
        (Micro.run ~quota:o.micro_quota
           { Micro.heap = db; mapped; config = inp.config; queries = inp.pool }))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_one (checked (parse defaults args))
  | [ "compare"; base; change ] -> Compare.main base change
  | [ "summary"; dir ] -> print_endline (Json.to_string (Compare.summary_json dir))
  | "micro" :: args -> micro (parse defaults args)
  | "smoke" :: args -> smoke (parse defaults args)
  | [ "spec" ] -> print_string (Spec.benchmark_json ())
  | _ -> die "no such command"
