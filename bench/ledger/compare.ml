(* [ledger.exe compare BASE_DIR CHANGE_DIR]: the verdict rule for a
   change against its parent, per (workload, end-to-end metric), for the
   gated metrics and the unsteady ones.

   - regression: the change's median is worse than the base median by
     more than the metric's bound, or the failed share rose at all;
   - gain: the change wins at least 9 of every 10 pairs (runs paired in
     seed order, ties count for neither side) and the medians differ by
     more than the base's interquartile range;
   - unresolved: the base's own spread exceeds the bound, or the metric
     is unsteady and has none, and not every change run beats every base
     run, so "no regression" cannot be told apart from noise;
   - same: none of the above.

   Only a regression makes [compare] exit non-zero, and unsteady metrics
   never regress. *)

type run = {
  workload : string;
  seed : int;
  git_rev : string;
  nproc : int;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type verdict = Gain | Regression | Unresolved | Same

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Same -> "same"

type row = {
  workload : string;
  metric : string;
  base : float list;
  change : float list;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let beats (better : Spec.better) a b =
  match better with Lower -> a < b | Higher -> a > b

(* [base] and [change] are (seed, value) lists; pairs are formed in seed
   order, so two run sets made with the same seeds pair seed by seed. *)
let judge (m : Spec.metric) ~base ~change =
  let by_seed l = List.map snd (List.sort compare l) in
  let b = by_seed base and c = by_seed change in
  let gated = Option.is_some m.bound in
  let bound = Option.value m.bound ~default:0. in
  let q1, mb, q3 = Quantile.quartiles b in
  let mc = Quantile.median c in
  let worse_by =
    (match m.better with Lower -> mc -. mb | Higher -> mb -. mc) /. Float.abs mb
  in
  let rec pair acc xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys -> pair ((x, y) :: acc) xs ys
    | _ -> acc
  in
  let pairs = pair [] b c in
  let npairs = List.length pairs in
  let wins = List.length (List.filter (fun (x, y) -> beats m.better y x) pairs) in
  let every_change_beats = List.for_all (fun y -> List.for_all (beats m.better y) b) c in
  let verdict =
    if gated && worse_by > bound then Regression
    else if
      npairs > 0
      && 10 * wins >= 9 * npairs
      && beats m.better mc mb
      && Float.abs (mc -. mb) > q3 -. q1
    then Gain
    else if ((not gated) || Quantile.spread b > bound) && not every_change_beats then Unresolved
    else Same
  in
  (verdict, wins, npairs)

let failed_share runs =
  let a = List.fold_left (fun s (r : run) -> s + r.attempted) 0 runs in
  let f = List.fold_left (fun s (r : run) -> s + r.failed) 0 runs in
  if a = 0 then 0. else float_of_int f /. float_of_int a

let rows ~base ~change =
  let workloads =
    List.sort_uniq compare (List.map (fun (r : run) -> r.workload) (base @ change))
  in
  List.concat_map
    (fun w ->
      let bw = List.filter (fun (r : run) -> r.workload = w) base in
      let cw = List.filter (fun (r : run) -> r.workload = w) change in
      if bw = [] || cw = [] then []
      else
        let values runs name =
          List.filter_map
            (fun (r : run) ->
              Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics))
            runs
        in
        let metric_rows =
          List.filter_map
            (fun (m : Spec.metric) ->
              match (values bw m.name, values cw m.name) with
              | [], _ | _, [] -> None
              | bv, cv ->
                let verdict, wins, pairs = judge m ~base:bv ~change:cv in
                Some
                  {
                    workload = w;
                    metric = m.name;
                    base = List.map snd bv;
                    change = List.map snd cv;
                    wins;
                    pairs;
                    verdict;
                  })
            (Spec.end_to_end @ Spec.unsteady)
        in
        let fb = failed_share bw and fc = failed_share cw in
        metric_rows
        @ [
            {
              workload = w;
              metric = "failed_frac";
              base = [ fb ];
              change = [ fc ];
              wins = 0;
              pairs = 0;
              verdict = (if fc > fb then Regression else Same);
            };
          ])
    workloads

let run_of_json j =
  let num k = Json.to_num (Json.member k j) in
  match (Json.to_str (Json.member "workload" j), Json.member "metrics" j) with
  | Some workload, Json.Obj ms ->
    let metrics =
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Json.member "value" v)))
        ms
    in
    let int k = Option.fold ~none:0 ~some:int_of_float (num k) in
    Some
      {
        workload;
        seed = int "seed";
        git_rev = Option.value ~default:"unknown" (Json.to_str (Json.member "git_rev" j));
        nproc = int "nproc";
        attempted = int "attempted";
        failed = int "failed";
        metrics;
      }
  | _ -> None

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
         | j -> run_of_json j
         | exception Json.Parse_error _ -> None)

let summary xs =
  match xs with
  | [ x ] -> Printf.sprintf "%.4g" x
  | xs ->
    let q1, m, q3 = Quantile.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" m q1 q3 (List.length xs)

let print rows =
  Printf.printf "%-8s %-12s %-34s %-34s %-7s %s\n" "workload" "metric" "base median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-8s %-12s %-34s %-34s %-7s %s\n" r.workload r.metric (summary r.base)
        (summary r.change)
        (if r.pairs = 0 then "-" else Printf.sprintf "%d/%d" r.wins r.pairs)
        (verdict_name r.verdict))
    rows

(* [ledger.exe summary DIR]: per workload, for the gated and the unsteady
   end-to-end metrics, the median and quartiles of the run records in
   DIR — the form a baseline is recorded in. *)
let summary_json dir =
  let runs = load_dir dir in
  let distinct f = List.sort_uniq compare (List.map f runs) in
  let workloads = distinct (fun (r : run) -> r.workload) in
  Json.Obj
    [
      ("git_rev", Json.Str (String.concat " " (distinct (fun (r : run) -> r.git_rev))));
      ("nproc", Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) (distinct (fun (r : run) -> r.nproc))));
      ( "workloads",
        Json.Obj
          (List.map
             (fun w ->
               let rs = List.filter (fun (r : run) -> r.workload = w) runs in
               ( w,
                 Json.Obj
                   (("runs", Json.Num (float_of_int (List.length rs)))
                   :: List.filter_map
                        (fun (m : Spec.metric) ->
                          match List.filter_map (fun (r : run) -> List.assoc_opt m.name r.metrics) rs with
                          | [] -> None
                          | vs ->
                            let q1, med, q3 = Quantile.quartiles vs in
                            Some
                              ( m.name,
                                Json.Obj
                                  [ ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3) ] ))
                        (Spec.end_to_end @ Spec.unsteady)) ))
             workloads) );
    ]

let main base_dir change_dir =
  let base = load_dir base_dir and change = load_dir change_dir in
  if base = [] || change = [] then begin
    Printf.eprintf "compare: no run records in %s\n" (if base = [] then base_dir else change_dir);
    exit 2
  end;
  let rows = rows ~base ~change in
  print rows;
  if List.exists (fun r -> r.verdict = Regression) rows then exit 1
