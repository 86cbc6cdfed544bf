(* Unit tests of the ledger's statistics and verdict rule, on synthetic
   samples and run sets. *)

let close = Alcotest.float 1e-9

let percentile_small_n () =
  let a = Quantile.sorted [ 3.; 1.; 2. ] in
  Alcotest.check close "p50 of 3" 2. (Quantile.percentile a 0.5);
  Alcotest.check close "p100 is the max" 3. (Quantile.percentile a 1.);
  Alcotest.check close "p1 is the min" 1. (Quantile.percentile a 0.01);
  let one = Quantile.sorted [ 7. ] in
  Alcotest.check close "any percentile of one sample" 7. (Quantile.percentile one 0.99)

let percentile_rank_rule () =
  (* Nearest rank: ceil(p*n) - 1, not floor(p*n). *)
  let a = Quantile.sorted (List.init 10 float_of_int) in
  Alcotest.check close "p90 of 0..9" 8. (Quantile.percentile a 0.9);
  Alcotest.check close "p50 of 0..9" 4. (Quantile.percentile a 0.5);
  let b = Quantile.sorted (List.init 40 float_of_int) in
  Alcotest.check close "p75 of 0..39" 29. (Quantile.percentile b 0.75)

let percentile_ties () =
  let a = Quantile.sorted [ 5.; 1.; 5.; 5.; 2. ] in
  Alcotest.check close "p50 inside a tie" 5. (Quantile.percentile a 0.5);
  Alcotest.check close "p40 below the tie" 2. (Quantile.percentile a 0.4)

let guard () =
  let a n = Quantile.sorted (List.init n float_of_int) in
  Alcotest.(check (option close)) "p99 of 4 refused" None (Quantile.guarded (a 4) 0.99);
  Alcotest.(check (option close)) "p99 of 999 refused" None (Quantile.guarded (a 999) 0.99);
  Alcotest.(check (option close)) "p99 of 1000 reported" (Some 989.) (Quantile.guarded (a 1000) 0.99);
  Alcotest.(check (option close)) "p75 of 39 refused" None (Quantile.guarded (a 39) 0.75);
  Alcotest.(check (option close)) "p75 of 40 reported" (Some 29.) (Quantile.guarded (a 40) 0.75);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Quantile.min_samples 0.5);
  Alcotest.(check int) "p75 needs 40 samples" 40 (Quantile.min_samples 0.75);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Quantile.min_samples 0.9)

let quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Quantile.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "median" 5.5 m;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q1, m, q3 = Quantile.quartiles [ 2.; 1. ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "median of two" 1.5 m;
  Alcotest.check close "q3 of two" 2.25 q3

let p75 = Spec.e2e "p75_ms" "ms" Spec.Lower 0.10
let qps = Spec.e2e "ops_per_s" "1/s" Spec.Higher 0.10
let seeded xs = List.mapi (fun i x -> (i, x)) xs

let verdict m base change =
  let v, _, _ = Compare.judge m ~base:(seeded base) ~change:(seeded change) in
  Compare.verdict_name v

let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100.3 ]

let clear_gain () =
  Alcotest.(check string) "latency halved" "gain"
    (verdict p75 base (List.map (fun x -> x /. 2.) base));
  Alcotest.(check string) "throughput doubled" "gain"
    (verdict qps base (List.map (fun x -> x *. 2.) base))

let clear_regression () =
  Alcotest.(check string) "latency +50%" "regression"
    (verdict p75 base (List.map (fun x -> x *. 1.5) base));
  Alcotest.(check string) "throughput -50%" "regression"
    (verdict qps base (List.map (fun x -> x /. 2.) base))

let noise () =
  let noisy = [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ] in
  let shuffled = [ 100.; 110.; 90.; 130.; 70.; 100.; 120.; 80.; 140.; 60. ] in
  Alcotest.(check string) "spread wider than the bound" "unresolved" (verdict p75 noisy shuffled);
  let unsteady = Spec.layer "p75_ms" "ms" Spec.Lower in
  Alcotest.(check string) "an unsteady metric does not regress" "unresolved"
    (verdict unsteady base (List.map (fun x -> x *. 1.5) base));
  Alcotest.(check string) "but it can gain" "gain"
    (verdict unsteady base (List.map (fun x -> x /. 2.) base))

let eight_of_ten () =
  (* The change wins 8 of 10 pairs by a wide margin: still not a gain. *)
  let change = List.mapi (fun i x -> if i < 8 then x *. 0.7 else x *. 1.01) base in
  Alcotest.(check bool) "8 wins in 10 is not a gain" true (verdict p75 base change <> "gain");
  let nine = List.mapi (fun i x -> if i < 9 then x *. 0.7 else x *. 1.01) base in
  Alcotest.(check string) "9 wins in 10 is" "gain" (verdict p75 base nine)

let unchanged () =
  Alcotest.(check string) "identical runs" "same" (verdict p75 base base)

let failed_share () =
  let run failed =
    {
      Compare.workload = "warm";
      seed = 1;
      git_rev = "x";
      nproc = 2;
      attempted = 100;
      failed;
      metrics = [ ("p75_ms", 1.) ];
    }
  in
  let row =
    List.find (fun (r : Compare.row) -> r.metric = "failed_frac")
      (Compare.rows ~base:[ run 0 ] ~change:[ run 1 ])
  in
  Alcotest.(check string) "any rise in failures regresses" "regression"
    (Compare.verdict_name row.verdict)

let json_round_trip () =
  let j = Json.parse "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"x\\\"y\"}, \"d\": null, \"e\": true}" in
  Alcotest.(check (option close)) "nested number" (Some 2.5)
    (match Json.member "a" j with Json.Arr [ _; x; _ ] -> Json.to_num x | _ -> None);
  Alcotest.(check (option string)) "escaped string" (Some "x\"y")
    (Json.to_str (Json.member "c" (Json.member "b" j)));
  Alcotest.(check string) "printed back" (Json.to_string j) (Json.to_string (Json.parse (Json.to_string j)))

let spec_names () =
  let names = List.map (fun (m : Spec.metric) -> m.name) Spec.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is gated, lower, with the largest bound" true
    (match Spec.find "setup_s" with
    | Some { bound = Some b; better = Spec.Lower; unit_ = "s"; _ } ->
      List.for_all (fun (m : Spec.metric) -> Option.value m.bound ~default:0. <= b) Spec.end_to_end
    | _ -> false)

let () =
  Alcotest.run "ledger"
    [
      ( "quantile",
        [
          Alcotest.test_case "small n" `Quick percentile_small_n;
          Alcotest.test_case "nearest-rank rule" `Quick percentile_rank_rule;
          Alcotest.test_case "ties" `Quick percentile_ties;
          Alcotest.test_case "ten-beyond guard" `Quick guard;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "clear gain" `Quick clear_gain;
          Alcotest.test_case "clear regression" `Quick clear_regression;
          Alcotest.test_case "noise is unresolved" `Quick noise;
          Alcotest.test_case "8 wins in 10 is no gain" `Quick eight_of_ten;
          Alcotest.test_case "unchanged" `Quick unchanged;
          Alcotest.test_case "failed share" `Quick failed_share;
        ] );
      ( "format",
        [
          Alcotest.test_case "json round trip" `Quick json_round_trip;
          Alcotest.test_case "metric table" `Quick spec_names;
        ] );
    ]
