module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng
module Stats = Psst_util.Stats
module Combin = Psst_util.Combin
module Tq = Psst_util.Tenant_queue

let test_bitset_basics () =
  let b = Bitset.create 130 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 64;
  Bitset.add b 129;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "mem 63" false (Bitset.mem b 63);
  Bitset.remove b 64;
  Alcotest.(check bool) "removed" false (Bitset.mem b 64);
  Alcotest.(check (list int)) "elements" [ 0; 129 ] (Bitset.elements b)

let test_bitset_out_of_range () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add b 10);
  Alcotest.check_raises "mem oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b (-1)))

let test_bitset_set_ops () =
  let a = Bitset.of_list 100 [ 1; 5; 70 ] in
  let b = Bitset.of_list 100 [ 5; 70; 99 ] in
  Alcotest.(check (list int)) "union" [ 1; 5; 70; 99 ] (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 5; 70 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements (Bitset.diff a b));
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  Alcotest.(check bool) "subset yes" true (Bitset.subset (Bitset.inter a b) a);
  Alcotest.(check bool) "disjoint no" false (Bitset.disjoint a b);
  Alcotest.(check bool) "disjoint yes" true
    (Bitset.disjoint (Bitset.of_list 100 [ 1 ]) (Bitset.of_list 100 [ 2 ]))

let test_bitset_full_clear () =
  let f = Bitset.full 67 in
  Alcotest.(check int) "full cardinal" 67 (Bitset.cardinal f);
  Bitset.clear f;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty f)

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/elements roundtrip" ~count:200
    QCheck.(small_list (int_bound 63))
    (fun l ->
      let sorted = List.sort_uniq compare l in
      Bitset.elements (Bitset.of_list 64 l) = sorted)

let prop_bitset_union_commutes =
  QCheck.Test.make ~name:"bitset union commutes" ~count:200
    QCheck.(pair (small_list (int_bound 63)) (small_list (int_bound 63)))
    (fun (l1, l2) ->
      let a = Bitset.of_list 64 l1 and b = Bitset.of_list 64 l2 in
      Bitset.equal (Bitset.union a b) (Bitset.union b a))

let prop_bitset_demorgan =
  QCheck.Test.make ~name:"bitset diff = inter with complement" ~count:200
    QCheck.(pair (small_list (int_bound 40)) (small_list (int_bound 40)))
    (fun (l1, l2) ->
      let a = Bitset.of_list 41 l1 and b = Bitset.of_list 41 l2 in
      let comp = Bitset.diff (Bitset.full 41) b in
      Bitset.equal (Bitset.diff a b) (Bitset.inter a comp))

let test_prng_deterministic () =
  let a = Prng.make 42 and b = Prng.make 42 in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys

let test_prng_categorical () =
  let rng = Prng.make 7 in
  let w = [| 0.0; 3.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 4000 do
    let i = Prng.categorical rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(0);
  let ratio = float_of_int counts.(1) /. float_of_int counts.(2) in
  Alcotest.(check bool) "ratio near 3" true (ratio > 2.4 && ratio < 3.6)

let test_prng_categorical_invalid () =
  let rng = Prng.make 7 in
  Alcotest.check_raises "all zero weights"
    (Invalid_argument "Prng.categorical: non-positive weights") (fun () ->
      ignore (Prng.categorical rng [| 0.; 0. |]))

(* The categorical draw as it was first written (a fold for the total, a
   recursive scan with a float accumulator), kept as the reference the
   allocation-free loop must match index for index. *)
let reference_categorical t weights =
  let total = Array.fold_left (fun acc w -> acc +. Float.max w 0.) 0. weights in
  if total <= 0. then invalid_arg "Prng.categorical: non-positive weights";
  let x = Random.State.float t total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. Float.max weights.(i) 0. in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.

let test_prng_categorical_matches_reference () =
  let shapes =
    [|
      [| 1. |];
      [| 0.; 3.; 1. |];
      [| 0.5; 0.5 |];
      [| 0.2; 0.; 0.8; 0.; 0. |];
      [| 0.; 0.; 1e-300; 0. |];
      [| -1.; 2.; -0.; 0.25 |];
      [| 0.1; 0.2; 0.3; 0.4; 0.; 0.; 0.; 0. |];
    |]
  in
  let gen = Prng.make 17 in
  let a = Prng.make 2012 and b = Prng.make 2012 in
  for k = 1 to 10_000 do
    let w =
      if k mod 3 = 0 then shapes.(k mod Array.length shapes)
      else
        (* random length, some zero and trailing-zero entries *)
        let n = 1 + Prng.int gen 9 in
        let zeros_from = Prng.int gen (n + 1) in
        Array.init n (fun i ->
            if i >= max 1 zeros_from || Prng.bernoulli gen 0.2 then 0.
            else Prng.float gen 2.)
    in
    if Array.exists (fun x -> x > 0.) w then
      Alcotest.(check int) "same index" (reference_categorical a w) (Prng.categorical b w)
  done;
  Alcotest.(check int) "same stream afterwards" (Random.State.bits a) (Random.State.bits b)

let test_prng_sample_without_replacement () =
  let rng = Prng.make 11 in
  let s = Prng.sample_without_replacement rng 5 10 in
  Alcotest.(check int) "size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < 10)) s

let test_prng_beta_mean () =
  let rng = Prng.make 3 in
  let n = 4000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Prng.beta rng ~a:2.0 ~b:3.0
  done;
  let m = !acc /. float_of_int n in
  (* Beta(2,3) has mean 0.4 *)
  Alcotest.(check bool) "beta mean" true (Float.abs (m -. 0.4) < 0.03)

let test_stats_basics () =
  Tgen.check_close "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Tgen.check_close "mean empty" 0. (Stats.mean []);
  Tgen.check_close ~eps:1e-6 "stddev" (sqrt (5. /. 3.))
    (Stats.stddev [ 1.; 2.; 3.; 4. ]);
  Tgen.check_close "p50" 2.5 (Stats.percentile 50. [ 1.; 2.; 3.; 4. ]);
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  Tgen.check_close "min" 1. lo;
  Tgen.check_close "max" 3. hi

let test_stats_precision_recall () =
  let p, r = Stats.precision_recall ~returned:[ 1; 2; 3 ] ~truth:[ 2; 3; 4; 5 ] in
  Tgen.check_close "precision" (2. /. 3.) p;
  Tgen.check_close "recall" 0.5 r;
  let p, r = Stats.precision_recall ~returned:[] ~truth:[] in
  Tgen.check_close "empty precision" 1. p;
  Tgen.check_close "empty recall" 1. r

let test_combin () =
  Alcotest.(check int) "C(5,2) count" 10 (List.length (Combin.combinations 2 [ 1; 2; 3; 4; 5 ]));
  Alcotest.(check int) "binomial" 10 (Combin.binomial 5 2);
  Alcotest.(check int) "binomial edge" 1 (Combin.binomial 5 0);
  Alcotest.(check int) "binomial oob" 0 (Combin.binomial 5 7);
  Alcotest.(check int) "subsets" 8 (List.length (Combin.subsets [ 1; 2; 3 ]));
  Alcotest.(check int) "pairs" 3 (List.length (Combin.pairs [ 1; 2; 3 ]));
  let seen = ref [] in
  Combin.iter_combinations 2 [ 1; 2; 3 ] (fun c -> seen := c :: !seen);
  Alcotest.(check int) "iter combinations" 3 (List.length !seen);
  Alcotest.(check int) "cartesian" 6 (List.length (Combin.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]))

let prop_combinations_count =
  QCheck.Test.make ~name:"combinations agree with binomial" ~count:50
    QCheck.(pair (int_bound 8) (int_bound 8))
    (fun (n, k) ->
      let l = List.init n (fun i -> i) in
      List.length (Combin.combinations k l) = Combin.binomial n k)

(* --- the tenant queue: the server's one admission policy --- *)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | `Admitted -> "Admitted"
        | `Quota -> "Quota"
        | `Full -> "Full"
        | `Closed -> "Closed"))
    ( = )

let test_tq_cap_quota () =
  let q = Tq.create ~quota:3 ~cap:5 () in
  let submit tenant weight = Tq.submit q ~tenant ~weight tenant in
  Alcotest.(check verdict) "a: 2 of quota 3" `Admitted (submit "a" 2);
  Alcotest.(check verdict) "a: 2 more passes quota 3" `Quota (submit "a" 2);
  Alcotest.(check verdict) "b: 3 fills cap 5" `Admitted (submit "b" 3);
  Alcotest.(check verdict) "c: 1 passes cap 5" `Full (submit "c" 1);
  Alcotest.(check verdict) "a: over quota and cap: quota first" `Quota
    (submit "a" 2);
  Alcotest.(check verdict) "a: within quota, over cap" `Full (submit "a" 1);
  Alcotest.(check int) "refusals leave the weight" 5 (Tq.weight q);
  Alcotest.(check verdict) "an item heavier than the cap" `Full
    (Tq.submit (Tq.create ~cap:5 ()) ~tenant:"a" ~weight:6 "a");
  Alcotest.check_raises "cap 0" (Invalid_argument "Tenant_queue: cap must be >= 1")
    (fun () -> ignore (Tq.create ~cap:0 ()));
  Alcotest.check_raises "negative quota"
    (Invalid_argument "Tenant_queue: quota must be >= 0") (fun () ->
      ignore (Tq.create ~quota:(-1) ~cap:1 ()))

let test_tq_weight_zero () =
  let q = Tq.create ~quota:1 ~cap:1 () in
  Alcotest.(check verdict) "fills the cap" `Admitted
    (Tq.submit q ~tenant:"a" ~weight:1 "a1");
  Alcotest.(check verdict) "weight 0 at a full cap and quota" `Admitted
    (Tq.submit q ~tenant:"a" ~weight:0 "a0");
  Alcotest.(check int) "weighs nothing" 1 (Tq.weight q);
  Alcotest.(check (list string)) "taken in order" [ "a1"; "a0" ]
    (Tq.take q ~max:2);
  Alcotest.(check int) "empty" 0 (Tq.weight q)

let test_tq_fifo_round_robin () =
  let q = Tq.create ~cap:100 () in
  List.iter
    (fun x -> ignore (Tq.submit q ~tenant:(String.sub x 0 1) ~weight:1 x))
    [ "A1"; "A2"; "A3"; "B1" ];
  let taken = List.concat_map (fun _ -> Tq.take q ~max:1) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list string)) "take ~max:1 four times"
    [ "A1"; "B1"; "A2"; "A3" ] taken;
  (* One batch takes one item per tenant per rota turn; a tenant that
     emptied and comes back joins at the tail. *)
  List.iter
    (fun x -> ignore (Tq.submit q ~tenant:(String.sub x 0 1) ~weight:1 x))
    [ "A1"; "A2"; "A3"; "B1"; "B2"; "C1" ];
  Alcotest.(check (list string)) "round-robin batch" [ "A1"; "B1"; "C1"; "A2" ]
    (Tq.take q ~max:4);
  ignore (Tq.submit q ~tenant:"C" ~weight:1 "C2");
  Alcotest.(check (list string)) "per-tenant FIFO; C rejoins at the tail"
    [ "B2"; "A3"; "C2" ] (Tq.take q ~max:10)

let test_tq_close_drains () =
  let q = Tq.create ~cap:10 () in
  List.iter (fun x -> ignore (Tq.submit q ~tenant:"a" ~weight:1 x)) [ 1; 2; 3 ];
  Alcotest.(check bool) "close closes" true (Tq.close q);
  Alcotest.(check bool) "close again is a no-op" false (Tq.close q);
  Alcotest.(check verdict) "submit after close" `Closed
    (Tq.submit q ~tenant:"b" ~weight:0 4);
  Alcotest.(check (list int)) "queued items still taken" [ 1; 2 ]
    (Tq.take q ~max:2);
  Alcotest.(check (list int)) "the rest" [ 3 ] (Tq.take q ~max:2);
  Alcotest.(check (list int)) "closed and drained" [] (Tq.take q ~max:2);
  (* A blocked take wakes on a submit, and returns [] on close. *)
  let q = Tq.create ~cap:10 () in
  let got = ref [] in
  let taker =
    Thread.create
      (fun () ->
        let rec go () =
          match Tq.take q ~max:1 with
          | [] -> ()
          | l ->
            got := !got @ l;
            go ()
        in
        go ())
      ()
  in
  ignore (Tq.submit q ~tenant:"a" ~weight:1 7);
  ignore (Tq.submit q ~tenant:"a" ~weight:1 8);
  ignore (Tq.close q);
  Thread.join taker;
  Alcotest.(check (list int)) "a blocked taker drains, then stops" [ 7; 8 ] !got

let suite =
  [
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset out of range" `Quick test_bitset_out_of_range;
    Alcotest.test_case "bitset set ops" `Quick test_bitset_set_ops;
    Alcotest.test_case "bitset full/clear" `Quick test_bitset_full_clear;
    QCheck_alcotest.to_alcotest prop_bitset_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitset_union_commutes;
    QCheck_alcotest.to_alcotest prop_bitset_demorgan;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng categorical" `Quick test_prng_categorical;
    Alcotest.test_case "prng categorical invalid" `Quick test_prng_categorical_invalid;
    Alcotest.test_case "prng categorical = reference draws" `Quick
      test_prng_categorical_matches_reference;
    Alcotest.test_case "prng sample w/o replacement" `Quick
      test_prng_sample_without_replacement;
    Alcotest.test_case "prng beta mean" `Quick test_prng_beta_mean;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats precision/recall" `Quick test_stats_precision_recall;
    Alcotest.test_case "combinatorics" `Quick test_combin;
    QCheck_alcotest.to_alcotest prop_combinations_count;
    Alcotest.test_case "tenant queue: cap, quota, precedence" `Quick
      test_tq_cap_quota;
    Alcotest.test_case "tenant queue: weight-0 items" `Quick test_tq_weight_zero;
    Alcotest.test_case "tenant queue: FIFO per tenant, round-robin" `Quick
      test_tq_fifo_round_robin;
    Alcotest.test_case "tenant queue: close refuses, take drains" `Quick
      test_tq_close_drains;
  ]
