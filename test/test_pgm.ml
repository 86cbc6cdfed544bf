module Prng = Psst_util.Prng

let coin p v = Factor.create [| v |] [| 1. -. p; p |]

let test_factor_create_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unsorted vars" true
    (bad (fun () -> Factor.create [| 2; 1 |] (Array.make 4 0.25)));
  Alcotest.(check bool) "duplicate vars" true
    (bad (fun () -> Factor.create [| 1; 1 |] (Array.make 4 0.25)));
  Alcotest.(check bool) "bad size" true
    (bad (fun () -> Factor.create [| 1 |] (Array.make 3 0.25)));
  Alcotest.(check bool) "negative entry" true
    (bad (fun () -> Factor.create [| 1 |] [| 0.5; -0.1 |]))

let test_factor_value () =
  (* Factor over vars {3,7}: index bit0 = var3, bit1 = var7. *)
  let f = Factor.create [| 3; 7 |] [| 0.1; 0.2; 0.3; 0.4 |] in
  Tgen.check_close "value 00" 0.1 (Factor.value f 0);
  Tgen.check_close "value var3=1" 0.2 (Factor.value f 1);
  Tgen.check_close "value var7=1" 0.3 (Factor.value f 2);
  Tgen.check_close "value_of" 0.4 (Factor.value_of f (fun _ -> true));
  Tgen.check_close "value_of mixed" 0.2 (Factor.value_of f (fun v -> v = 3))

let test_factor_multiply () =
  let a = coin 0.3 1 in
  let b = coin 0.6 2 in
  let p = Factor.multiply a b in
  Alcotest.(check (array int)) "merged scope" [| 1; 2 |] (Factor.vars p);
  Tgen.check_close "p(1=1,2=0)" (0.3 *. 0.4) (Factor.value p 1);
  Tgen.check_close "p(1=1,2=1)" (0.3 *. 0.6) (Factor.value p 3);
  (* Multiplying with overlap. *)
  let c = Factor.create [| 1; 2 |] [| 1.; 2.; 3.; 4. |] in
  let q = Factor.multiply a c in
  Tgen.check_close "overlap" (0.3 *. 2.) (Factor.value q 1)

let test_factor_sum_out () =
  let f = Factor.create [| 1; 2 |] [| 0.1; 0.2; 0.3; 0.4 |] in
  let g = Factor.sum_out f 1 in
  Alcotest.(check (array int)) "scope" [| 2 |] (Factor.vars g);
  Tgen.check_close "sum var2=0" 0.3 (Factor.value g 0);
  Tgen.check_close "sum var2=1" 0.7 (Factor.value g 1);
  (* Summing a non-scope variable is a no-op. *)
  let h = Factor.sum_out f 9 in
  Alcotest.(check (array int)) "noop" [| 1; 2 |] (Factor.vars h)

let test_factor_condition () =
  let f = Factor.create [| 1; 2 |] [| 0.1; 0.2; 0.3; 0.4 |] in
  let g = Factor.condition f 2 true in
  Alcotest.(check (array int)) "scope" [| 1 |] (Factor.vars g);
  Tgen.check_close "cond var1=0" 0.3 (Factor.value g 0);
  Tgen.check_close "cond var1=1" 0.4 (Factor.value g 1)

let test_factor_normalize_sample () =
  let f = Factor.create [| 0; 1 |] [| 0.; 1.; 0.; 3. |] in
  let n = Factor.normalize f in
  Tgen.check_close "total" 1.0 (Factor.total n);
  let rng = Prng.make 5 in
  for _ = 1 to 50 do
    let asg = Factor.sample rng n in
    (* var 0 must always be true (entries with var0=0 have weight 0). *)
    Alcotest.(check bool) "var0 true" true (List.assoc 0 asg)
  done

let test_scalar () =
  let s = Factor.scalar 0.25 in
  Alcotest.(check (array int)) "empty scope" [||] (Factor.vars s);
  Tgen.check_close "value" 0.25 (Factor.value s 0)

let prop_sum_out_preserves_total =
  QCheck.Test.make ~name:"sum_out preserves total mass" ~count:200
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, which) ->
      let rng = Prng.make (seed + 3) in
      let data = Array.init 8 (fun _ -> Prng.float rng 1.0) in
      let f = Factor.create [| 1; 4; 6 |] data in
      let v = [| 1; 4; 6 |].(which) in
      Tgen.close ~eps:1e-9 (Factor.total f) (Factor.total (Factor.sum_out f v)))

let prop_sum_out_commutes =
  QCheck.Test.make ~name:"sum_out order does not matter" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 17) in
      let data = Array.init 8 (fun _ -> Prng.float rng 1.0) in
      let f = Factor.create [| 0; 1; 2 |] data in
      let a = Factor.sum_out (Factor.sum_out f 0) 2 in
      let b = Factor.sum_out (Factor.sum_out f 2) 0 in
      Factor.equal_approx ~eps:1e-9 a b)

let prop_condition_then_sum =
  QCheck.Test.make ~name:"condition true + false = sum_out" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 19) in
      let data = Array.init 4 (fun _ -> Prng.float rng 1.0) in
      let f = Factor.create [| 2; 5 |] data in
      let t = Factor.condition f 5 true and fa = Factor.condition f 5 false in
      let sum =
        Factor.of_fun [| 2 |] (fun m -> Factor.value t m +. Factor.value fa m)
      in
      Factor.equal_approx ~eps:1e-9 sum (Factor.sum_out f 5))

let prop_multiply_commutes =
  QCheck.Test.make ~name:"multiply commutes" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 23) in
      let a = Factor.create [| 0; 2 |] (Array.init 4 (fun _ -> Prng.float rng 1.0)) in
      let b = Factor.create [| 1; 2 |] (Array.init 4 (fun _ -> Prng.float rng 1.0)) in
      Factor.equal_approx ~eps:1e-9 (Factor.multiply a b) (Factor.multiply b a))

(* --- Variable elimination --- *)

let chain3 () =
  (* P(a) P(b|a) P(c|b) over vars 0,1,2. *)
  let pa = coin 0.7 0 in
  let pb_a =
    (* vars [0;1]: bit0=a, bit1=b. b=1 w.p. 0.9 if a else 0.2. *)
    Factor.create [| 0; 1 |] [| 0.8; 0.1; 0.2; 0.9 |]
  in
  let pc_b = Factor.create [| 1; 2 |] [| 0.5; 0.3; 0.5; 0.7 |] in
  [ pa; pb_a; pc_b ]

let brute_joint factors vars f =
  let k = List.length vars in
  for mask = 0 to (1 lsl k) - 1 do
    let assign v =
      let rec idx i = function
        | [] -> invalid_arg "assign"
        | x :: rest -> if x = v then i else idx (i + 1) rest
      in
      mask land (1 lsl idx 0 vars) <> 0
    in
    let p = List.fold_left (fun acc fac -> acc *. Factor.value_of fac assign) 1. factors in
    f assign p
  done

let test_velim_partition () =
  Tgen.check_close ~eps:1e-9 "chain sums to 1" 1.0 (Velim.partition_value (chain3 ()))

let test_velim_marginal_vs_brute () =
  let factors = chain3 () in
  let m = Velim.marginal factors [ 2 ] in
  let brute = ref 0. in
  brute_joint factors [ 0; 1; 2 ] (fun assign p -> if assign 2 then brute := !brute +. p);
  Tgen.check_close ~eps:1e-9 "P(c=1)" !brute (Factor.value m 1)

let test_velim_prob_evidence () =
  let factors = chain3 () in
  let p = Velim.prob ~evidence:[ (0, true); (2, true) ] factors in
  let brute = ref 0. in
  brute_joint factors [ 0; 1; 2 ] (fun assign pr ->
      if assign 0 && assign 2 then brute := !brute +. pr);
  Tgen.check_close ~eps:1e-9 "P(a=1,c=1)" !brute p

let test_velim_prob_all_present () =
  let factors = chain3 () in
  let p = Velim.prob_all_present factors [ 0; 1 ] in
  Tgen.check_close ~eps:1e-9 "P(a,b)" (0.7 *. 0.9) p

let prop_velim_matches_bruteforce =
  QCheck.Test.make ~name:"velim marginal = brute force on random chains" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 61) in
      (* Random chain over 4 vars. *)
      let pa = coin (0.2 +. Prng.float rng 0.6) 0 in
      let cond v w =
        let p0 = 0.1 +. Prng.float rng 0.8 and p1 = 0.1 +. Prng.float rng 0.8 in
        Factor.create [| min v w; max v w |]
          (if v < w then [| 1. -. p0; 1. -. p1; p0; p1 |]
           else [| 1. -. p0; p0; 1. -. p1; p1 |])
      in
      (* cond builds P(w|v): careful with bit order; use v<w so bit0=v. *)
      let f1 = cond 0 1 and f2 = cond 1 2 and f3 = cond 2 3 in
      let factors = [ pa; f1; f2; f3 ] in
      let ev = [ (1, true); (3, false) ] in
      let velim_p = Velim.prob ~evidence:ev factors in
      let brute = ref 0. and z = ref 0. in
      brute_joint factors [ 0; 1; 2; 3 ] (fun assign p ->
          z := !z +. p;
          if assign 1 && not (assign 3) then brute := !brute +. p);
      Tgen.close ~eps:1e-9 velim_p (!brute /. !z))

(* --- Sampler --- *)

let test_sampler_chain_consistency () =
  Alcotest.(check bool) "chain3 consistent" true
    (Sampler.is_chain_consistent ~eps:1e-9 (chain3 ()));
  (* A non-normalised factor list is flagged. *)
  let bad = [ Factor.create [| 0 |] [| 0.5; 0.9 |] ] in
  Alcotest.(check bool) "bad chain flagged" false
    (Sampler.is_chain_consistent ~eps:1e-9 bad)

let test_sampler_frequencies () =
  let factors = chain3 () in
  let rng = Prng.make 99 in
  let n = 20000 in
  let count = ref 0 in
  for _ = 1 to n do
    let lookup, _ = Sampler.sample rng factors in
    if lookup 0 && lookup 1 then incr count
  done;
  let freq = float_of_int !count /. float_of_int n in
  let exact = Velim.prob_all_present factors [ 0; 1 ] in
  Alcotest.(check bool) "sampling frequency near exact" true
    (Float.abs (freq -. exact) < 0.02)

(* --- Compiled sampler and elimination order against their first versions ---

   The forward sampler conditioned and normalised every factor on every
   draw, and the elimination order was searched over [Set.Make (Int)]
   scopes. Both were rewritten for speed under a bit-identity rule; the
   originals are kept here as oracles. *)

module Iset = Set.Make (Int)

let oracle_sample rng factors =
  let assign = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let f' =
        Array.fold_left
          (fun f v ->
            match Hashtbl.find_opt assign v with
            | Some b -> Factor.condition f v b
            | None -> f)
          f (Factor.vars f)
      in
      if Array.length (Factor.vars f') > 0 then begin
        let f' = Factor.normalize f' in
        List.iter (fun (v, b) -> Hashtbl.replace assign v b) (Factor.sample rng f')
      end)
    factors;
  fun v -> match Hashtbl.find_opt assign v with Some b -> b | None -> false

let oracle_elimination_order factors to_eliminate =
  let to_eliminate = ref (Iset.of_list to_eliminate) in
  let scopes = ref (List.map (fun f -> Iset.of_list (Array.to_list (Factor.vars f))) factors) in
  let order = ref [] in
  while not (Iset.is_empty !to_eliminate) do
    let cost v =
      Iset.cardinal
        (List.fold_left
           (fun acc s -> if Iset.mem v s then Iset.union acc s else acc)
           Iset.empty !scopes)
    in
    let v =
      Iset.fold
        (fun v best ->
          match best with
          | None -> Some (v, cost v)
          | Some (_, c) ->
            let cv = cost v in
            if cv < c then Some (v, cv) else best)
        !to_eliminate None
      |> Option.get |> fst
    in
    let touched, rest = List.partition (Iset.mem v) !scopes in
    scopes := Iset.remove v (List.fold_left Iset.union Iset.empty touched) :: rest;
    to_eliminate := Iset.remove v !to_eliminate;
    order := v :: !order
  done;
  List.rev !order

(* A random chain-consistent factor list over sparse, shuffled variable
   ids: each factor draws 0-3 new variables given up to 3 covered ones,
   with zero entries and whole zero rows mixed in; a factor with no new
   variable is a table of ones. *)
let random_chain rng =
  let ids = Array.init (2 + Prng.int rng 9) (fun i -> (3 * i) + Prng.int rng 3) in
  Prng.shuffle rng ids;
  let covered = ref [] and next = ref 0 and factors = ref [] in
  while !next < Array.length ids do
    let fresh = min (Array.length ids - !next) (Prng.int rng 4) in
    let news = Array.to_list (Array.sub ids !next fresh) in
    next := !next + fresh;
    let olds = List.filter (fun _ -> Prng.bernoulli rng 0.4) !covered in
    let olds = List.filteri (fun i _ -> i < 3) olds in
    let scope = Array.of_list (List.sort compare (olds @ news)) in
    let is_new = Array.map (fun v -> List.mem v news) scope in
    let k = Array.length scope in
    let split mask =
      let o = ref 0 and n = ref 0 and no = ref 0 and nn = ref 0 in
      for p = 0 to k - 1 do
        let bit = if mask land (1 lsl p) <> 0 then 1 else 0 in
        if is_new.(p) then (n := !n lor (bit lsl !nn); incr nn)
        else (o := !o lor (bit lsl !no); incr no)
      done;
      (!o, !n)
    in
    let width = 1 lsl List.length news in
    let rows =
      Array.init (1 lsl List.length olds) (fun _ ->
          let w =
            Array.init width (fun _ ->
                if Prng.bernoulli rng 0.25 then 0. else Prng.float rng 1.)
          in
          if Array.for_all (fun x -> x = 0.) w then w.(Prng.int rng width) <- 1.;
          let z = Array.fold_left ( +. ) 0. w in
          Array.map (fun x -> x /. z) w)
    in
    let data =
      Array.init (1 lsl k) (fun mask ->
          let o, n = split mask in
          rows.(o).(n))
    in
    factors := Factor.create scope data :: !factors;
    covered := news @ !covered
  done;
  List.rev !factors

let prop_compiled_sampler_matches_oracle =
  QCheck.Test.make ~name:"compiled sampler = conditioning sampler, draw for draw"
    ~count:200 QCheck.small_int
    (fun seed ->
      let factors = random_chain (Prng.make (seed + 5)) in
      let vars = List.concat_map (fun f -> Array.to_list (Factor.vars f)) factors in
      let cap = 1 + List.fold_left max 0 vars in
      let compiled = Sampler.compile factors in
      let a = Prng.make seed and b = Prng.make seed and c = Prng.make seed in
      let same = ref true in
      for _ = 1 to 200 do
        let expect = oracle_sample a factors in
        let mask = Psst_util.Bitset.create cap in
        Sampler.draw compiled b mask;
        let lookup, _ = Sampler.sample c factors in
        List.iter
          (fun v ->
            if expect v <> Psst_util.Bitset.mem mask v || expect v <> lookup v then
              same := false)
          vars
      done;
      let bits = List.map Random.State.bits [ a; b; c ] in
      !same && List.for_all (( = ) (List.hd bits)) bits)

let prop_elimination_order_matches_oracle =
  QCheck.Test.make ~name:"elimination order = Set-based min-degree order" ~count:300
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 3) in
      let factors =
        List.init (Prng.int rng 8) (fun _ ->
            let scope =
              List.sort_uniq compare (List.init (Prng.int rng 5) (fun _ -> Prng.int rng 16))
            in
            Factor.create (Array.of_list scope)
              (Array.make (1 lsl List.length scope) 0.5))
      in
      let elim = List.filter (fun _ -> Prng.bernoulli rng 0.7) (List.init 18 Fun.id) in
      Velim.elimination_order factors elim = oracle_elimination_order factors elim)

let prop_prob_cached_z_bit_identical =
  QCheck.Test.make ~name:"prob ~z = uncached prob, bit for bit" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 71) in
      let g = Tgen.random_pgraph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
      let factors = Pgraph.factors g in
      let ev =
        List.filter_map
          (fun v -> if Prng.bernoulli rng 0.4 then Some (v, Prng.bernoulli rng 0.5) else None)
          (Pgraph.uncertain_edges g)
      in
      let bits = Int64.bits_of_float in
      let z = Pgraph.partition_value g in
      bits z = bits (Velim.partition_value factors)
      && bits (Velim.prob ~z ~evidence:ev factors) = bits (Velim.prob ~evidence:ev factors)
      && bits (Velim.prob_all_present ~z factors (List.map fst ev))
         = bits (Velim.prob_all_present factors (List.map fst ev)))

(* --- The elimination kernel against the Factor-primitive loop ---

   [Velim] runs every query through one fused kernel that reads evidence
   in place and builds no intermediate product. Its contract is that each
   float is the one the plain loop gives: condition copies of the factors,
   then for each variable of the min-degree order multiply the work-list
   tables that mention it (newest first, then the inputs in input order)
   and sum it out. That loop is rebuilt here from [Factor] primitives and
   the Set-based order above, and compared bit for bit, errors included. *)

let reference_marginal factors keep =
  let elim =
    List.concat_map (fun f -> Array.to_list (Factor.vars f)) factors
    |> List.sort_uniq compare
    |> List.filter (fun v -> not (List.mem v keep))
  in
  let work = ref factors in
  List.iter
    (fun v ->
      let touched, rest = List.partition (fun f -> Array.mem v (Factor.vars f)) !work in
      if touched <> [] then work := Factor.sum_out (Factor.multiply_all touched) v :: rest)
    (oracle_elimination_order factors elim);
  Factor.multiply_all !work

let reference_prob ?z ~evidence factors =
  let z =
    match z with Some z -> z | None -> Factor.total (reference_marginal factors [])
  in
  if z <= 0. then invalid_arg "Velim.prob: zero partition value";
  let conditioned =
    List.map
      (fun f -> List.fold_left (fun f (v, b) -> Factor.condition f v b) f evidence)
      factors
  in
  Factor.total (reference_marginal conditioned []) /. z

(* A computation's outcome as comparable bits: the float bits of every
   entry (and the scope, for a factor), or the exception's message. *)
let outcome f =
  match f () with
  | fs -> Ok (List.map Int64.bits_of_float fs)
  | exception Invalid_argument msg -> Error msg

(* One polarity of [Velim.prob_set], raising its error as a call asking
   that polarity alone would. *)
let prob_set_one ?z ~value plan set =
  let present, absent = Velim.prob_set ?z plan set in
  match if value then present else absent with Ok p -> p | Error e -> raise e

let factor_outcome f =
  match f () with
  | m ->
    let k = Array.length (Factor.vars m) in
    Ok (Factor.vars m, Array.init (1 lsl k) (fun i -> Int64.bits_of_float (Factor.value m i)))
  | exception Invalid_argument msg -> Error msg

let same_as_reference ?(keep = []) ~evidence factors =
  let z = outcome (fun () -> [ Factor.total (reference_marginal factors []) ]) in
  z = outcome (fun () -> [ Velim.partition_value factors ])
  && outcome (fun () -> [ reference_prob ~evidence factors ])
     = outcome (fun () -> [ Velim.prob ~evidence factors ])
  && factor_outcome (fun () -> reference_marginal factors keep)
     = factor_outcome (fun () -> Velim.marginal factors keep)

(* Random factor lists over ids 0..15: random scopes of 0-4 variables
   (scalars included), tables with zeros, occasionally all zero. *)
let random_factors rng =
  List.init (Prng.int rng 9) (fun _ ->
      let scope =
        List.sort_uniq compare (List.init (Prng.int rng 5) (fun _ -> Prng.int rng 16))
      in
      let allzero = Prng.bernoulli rng 0.05 in
      Factor.create (Array.of_list scope)
        (Array.init (1 lsl List.length scope) (fun _ ->
             if allzero || Prng.bernoulli rng 0.2 then 0. else Prng.float rng 2.)))

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = Factor-primitive elimination, bit for bit"
    ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 113) in
      let factors = random_factors rng in
      (* Evidence with duplicates and conflicts (the first occurrence
         wins), on absent ids (16-19) and on negative ids. *)
      let evidence =
        List.init (Prng.int rng 7) (fun _ ->
            (Prng.int rng 22 - 2, Prng.bernoulli rng 0.5))
      in
      let keep = List.filter (fun _ -> Prng.bernoulli rng 0.3) (List.init 20 Fun.id) in
      (* [Velim.prob_set]'s set: members among ids 0-19, absent ones
         (16-19) included, possibly empty. *)
      let set = Psst_util.Bitset.create 20 in
      List.iter
        (fun v -> if Prng.bernoulli rng 0.3 then Psst_util.Bitset.add set v)
        (List.init 20 Fun.id);
      let set_evidence value =
        List.map (fun v -> (v, value)) (Psst_util.Bitset.elements set)
      in
      let bits = List.map Int64.bits_of_float in
      let plan = Velim.plan factors in
      same_as_reference ~keep ~evidence factors
      && List.for_all
           (fun value ->
             outcome (fun () ->
                 [ reference_prob ~evidence:(set_evidence value) factors ])
             = outcome (fun () -> [ prob_set_one ~value plan set ]))
           [ true; false ]
      && (match outcome (fun () -> [ Velim.partition_value factors ]) with
         | Ok [ z ] when Int64.float_of_bits z > 0. ->
           let z = Int64.float_of_bits z in
           let vars = List.map fst evidence in
           outcome (fun () -> [ reference_prob ~z ~evidence factors ])
           = outcome (fun () -> [ Velim.prob ~z ~evidence factors ])
           && bits [ Velim.prob_all_present ~z factors vars ]
              = bits
                  [ reference_prob ~z ~evidence:(List.map (fun v -> (v, true)) vars) factors ]
           && List.for_all
                (fun value ->
                  outcome (fun () ->
                      [ reference_prob ~z ~evidence:(set_evidence value) factors ])
                  = outcome (fun () -> [ prob_set_one ~z ~value plan set ]))
                [ true; false ]
         | _ -> true))

let test_kernel_edge_cases () =
  let check name ?keep ~evidence factors =
    Alcotest.(check bool) name true (same_as_reference ?keep ~evidence factors)
  in
  check "empty factor list" ~keep:[ 3 ] ~evidence:[ (1, true) ] [];
  check "scalars only" ~evidence:[] [ Factor.scalar 0.5; Factor.scalar 3. ];
  (* A chain of 120 variables: scopes past one machine word of mask. *)
  let rng = Prng.make 7 in
  let chain =
    coin 0.3 0
    :: List.init 119 (fun i ->
           let p0 = Prng.float rng 1. and p1 = Prng.float rng 1. in
           Factor.create [| i; i + 1 |] [| 1. -. p0; 1. -. p1; p0; p1 |])
  in
  check "120-variable chain" ~keep:[ 0; 64; 119 ]
    ~evidence:[ (5, true); (63, false); (64, true); (100, true); (5, false) ] chain;
  (* Zero partition value: prob raises before eliminating. *)
  let zero = [ Factor.create [| 0 |] [| 0.; 0. |] ] in
  check "zero partition" ~evidence:[ (0, true) ] zero;
  Alcotest.check_raises "zero partition message"
    (Invalid_argument "Velim.prob: zero partition value") (fun () ->
      ignore (Velim.prob ~evidence:[] zero));
  (* A bucket wider than Factor.max_vars: a star of 21 pairwise factors. *)
  let star =
    coin 0.4 0
    :: List.init 20 (fun i -> Factor.create [| 0; i + 1 |] [| 0.7; 0.3; 0.3; 0.7 |])
  in
  check "scope too large" ~keep:(List.init 20 (fun i -> i + 1)) ~evidence:[] star;
  Alcotest.check_raises "scope too large message"
    (Invalid_argument "Factor.multiply: scope too large") (fun () ->
      ignore (Velim.marginal star (List.init 20 (fun i -> i + 1))));
  (* An infinite entry times a zero one is NaN. *)
  let nan =
    [ Factor.create [| 0 |] [| infinity; 0. |]; Factor.create [| 0 |] [| 0.; 1. |] ]
  in
  check "NaN product" ~evidence:[] nan;
  Alcotest.check_raises "NaN product message"
    (Invalid_argument "Factor.create: negative or NaN entry") (fun () ->
      ignore (Velim.partition_value nan))

(* --- Evidence-local elimination: plans against the reference loop ---

   [Velim.prob_set] eliminates only the components of the factor graph
   its set touches and merges the others' recorded pick streams. These
   lists have three or more components, chains and stars over
   interleaved ids (so min-degree ties fall between components), one
   factor of 9-10 variables, as the corpus's JPTs have, inputs of all
   components interleaved, and scalars among them. *)

let random_table rng k =
  Array.init (1 lsl k) (fun _ -> if Prng.bernoulli rng 0.1 then 0. else Prng.float rng 2.)

let random_factor rng scope =
  let scope = List.sort compare scope in
  Factor.create (Array.of_list scope) (random_table rng (List.length scope))

(* The factors, in a random input order, and each component's ids. *)
let component_factors rng =
  let shapes =
    `Wide :: List.init (2 + Prng.int rng 3) (fun _ -> if Prng.bernoulli rng 0.5 then `Chain else `Star)
  in
  let sizes = List.map (function `Wide -> 9 + Prng.int rng 2 | _ -> 2 + Prng.int rng 4) shapes in
  let ids = Array.init (List.fold_left ( + ) 0 sizes) Fun.id in
  Prng.shuffle rng ids;
  let next = ref 0 in
  let comps =
    List.map
      (fun k ->
        let vs = Array.to_list (Array.sub ids !next k) in
        next := !next + k;
        vs)
      sizes
  in
  let own shape vs =
    match (shape, vs) with
    | `Wide, v :: _ -> [ random_factor rng [ v ]; random_factor rng vs ]
    | `Chain, v :: _ ->
      random_factor rng [ v ]
      :: List.map2 (fun a b -> random_factor rng [ a; b ])
           (List.filteri (fun i _ -> i < List.length vs - 1) vs) (List.tl vs)
    | `Star, c :: leaves -> random_factor rng [ c ] :: List.map (fun l -> random_factor rng [ c; l ]) leaves
    | _, [] -> []
  in
  let scalars = List.init (Prng.int rng 3) (fun _ -> Factor.scalar (Prng.float rng 2.)) in
  let factors = Array.of_list (scalars @ List.concat (List.map2 own shapes comps)) in
  Prng.shuffle rng factors;
  (Array.to_list factors, comps)

let prop_plan_matches_reference =
  QCheck.Test.make ~name:"plan: sets touching no, one or every component = reference"
    ~count:150 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 307) in
      let factors, comps = component_factors rng in
      let total = List.fold_left (fun n c -> n + List.length c) 0 comps in
      let some vs =
        match List.filter (fun _ -> Prng.bernoulli rng 0.4) vs with [] -> [ List.hd vs ] | l -> l
      in
      let sets =
        [ [ total; total + 1 ] (* absent ids only *);
          some (List.nth comps (Prng.int rng (List.length comps)));
          List.concat_map some comps ]
      in
      let plan = Velim.plan factors in
      let z = outcome (fun () -> [ Velim.partition_value factors ]) in
      List.for_all
        (fun members ->
          let set = Psst_util.Bitset.of_list (total + 2) members in
          List.for_all
            (fun value ->
              let evidence = List.map (fun v -> (v, value)) members in
              outcome (fun () -> [ reference_prob ~evidence factors ])
              = outcome (fun () -> [ prob_set_one ~value plan set ])
              &&
              match z with
              | Ok [ z ] when Int64.float_of_bits z > 0. ->
                let z = Int64.float_of_bits z in
                outcome (fun () -> [ reference_prob ~z ~evidence factors ])
                = outcome (fun () -> [ prob_set_one ~z ~value plan set ])
              | _ -> true)
            [ true; false ])
        sets)

(* A component no elimination order can eliminate within
   [Factor.max_vars]: three 16-variable factors, every variable in two of
   them, so every bucket spans 24 variables. Evidence on eight of its
   variables makes it feasible. *)
let test_plan_wide_component () =
  let rng = Prng.make 5 in
  let wide =
    [ random_factor rng (List.init 16 Fun.id);
      random_factor rng (List.init 16 (fun i -> i + 8));
      random_factor rng (List.init 8 Fun.id @ List.init 8 (fun i -> i + 16)) ]
  in
  let chain = [ coin 0.3 30; Factor.create [| 30; 31 |] [| 0.6; 0.2; 0.4; 0.8 |] ] in
  let factors = chain @ wide in
  let plan = Velim.plan factors in
  let set members = Psst_util.Bitset.of_list 32 members in
  let same name members =
    List.iter
      (fun value ->
        let evidence = List.map (fun v -> (v, value)) members in
        Alcotest.(check bool) name true
          (outcome (fun () -> [ Velim.prob ~z:1. ~evidence factors ])
           = outcome (fun () -> [ prob_set_one ~z:1. ~value plan (set members) ])))
      [ true; false ]
  in
  same "untouched wide component raises" [ 31 ];
  same "no member raises" [];
  same "touched wide component" (List.init 8 Fun.id);
  same "both touched" (31 :: List.init 8 Fun.id);
  Alcotest.check_raises "untouched: scope too large"
    (Invalid_argument "Factor.multiply: scope too large") (fun () ->
      ignore (prob_set_one ~z:1. ~value:true plan (set [ 30 ])));
  Alcotest.check_raises "no z: the partition value raises"
    (Invalid_argument "Factor.multiply: scope too large") (fun () ->
      ignore (prob_set_one ~value:true plan (set (List.init 8 Fun.id))));
  let p = prob_set_one ~z:1. ~value:false plan (set (List.init 8 Fun.id)) in
  Alcotest.(check bool) "touched: a probability" true (p >= 0.);
  Alcotest.(check bool) "touched = reference" true
    (outcome (fun () -> [ p ])
     = outcome (fun () ->
           [ reference_prob ~z:1. ~evidence:(List.init 8 (fun v -> (v, false))) factors ]))

(* [Velim.prob_set] answers both polarities from one posing and one
   order. Each side must be the reference loop's float or error for that
   polarity alone. The lists are [component_factors]' with some entries
   made infinite, so a product meets [infinity *. 0.] (NaN) under one
   polarity and not the other, and sometimes with the too-wide component
   of [test_plan_wide_component] beside them; the sets are empty, absent
   ids only, part of one component, part of every component, and part of
   every component with enough of the wide one to make it feasible. *)
let prop_paired_polarities =
  QCheck.Test.make ~name:"plan: paired polarities = reference, errors per polarity"
    ~count:80 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 401) in
      let factors, comps = component_factors rng in
      let factors =
        List.map
          (fun f ->
            let vars = Factor.vars f in
            if Array.length vars = 0 || not (Prng.bernoulli rng 0.2) then f
            else
              let k = Array.length vars in
              Factor.create vars
                (Array.init (1 lsl k) (fun i ->
                     if Prng.bernoulli rng 0.3 then infinity else Factor.value f i)))
          factors
      in
      let total = List.fold_left (fun n c -> n + List.length c) 0 comps in
      let wide_ids = List.init 24 (fun i -> total + i) in
      let with_wide = Prng.bernoulli rng 0.25 in
      let factors =
        if not with_wide then factors
        else
          factors
          @ [ random_factor rng (List.filteri (fun i _ -> i < 16) wide_ids);
              random_factor rng (List.filteri (fun i _ -> i >= 8) wide_ids);
              random_factor rng (List.filteri (fun i _ -> i < 8 || i >= 16) wide_ids) ]
      in
      let some vs =
        match List.filter (fun _ -> Prng.bernoulli rng 0.4) vs with [] -> [ List.hd vs ] | l -> l
      in
      let every = List.concat_map some comps in
      let sets =
        [ [];
          [ total + 24; total + 25 ];
          some (List.nth comps (Prng.int rng (List.length comps)));
          every ]
        @ if with_wide then [ every @ List.filteri (fun i _ -> i < 8) wide_ids ] else []
      in
      let plan = Velim.plan factors in
      let side value (present, absent) =
        match if value then present else absent with
        | Ok p -> Ok [ Int64.bits_of_float p ]
        | Error (Invalid_argument msg) -> Error msg
        | Error e -> raise e
      in
      List.for_all
        (fun members ->
          let set = Psst_util.Bitset.of_list (total + 26) members in
          let paired = Velim.prob_set plan set and paired_z = Velim.prob_set ~z:0.75 plan set in
          List.for_all
            (fun value ->
              let evidence = List.map (fun v -> (v, value)) members in
              outcome (fun () -> [ reference_prob ~evidence factors ]) = side value paired
              && outcome (fun () -> [ reference_prob ~z:0.75 ~evidence factors ])
                 = side value paired_z)
            [ true; false ])
        sets)

(* A NaN under one polarity only: [f] is infinite at u = v = 1 and [g]
   zero at v = 1, so with u true eliminating v meets [infinity *. 0.],
   and with u false it does not. The other side keeps the float a call
   for it alone returns. *)
let test_paired_error_one_polarity () =
  let case name ~nan_at ~fails =
    let f = Factor.create [| 0; 1 |] (Array.init 4 (fun i -> if i = nan_at then infinity else 0.25)) in
    let factors = [ f; Factor.create [| 1 |] [| 1.; 0. |]; coin 0.3 2 ] in
    let set = Psst_util.Bitset.of_list 3 [ 0 ] in
    let present, absent = Velim.prob_set ~z:1. (Velim.plan factors) set in
    let failed, kept = if fails then (present, absent) else (absent, present) in
    Alcotest.(check bool) (name ^ ": one side raises NaN") true
      (match failed with
       | Error (Invalid_argument msg) -> msg = "Factor.create: negative or NaN entry"
       | _ -> false);
    let expected = reference_prob ~z:1. ~evidence:[ (0, not fails) ] factors in
    Alcotest.(check bool) (name ^ ": the other side = its own call") true
      (match kept with
       | Ok p -> Int64.bits_of_float p = Int64.bits_of_float expected
       | Error _ -> false)
  in
  (* entry index u + 2v *)
  case "present NaN" ~nan_at:3 ~fails:true;
  case "absent NaN" ~nan_at:2 ~fails:false

(* --- Junction tree --- *)

let test_jtree_build_requires_rip () =
  (* Factor over {0,1}, then {2,3}, then one mentioning {1,2}: its covered
     vars {1,2} span two earlier factors -> rejected. *)
  let f01 = Factor.create [| 0; 1 |] (Array.make 4 0.25) in
  let f23 = Factor.create [| 2; 3 |] (Array.make 4 0.25) in
  let f12 = Factor.create [| 1; 2 |] (Array.make 4 0.25) in
  (try
     ignore (Jtree.build [ f01; f23; f12 ]);
     Alcotest.fail "RIP violation not detected"
   with Invalid_argument _ -> ());
  (* The same factors in a chain order are fine. *)
  ignore (Jtree.build [ f01; f12; f23 ])

let test_jtree_evidence_prob_matches_velim () =
  let factors = chain3 () in
  let jt = Jtree.build factors in
  let cases =
    [ []; [ (0, true) ]; [ (1, false) ]; [ (0, true); (2, true) ];
      [ (0, false); (1, true); (2, false) ] ]
  in
  List.iter
    (fun ev ->
      let via_jt = Jtree.evidence_prob jt ev in
      let via_velim = if ev = [] then 1. else Velim.prob ~evidence:ev factors in
      Tgen.check_close ~eps:1e-9 "evidence prob" via_velim via_jt)
    cases

let test_jtree_variables () =
  let jt = Jtree.build (chain3 ()) in
  Alcotest.(check (list int)) "variables" [ 0; 1; 2 ] (Jtree.variables jt)

let test_jtree_posterior_respects_evidence () =
  let factors = chain3 () in
  let jt = Jtree.build factors in
  let rng = Prng.make 5 in
  for _ = 1 to 200 do
    match Jtree.sample_posterior rng jt ~evidence:[ (0, true); (2, false) ] with
    | None -> Alcotest.fail "evidence has positive probability"
    | Some (lookup, _) ->
      Alcotest.(check bool) "var0" true (lookup 0);
      Alcotest.(check bool) "var2" false (lookup 2)
  done

let test_jtree_posterior_frequencies () =
  (* Empirical P(b=1 | c=1) from posterior samples vs exact. *)
  let factors = chain3 () in
  let jt = Jtree.build factors in
  let rng = Prng.make 17 in
  let n = 20000 in
  let count = ref 0 in
  for _ = 1 to n do
    match Jtree.sample_posterior rng jt ~evidence:[ (2, true) ] with
    | None -> Alcotest.fail "positive evidence"
    | Some (lookup, _) -> if lookup 1 then incr count
  done;
  let freq = float_of_int !count /. float_of_int n in
  let exact =
    Velim.prob ~evidence:[ (1, true); (2, true) ] factors
    /. Velim.prob ~evidence:[ (2, true) ] factors
  in
  Alcotest.(check bool)
    (Printf.sprintf "posterior freq %.3f vs exact %.3f" freq exact)
    true
    (Float.abs (freq -. exact) < 0.02)

let test_jtree_posterior_impossible () =
  let factors = [ Factor.create [| 0 |] [| 0.; 1. |] ] in
  let jt = Jtree.build factors in
  match Jtree.sample_posterior (Prng.make 1) jt ~evidence:[ (0, false) ] with
  | None -> ()
  | Some _ -> Alcotest.fail "impossible evidence must be None"

let prop_jtree_matches_velim_on_random_chains =
  QCheck.Test.make ~name:"jtree evidence prob = velim on random pgraph factors"
    ~count:50 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 91) in
      let g = Tgen.random_pgraph rng ~n:5 ~extra:2 ~vl:2 ~el:1 in
      let factors = Pgraph.factors g in
      let jt = Jtree.build factors in
      let vars = List.concat_map (fun f -> Array.to_list (Factor.vars f)) factors
                 |> List.sort_uniq compare in
      let ev =
        List.filteri (fun i _ -> i mod 2 = 0) vars
        |> List.map (fun v -> (v, Prng.bernoulli rng 0.5))
      in
      ev = []
      || Tgen.close ~eps:1e-9 (Velim.prob ~evidence:ev factors)
           (Jtree.evidence_prob jt ev))

(* Z read from a plan is the whole-list elimination's float, bit for bit
   and errors included: over the kernel's random lists (scalars, zeros,
   all-zero tables), the plan's component lists (a wide factor among
   them), and a probabilistic graph's memoised plan. *)
let prop_plan_partition_value =
  QCheck.Test.make ~name:"plan Z = whole-list partition value, bit for bit"
    ~count:200 QCheck.small_int
    (fun seed ->
      let same factors =
        outcome (fun () -> [ Velim.plan_partition_value (Velim.plan factors) ])
        = outcome (fun () -> [ Velim.partition_value factors ])
      in
      let g =
        Tgen.random_pgraph (Prng.make (seed + 401)) ~n:(4 + (seed mod 5)) ~extra:3 ~vl:2
          ~el:1
      in
      same (random_factors (Prng.make (seed + 113)))
      && same (fst (component_factors (Prng.make (seed + 307))))
      && outcome (fun () -> [ Pgraph.partition_value g ])
         = outcome (fun () -> [ Velim.partition_value (Pgraph.factors g) ])
      && Pgraph.plan g == Pgraph.plan g)

let suite =
  [
    Alcotest.test_case "factor create validation" `Quick test_factor_create_validation;
    Alcotest.test_case "factor value" `Quick test_factor_value;
    Alcotest.test_case "factor multiply" `Quick test_factor_multiply;
    Alcotest.test_case "factor sum_out" `Quick test_factor_sum_out;
    Alcotest.test_case "factor condition" `Quick test_factor_condition;
    Alcotest.test_case "factor normalize/sample" `Quick test_factor_normalize_sample;
    Alcotest.test_case "factor scalar" `Quick test_scalar;
    QCheck_alcotest.to_alcotest prop_sum_out_preserves_total;
    QCheck_alcotest.to_alcotest prop_sum_out_commutes;
    QCheck_alcotest.to_alcotest prop_condition_then_sum;
    QCheck_alcotest.to_alcotest prop_multiply_commutes;
    Alcotest.test_case "velim partition" `Quick test_velim_partition;
    Alcotest.test_case "velim marginal vs brute" `Quick test_velim_marginal_vs_brute;
    Alcotest.test_case "velim prob evidence" `Quick test_velim_prob_evidence;
    Alcotest.test_case "velim prob_all_present" `Quick test_velim_prob_all_present;
    QCheck_alcotest.to_alcotest prop_velim_matches_bruteforce;
    Alcotest.test_case "sampler chain consistency" `Quick test_sampler_chain_consistency;
    Alcotest.test_case "sampler frequencies" `Quick test_sampler_frequencies;
    QCheck_alcotest.to_alcotest prop_compiled_sampler_matches_oracle;
    QCheck_alcotest.to_alcotest prop_elimination_order_matches_oracle;
    QCheck_alcotest.to_alcotest prop_prob_cached_z_bit_identical;
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
    Alcotest.test_case "kernel edge cases = reference" `Quick test_kernel_edge_cases;
    Alcotest.test_case "jtree RIP validation" `Quick test_jtree_build_requires_rip;
    Alcotest.test_case "jtree evidence prob" `Quick test_jtree_evidence_prob_matches_velim;
    Alcotest.test_case "jtree variables" `Quick test_jtree_variables;
    Alcotest.test_case "jtree posterior respects evidence" `Quick
      test_jtree_posterior_respects_evidence;
    Alcotest.test_case "jtree posterior frequencies" `Slow
      test_jtree_posterior_frequencies;
    Alcotest.test_case "jtree impossible evidence" `Quick test_jtree_posterior_impossible;
    QCheck_alcotest.to_alcotest prop_jtree_matches_velim_on_random_chains;
    QCheck_alcotest.to_alcotest prop_plan_matches_reference;
    Alcotest.test_case "plan: a too-wide component raises only untouched" `Quick
      test_plan_wide_component;
    QCheck_alcotest.to_alcotest prop_plan_partition_value;
    QCheck_alcotest.to_alcotest prop_paired_polarities;
    Alcotest.test_case "plan: a NaN under one polarity leaves the other" `Quick
      test_paired_error_one_polarity;
  ]
