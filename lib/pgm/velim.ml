module Bitset = Psst_util.Bitset

(* Sorted distinct ids among the factors' scopes and [extra], by insertion:
   chain scopes arrive nearly sorted, so this is close to one pass. *)
let sorted_vars ?(extra = [||]) factors =
  let all = Array.concat (extra :: List.map Factor.vars factors) in
  let out = Array.make (Array.length all) 0 and n = ref 0 in
  Array.iter
    (fun v ->
      let j = ref !n in
      while !j > 0 && out.(!j - 1) > v do
        decr j
      done;
      if !j = 0 || out.(!j - 1) <> v then begin
        Array.blit out !j out (!j + 1) (!n - !j);
        out.(!j) <- v;
        incr n
      end)
    all;
  Array.sub out 0 !n

(* Position of [v] in the sorted array [ids] (which holds it). *)
let rec find ids v lo hi =
  let mid = (lo + hi) / 2 in
  if ids.(mid) = v then mid
  else if ids.(mid) < v then find ids v (mid + 1) hi
  else find ids v lo mid

(* Min-degree heuristic: repeatedly eliminate the variable whose bucket
   product has the smallest merged scope, the lowest variable id winning
   ties. The merged scope of [v] (the union of the scopes mentioning it)
   is its closed neighbourhood in the interaction graph, so the scopes are
   kept as one bitset per variable over dense indices (0 .. n-1 in
   increasing id order): eliminating [v] joins its neighbours into a
   clique, exactly as merging its bucket into one scope without [v]. Only
   those neighbours' costs change. *)
let elimination_order factors to_eliminate =
  let ids = sorted_vars ~extra:(Array.of_list to_eliminate) factors in
  let n = Array.length ids in
  let index v = find ids v 0 n in
  (* nbr.(i): the union of the current scopes mentioning variable i. *)
  let nbr = Array.init n (fun _ -> Bitset.create n) in
  List.iter
    (fun f ->
      let vars = Factor.vars f in
      let scope = Bitset.create n in
      Array.iter (fun v -> Bitset.add scope (index v)) vars;
      Array.iter (fun v -> Bitset.union_into nbr.(index v) scope) vars)
    factors;
  let cost = Array.map Bitset.cardinal nbr in
  (* Pending variables in increasing id order; the first [live] are left. *)
  let pending = sorted_vars ~extra:(Array.map index (Array.of_list to_eliminate)) [] in
  let live = ref (Array.length pending) in
  let order = Array.make !live 0 in
  for step = 0 to Array.length order - 1 do
    let best = ref 0 in
    for j = 1 to !live - 1 do
      if cost.(pending.(j)) < cost.(pending.(!best)) then best := j
    done;
    let v = pending.(!best) in
    Array.blit pending (!best + 1) pending !best (!live - !best - 1);
    decr live;
    let merged = nbr.(v) in
    Bitset.remove merged v;
    Bitset.iter
      (fun u ->
        Bitset.union_into nbr.(u) merged;
        Bitset.remove nbr.(u) v;
        cost.(u) <- Bitset.cardinal nbr.(u))
      merged;
    Bitset.clear merged;
    order.(step) <- ids.(v)
  done;
  Array.to_list order

let marginal factors keep =
  let elim =
    Array.fold_right
      (fun v acc -> if List.mem v keep then acc else v :: acc)
      (sorted_vars factors) []
  in
  let order = elimination_order factors elim in
  let work = ref factors in
  List.iter
    (fun v ->
      let touched, rest = List.partition (fun f -> Factor.mentions f v) !work in
      match touched with
      | [] -> ()
      | _ ->
        let prod = Factor.multiply_all touched in
        work := Factor.sum_out prod v :: rest)
    order;
  Factor.multiply_all !work

let partition_value factors = Factor.total (marginal factors [])

let prob ?z ~evidence factors =
  let z = match z with Some z -> z | None -> partition_value factors in
  if z <= 0. then invalid_arg "Velim.prob: zero partition value";
  let conditioned =
    List.map
      (fun f ->
        List.fold_left (fun f (v, b) -> Factor.condition f v b) f evidence)
      factors
  in
  Factor.total (marginal conditioned []) /. z

let prob_all_present ?z factors vars =
  prob ?z ~evidence:(List.map (fun v -> (v, true)) vars) factors
