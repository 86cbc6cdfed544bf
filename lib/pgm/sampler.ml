module Prng = Psst_util.Prng
module Bitset = Psst_util.Bitset

(* One factor of the chain. Its scope splits into [old_vars], covered by
   earlier factors, and [new_vars], drawn here; both keep scope order, so
   bit [j] of a slice index is [old_vars.(j)] and bit [j] of a drawn index
   is [new_vars.(j)]. Slice [s] is the factor conditioned on the old
   assignment [s] and normalised: [totals.(s)] is the categorical total of
   that normalised table and [cum.(s * width + i)] its running sum through
   entry [i]. A slice that cannot be drawn from keeps its error message in
   [errors.(s)], raised only if a draw reaches it. *)
type step = {
  old_vars : int array;
  new_vars : int array;
  totals : float array;
  cum : float array;
  errors : string array;
}

type compiled = { steps : step array; vars : int array (* sorted *) }

(* Tabulates every slice with exactly the float operations of
   [Factor.condition], [Factor.normalize] and [Prng.categorical]: the same
   entries, summed in the same order, divided by the same total. *)
let compile_step f ~old_pos ~new_pos =
  let vars = Factor.vars f in
  let nold = Array.length old_pos and nnew = Array.length new_pos in
  let width = 1 lsl nnew in
  let slices = 1 lsl nold in
  let scatter pos bits =
    let m = ref 0 in
    Array.iteri (fun j p -> if bits land (1 lsl j) <> 0 then m := !m lor (1 lsl p)) pos;
    !m
  in
  let totals = Array.make slices 0. and cum = Array.make (slices * width) 0. in
  let errors = Array.make slices "" in
  let slice = Array.make width 0. in
  for s = 0 to slices - 1 do
    let fixed = scatter old_pos s in
    for i = 0 to width - 1 do
      slice.(i) <- Factor.value f (fixed lor scatter new_pos i)
    done;
    let z = Array.fold_left ( +. ) 0. slice in
    if z <= 0. then errors.(s) <- "Factor.normalize: zero total"
    else begin
      let w = Array.map (fun x -> Float.max (x /. z) 0.) slice in
      let total = Array.fold_left ( +. ) 0. w in
      if total <= 0. then errors.(s) <- "Prng.categorical: non-positive weights";
      totals.(s) <- total;
      let acc = ref 0. in
      Array.iteri
        (fun i x ->
          acc := !acc +. x;
          cum.((s * width) + i) <- !acc)
        w
    end
  done;
  {
    old_vars = Array.map (fun p -> vars.(p)) old_pos;
    new_vars = Array.map (fun p -> vars.(p)) new_pos;
    totals;
    cum;
    errors;
  }

let compile factors =
  let covered = Hashtbl.create 32 in
  let steps =
    List.filter_map
      (fun f ->
        let vars = Factor.vars f in
        Array.iter
          (fun v -> if v < 0 then invalid_arg "Sampler.compile: negative variable")
          vars;
        let positions covered_now =
          List.filter
            (fun p -> Hashtbl.mem covered vars.(p) = covered_now)
            (List.init (Array.length vars) Fun.id)
          |> Array.of_list
        in
        let old_pos = positions true and new_pos = positions false in
        Array.iter (fun v -> Hashtbl.replace covered v ()) vars;
        if Array.length new_pos = 0 then None
        else Some (compile_step f ~old_pos ~new_pos))
      factors
  in
  let vars = Hashtbl.fold (fun v () acc -> v :: acc) covered [] |> List.sort compare in
  { steps = Array.of_list steps; vars = Array.of_list vars }

let draw c rng mask =
  for k = 0 to Array.length c.steps - 1 do
    let st = c.steps.(k) in
    let s = ref 0 in
    for j = 0 to Array.length st.old_vars - 1 do
      if Bitset.mem mask st.old_vars.(j) then s := !s lor (1 lsl j)
    done;
    let s = !s in
    if String.length st.errors.(s) > 0 then invalid_arg st.errors.(s);
    let x = Random.State.float rng st.totals.(s) in
    let last = (1 lsl Array.length st.new_vars) - 1 in
    let base = s * (last + 1) in
    let i = ref 0 in
    while !i < last && not (x < st.cum.(base + !i)) do
      incr i
    done;
    for j = 0 to Array.length st.new_vars - 1 do
      if !i land (1 lsl j) <> 0 then Bitset.add mask st.new_vars.(j)
    done
  done

let sample rng factors =
  let c = compile factors in
  let n = Array.length c.vars in
  let mask = Bitset.create (if n = 0 then 0 else c.vars.(n - 1) + 1) in
  draw c rng mask;
  let lookup v = v >= 0 && v < Bitset.capacity mask && Bitset.mem mask v in
  (lookup, Array.to_list (Array.map (fun v -> (v, Bitset.mem mask v)) c.vars))

let is_chain_consistent ~eps factors =
  let covered = Hashtbl.create 32 in
  List.for_all
    (fun f ->
      let vars = Factor.vars f in
      let old_vars = Array.to_list vars |> List.filter (Hashtbl.mem covered) in
      Array.iter (fun v -> Hashtbl.replace covered v ()) vars;
      (* Each assignment of the old vars must induce a sub-table over the new
         vars summing to 1 (or to 0 for impossible evidence — we require 1
         so that forward sampling never dead-ends). *)
      let reduced = Factor.marginal_onto f old_vars in
      let ok = ref true in
      Factor.iter_assignments reduced (fun _ total ->
          if Float.abs (total -. 1.) > eps then ok := false);
      !ok)
    factors
