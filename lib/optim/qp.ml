module Bitset = Psst_util.Bitset

type instance = {
  universe : int;
  sets : (Bitset.t * float * float) array;
}

type solution = { x : float array; objective : float; feasible : bool }

let objective inst x =
  let c = ref 0. and u = ref 0. in
  Array.iteri
    (fun i (_, wl, wu) ->
      c := !c +. (wl *. x.(i));
      u := !u +. (wu *. x.(i)))
    inst.sets;
  !c -. (!u *. !u)

let integer_objective inst ~chosen =
  let c = ref 0. and u = ref 0. in
  List.iter
    (fun i ->
      let _, wl, wu = inst.sets.(i) in
      c := !c +. wl;
      u := !u +. wu)
    chosen;
  !c -. (!u *. !u)

let integer_objective_safe inst ~chosen =
  let wl_total =
    List.fold_left (fun acc i -> let _, wl, _ = inst.sets.(i) in acc +. wl) 0. chosen
  in
  let cross =
    List.fold_left
      (fun acc (i, j) ->
        let _, _, wui = inst.sets.(i) and _, _, wuj = inst.sets.(j) in
        acc +. Float.min wui wuj)
      0.
      (Psst_util.Combin.pairs chosen)
  in
  wl_total -. cross

(* Sets covering each universe element, precomputed. *)
let covering_sets inst =
  Array.init inst.universe (fun e ->
      let l = ref [] in
      Array.iteri (fun i (s, _, _) -> if Bitset.mem s e then l := i :: !l) inst.sets;
      !l)

let coverage ?(eps = 1e-6) inst x =
  let cov = covering_sets inst in
  Array.for_all
    (fun sets_of_e ->
      List.fold_left (fun acc i -> acc +. x.(i)) 0. sets_of_e >= 1. -. eps)
    cov

let clamp lo hi v = Float.max lo (Float.min hi v)

(* Feasibility-preserving coordinate ascent. The objective
   wL·x - (wU·x)^2 restricted to one coordinate is a concave parabola, so
   the exact 1-D maximiser is available in closed form; the feasible
   interval for x_i given the others follows from the coverage rows of the
   sets containing each element of s_i. Starting from a feasible point,
   every sweep stays feasible and never decreases the objective. *)
let coordinate_ascent inst cov x =
  let n = Array.length inst.sets in
  (* coverage per element, maintained incrementally *)
  let cover_of = Array.make inst.universe 0. in
  Array.iteri
    (fun e sets_of_e ->
      cover_of.(e) <- List.fold_left (fun acc i -> acc +. x.(i)) 0. sets_of_e)
    cov;
  let u_dot = ref 0. in
  Array.iteri (fun i (_, _, wu) -> u_dot := !u_dot +. (wu *. x.(i))) inst.sets;
  let sweeps = 200 and tol = 1e-10 in
  let changed = ref true in
  let sweep = ref 0 in
  while !changed && !sweep < sweeps do
    changed := false;
    incr sweep;
    for i = 0 to n - 1 do
      let s, wl, wu = inst.sets.(i) in
      (* Feasible interval for x_i. *)
      let lo =
        Bitset.fold
          (fun e acc -> Float.max acc (1. -. (cover_of.(e) -. x.(i))))
          s 0.
      in
      let lo = clamp 0. 1. lo in
      let rest = !u_dot -. (wu *. x.(i)) in
      (* d/dxi [ wl*xi - (rest + wu*xi)^2 ] = wl - 2*wu*(rest + wu*xi) *)
      let target =
        if wu > 1e-12 then ((wl /. (2. *. wu)) -. rest) /. wu
        else if wl > 0. then 1.
        else lo
      in
      let x_new = clamp lo 1. target in
      if Float.abs (x_new -. x.(i)) > tol then begin
        let delta = x_new -. x.(i) in
        Bitset.iter (fun e -> cover_of.(e) <- cover_of.(e) +. delta) s;
        u_dot := !u_dot +. (wu *. delta);
        x.(i) <- x_new;
        changed := true
      end
    done
  done

let solve inst =
  let n = Array.length inst.sets in
  let cov = covering_sets inst in
  (* Multi-start: the all-ones point plus greedy integer covers by three
     different priorities; each start is feasible whenever the instance is
     coverable, and ascent preserves feasibility. *)
  let greedy_cover score =
    let x = Array.make n 0. in
    let covered = Array.make inst.universe false in
    let remaining = ref inst.universe in
    let progress = ref true in
    while !remaining > 0 && !progress do
      progress := false;
      let best = ref None in
      Array.iteri
        (fun i (s, wl, wu) ->
          if x.(i) = 0. then begin
            let gain =
              Bitset.fold (fun e acc -> if covered.(e) then acc else acc + 1) s 0
            in
            if gain > 0 then
              let sc = score gain wl wu in
              match !best with
              | Some (_, bs) when bs >= sc -> ()
              | _ -> best := Some (i, sc)
          end)
        inst.sets;
      match !best with
      | None -> ()
      | Some (i, _) ->
        progress := true;
        x.(i) <- 1.;
        let s, _, _ = inst.sets.(i) in
        Bitset.iter
          (fun e ->
            if not covered.(e) then begin
              covered.(e) <- true;
              decr remaining
            end)
          s
    done;
    x
  in
  let starts =
    [
      Array.make n 1.0;
      greedy_cover (fun gain wl _ -> (wl +. 1e-9) *. float_of_int gain);
      greedy_cover (fun gain _ wu -> float_of_int gain /. (wu +. 1e-3));
      greedy_cover (fun gain _ _ -> float_of_int gain);
    ]
  in
  let best = ref None in
  List.iter
    (fun x ->
      coordinate_ascent inst cov x;
      let obj = objective inst x in
      match !best with
      | Some (_, o) when o >= obj -> ()
      | _ -> best := Some (x, obj))
    starts;
  match !best with
  | None -> { x = [||]; objective = 0.; feasible = inst.universe = 0 }
  | Some (x, obj) -> { x; objective = obj; feasible = coverage inst x }
