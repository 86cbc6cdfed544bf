type t = { vars : int array; data : float array }

let max_vars = 20

let is_sorted_distinct a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

let create vars data =
  let k = Array.length vars in
  if k > max_vars then invalid_arg "Factor.create: scope too large";
  if not (is_sorted_distinct vars) then
    invalid_arg "Factor.create: vars must be sorted and distinct";
  if Array.length data <> 1 lsl k then invalid_arg "Factor.create: data size";
  if Array.exists (fun x -> x < 0. || Float.is_nan x) data then
    invalid_arg "Factor.create: negative or NaN entry";
  { vars = Array.copy vars; data = Array.copy data }

let of_fun vars f =
  let k = Array.length vars in
  create vars (Array.init (1 lsl k) f)

let scalar x = create [||] [| x |]

let vars t = Array.copy t.vars

(* Position of [v] in the scope, or -1. *)
let index_of t v =
  let rec go i =
    if i >= Array.length t.vars then -1 else if t.vars.(i) = v then i else go (i + 1)
  in
  go 0

let value t mask = t.data.(mask)

let value_of t assign =
  let mask = ref 0 in
  for i = 0 to Array.length t.vars - 1 do
    if assign t.vars.(i) then mask := !mask lor (1 lsl i)
  done;
  t.data.(!mask)

(* The table operations below build their results directly rather than
   through [create]; each keeps [create]'s entry check, so they accept and
   reject exactly what they did when they went through it. *)
let checked vars data =
  for i = 0 to Array.length data - 1 do
    (* false exactly for negative and NaN entries *)
    if not (data.(i) >= 0.) then invalid_arg "Factor.create: negative or NaN entry"
  done;
  { vars; data }

(* Union of two sorted, distinct scopes, sorted. *)
let merge_scopes a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na && j = nb then k
    else if j = nb || (i < na && a.(i) < b.(j)) then (out.(k) <- a.(i); go (i + 1) j (k + 1))
    else if i = na || b.(j) < a.(i) then (out.(k) <- b.(j); go i (j + 1) (k + 1))
    else (out.(k) <- a.(i); go (i + 1) (j + 1) (k + 1))
  in
  Array.sub out 0 (go 0 0 0)

(* [project positions mask]: the local mask of a sub-scope whose variable
   [i] sits at bit [positions.(i)] of [mask]. *)
let project positions mask =
  let m = ref 0 in
  for i = 0 to Array.length positions - 1 do
    if mask land (1 lsl positions.(i)) <> 0 then m := !m lor (1 lsl i)
  done;
  !m

let multiply a b =
  let vars = merge_scopes a.vars b.vars in
  if Array.length vars > max_vars then invalid_arg "Factor.multiply: scope too large";
  (* Positions of each source variable within the merged scope. *)
  let pos_in src =
    Array.map
      (fun v ->
        let rec go i = if vars.(i) = v then i else go (i + 1) in
        go 0)
      src.vars
  in
  let pa = pos_in a and pb = pos_in b in
  let data = Array.create_float (1 lsl Array.length vars) in
  for mask = 0 to Array.length data - 1 do
    data.(mask) <- a.data.(project pa mask) *. b.data.(project pb mask)
  done;
  checked vars data

let multiply_all = function
  | [] -> scalar 1.
  | f :: rest -> List.fold_left multiply f rest

(* Scope [vars] without position [i], and the mask of the old scope that
   places local mask [m] of the new one around a hole at bit [i]. *)
let remove_at vars i =
  Array.append (Array.sub vars 0 i) (Array.sub vars (i + 1) (Array.length vars - i - 1))

let[@inline] with_hole i m =
  let low_mask = (1 lsl i) - 1 in
  (m land low_mask) lor ((m land lnot low_mask) lsl 1)

let sum_out t v =
  let i = index_of t v in
  if i < 0 then t
  else begin
    let vars = remove_at t.vars i in
    let bit = 1 lsl i in
    let data = Array.create_float (1 lsl Array.length vars) in
    for m = 0 to Array.length data - 1 do
      let base = with_hole i m in
      data.(m) <- t.data.(base) +. t.data.(base lor bit)
    done;
    checked vars data
  end

let marginal_onto t keep =
  Array.fold_left
    (fun acc v -> if List.mem v keep then acc else sum_out acc v)
    t t.vars

let condition t v b =
  let i = index_of t v in
  if i < 0 then t
  else begin
    let vars = remove_at t.vars i in
    let on = if b then 1 lsl i else 0 in
    let data = Array.create_float (1 lsl Array.length vars) in
    for m = 0 to Array.length data - 1 do
      data.(m) <- t.data.(with_hole i m lor on)
    done;
    checked vars data
  end

let total t =
  let z = ref 0. in
  for i = 0 to Array.length t.data - 1 do
    z := !z +. t.data.(i)
  done;
  !z

let normalize t =
  let z = total t in
  if z <= 0. then invalid_arg "Factor.normalize: zero total";
  { t with data = Array.map (fun x -> x /. z) t.data }

let sample rng t =
  let mask = Psst_util.Prng.categorical rng t.data in
  Array.to_list (Array.mapi (fun i v -> (v, mask land (1 lsl i) <> 0)) t.vars)

let iter_assignments t f = Array.iteri (fun mask x -> f mask x) t.data

let equal_approx ~eps a b =
  a.vars = b.vars
  && Array.length a.data = Array.length b.data
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data
