module Bitset = Psst_util.Bitset

(* One kernel answers every query. It reads the evidence in place, orders
   the free variables by min degree and eliminates each in one fused
   bucket, and it gives the floats of the plain loop over [Factor]
   primitives: condition copies of the factors, then for each variable
   multiply the work-list tables mentioning it ([Factor.multiply_all]) and
   sum it out ([Factor.sum_out]), the new table going to the front of the
   list. An output entry of a bucket is [P(m, v=0) +. P(m, v=1)], where
   [P] folds [( *. )] left over the touched tables in that list's order
   (newest created table first, then the inputs in input order): the same
   products, sums and order, without a conditioned copy or a product table.

   Variables are renumbered densely, 0 .. n-1 in increasing id order, and a
   set of them is a mask of [w] consecutive words of a flat int array: one
   word up to 63 variables. Every array is allocated per call and sized to
   the problem, so calls may run on several domains at once. *)

let wbits = Sys.int_size

let rec popcount acc x = if x = 0 then acc else popcount (acc + 1) (x land (x - 1))

(* The index of the lowest set bit of [x <> 0]. 2 has order 66 modulo 67,
   so the powers of 2 below the sign bit leave distinct remainders; the
   sign bit alone is negative. An immutable table, shared by all domains. *)
let low_bit =
  let t = Array.make 67 0 in
  for i = 0 to wbits - 2 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let[@inline] ctz x =
  let b = x land -x in
  if b < 0 then wbits - 1 else low_bit.(b mod 67)

let[@inline] mem a off d = a.(off + (d / wbits)) land (1 lsl (d mod wbits)) <> 0

let[@inline] add a off d =
  let j = off + (d / wbits) in
  a.(j) <- a.(j) lor (1 lsl (d mod wbits))

let[@inline] remove a off d =
  let j = off + (d / wbits) in
  a.(j) <- a.(j) land lnot (1 lsl (d mod wbits))

let card a off w =
  let c = ref 0 in
  for j = off to off + w - 1 do
    c := popcount !c a.(j)
  done;
  !c

(* [into.(i ..) <- into.(i ..) lor from.(j ..)], [w] words. *)
let union_into into i from j w =
  for x = 0 to w - 1 do
    into.(i + x) <- into.(i + x) lor from.(j + x)
  done

type evidence =
  | Free
  | Pairs of (int * bool) list  (** the first occurrence of a variable wins *)
  | All of bool * Bitset.t  (** every member takes the value *)

(* A query's factors read under its evidence. Dense variable [d] is id
   [ids.(d)]. Table [t] has entries [data.(t)]: the [nf] inputs, then room
   for one table per eliminated variable. Input [i]'s scope, as dense
   variables, is [isc.(ioff.(i)) .. isc.(ioff.(i + 1) - 1)], and
   [base.(i)] sets the local bits of its evidence-true variables. [mask]
   holds each table's free variables, [w] words per table, and [nbr] each
   free variable's closed neighbourhood, the union of the free scopes
   mentioning it. *)
type problem = {
  nf : int;
  n : int;
  w : int;
  ids : int array;
  data : float array array;
  isc : int array;
  ioff : int array;
  base : int array;
  mask : int array;
  nbr : int array;
}

(* Dense index of id [v] among the [n] sorted [ids], or -1. *)
let dense (ids : int array) n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < n && ids.(!lo) = v then !lo else -1

let pose factors ~extra evidence =
  let nf = List.length factors and s = ref 0 in
  List.iter (fun (f : Factor.t) -> s := !s + Array.length f.vars) factors;
  let s = !s in
  (* Every scope entry (its slot in [isc]; -1 for [extra]), sorted by id
     by insertion: chain scopes arrive nearly sorted. *)
  let len = s + List.length extra in
  let ids = Array.make len 0 and slot = Array.make len 0 and sorted = ref 0 in
  let insert v sl =
    let j = ref !sorted in
    while !j > 0 && ids.(!j - 1) > v do
      ids.(!j) <- ids.(!j - 1);
      slot.(!j) <- slot.(!j - 1);
      decr j
    done;
    ids.(!j) <- v;
    slot.(!j) <- sl;
    incr sorted
  in
  let ioff = Array.make (nf + 1) 0 in
  List.iteri
    (fun i (f : Factor.t) ->
      let o = ioff.(i) and vars = f.vars in
      for j = 0 to Array.length vars - 1 do
        insert vars.(j) (o + j)
      done;
      ioff.(i + 1) <- o + Array.length vars)
    factors;
  List.iter (fun v -> insert v (-1)) extra;
  (* Distinct ids, compacted in place, and each entry's dense variable. *)
  let isc = Array.make s 0 and n = ref 0 in
  for x = 0 to len - 1 do
    let v = ids.(x) in
    if !n = 0 || ids.(!n - 1) <> v then begin
      ids.(!n) <- v;
      incr n
    end;
    if slot.(x) >= 0 then isc.(slot.(x)) <- !n - 1
  done;
  let n = !n in
  let w = max 1 ((n + wbits - 1) / wbits) in
  (* '\001' fixed false, '\002' fixed true *)
  let fixed = Bytes.make n '\000' in
  (match evidence with
   | Free -> ()
   | Pairs l ->
     List.iter
       (fun (v, b) ->
         let d = dense ids n v in
         if d >= 0 && Bytes.get fixed d = '\000' then
           Bytes.set fixed d (if b then '\002' else '\001'))
       l
   | All (b, set) ->
     let c = if b then '\002' else '\001' and cap = Bitset.capacity set in
     for d = 0 to n - 1 do
       let v = ids.(d) in
       if v >= 0 && v < cap && Bitset.mem set v then Bytes.set fixed d c
     done);
  let data = Array.make (nf + n) [||] and base = Array.make nf 0 in
  let mask = Array.make ((nf + n) * w) 0 and nbr = Array.make (n * w) 0 in
  List.iteri
    (fun i (f : Factor.t) ->
      data.(i) <- f.data;
      let o = ioff.(i) in
      for j = 0 to ioff.(i + 1) - o - 1 do
        let d = isc.(o + j) in
        match Bytes.get fixed d with
        | '\000' -> add mask (i * w) d
        | '\002' -> base.(i) <- base.(i) lor (1 lsl j)
        | _ -> ()
      done;
      for j = o to ioff.(i + 1) - 1 do
        let d = isc.(j) in
        if mem mask (i * w) d then union_into nbr (d * w) mask (i * w) w
      done)
    factors;
  { nf; n; w; ids; data; isc; ioff; base; mask; nbr }

(* The min-degree order of the [count] dense variables [pend] lists in
   increasing order: each step takes the variable whose bucket (the union
   of the current scopes mentioning it: its closed neighbourhood) is
   smallest, the lowest id winning ties, and joins that neighbourhood into
   a clique without it, as merging the bucket into one scope does; only
   the neighbours' costs change. Fills [order] and each step's bucket size
   into [width]. Consumes [p.nbr] and [pend]. *)
let min_degree p pend count order width =
  let w = p.w and nbr = p.nbr in
  let cost = Array.make p.n 0 in
  for d = 0 to p.n - 1 do
    cost.(d) <- card nbr (d * w) w
  done;
  for step = 0 to count - 1 do
    let live = count - step and best = ref 0 in
    let least = ref cost.(pend.(0)) in
    for j = 1 to live - 1 do
      let c = cost.(pend.(j)) in
      if c < !least then begin
        best := j;
        least := c
      end
    done;
    let v = pend.(!best) in
    for j = !best to live - 2 do
      pend.(j) <- pend.(j + 1)
    done;
    order.(step) <- v;
    width.(step) <- cost.(v);
    remove nbr (v * w) v;
    for x = 0 to w - 1 do
      let bits = ref nbr.((v * w) + x) in
      while !bits <> 0 do
        let u = (x * wbits) + ctz !bits in
        bits := !bits land (!bits - 1);
        union_into nbr (u * w) nbr (v * w) w;
        remove nbr (u * w) v;
        cost.(u) <- card nbr (u * w) w
      done
    done;
    for x = 0 to w - 1 do
      nbr.((v * w) + x) <- 0
    done
  done

(* The free variables outside [keep], in increasing order, their count,
   and the count of those [keep] holds. *)
let candidates p keep =
  let pend = Array.make p.n 0 and count = ref 0 and kept = ref 0 in
  for d = 0 to p.n - 1 do
    if mem p.nbr (d * p.w) d then
      if List.mem p.ids.(d) keep then incr kept
      else begin
        pend.(!count) <- d;
        incr count
      end
  done;
  (pend, !count, !kept)

(* A run's pick stream: step [s] eliminated the variable [pick.(s)],
   whose bucket held [cost.(s)] variables. [fail] is the step that
   raised [Invalid_argument why], or [Array.length cost] when none did.
   [ends] lists the steps that left a table without a variable, with its
   entry, in increasing order; [fixed] the inputs every variable of which
   is evidence, with their entry, in input order. Both are meaningful
   only for a run that eliminated everything ([keep = []]) and did not
   fail. *)
type stream = {
  cost : int array;
  pick : int array;
  fail : int;
  why : string;
  ends : (int * float) list;
  fixed : (int * float) list;
}

(* Eliminates every free variable outside [keep]. Returns the run's
   stream and a function that multiplies what is left into the final
   table (its scope as ids, and its entries), raising the run's error if
   a step failed. *)
let kernel factors evidence ~keep =
  let p = pose factors ~extra:[] evidence in
  let n = p.n and w = p.w and nf = p.nf and data = p.data in
  let pend, steps, kept = candidates p keep in
  let order = Array.make steps 0 and width = Array.make steps 0 in
  min_degree p pend steps order width;
  (* Table [t] (the inputs, then one per step) has entries [data.(t)],
     indexed by its [meta.(3t + 1)] variables [sc.(meta.(3t)) ..] (an
     input's whole scope, evidence included) with the bits [meta.(3t + 2)]
     set. A created table's scope is its bucket less the summed variable;
     the scopes are laid out up to the first bucket too wide to build,
     which raises when its turn comes, then the final product's. *)
  let tables = nf + steps in
  let meta = Array.make (3 * tables) 0 in
  for t = 0 to nf - 1 do
    meta.(3 * t) <- p.ioff.(t);
    meta.((3 * t) + 1) <- p.ioff.(t + 1) - p.ioff.(t);
    meta.((3 * t) + 2) <- p.base.(t)
  done;
  let ok = ref 0 and sc_end = ref p.ioff.(nf) in
  while !ok < steps && width.(!ok) <= Factor.max_vars do
    let t = nf + !ok in
    meta.(3 * t) <- !sc_end;
    meta.((3 * t) + 1) <- width.(!ok) - 1;
    sc_end := !sc_end + width.(!ok) - 1;
    incr ok
  done;
  let sc = Array.make (!sc_end + kept) 0 in
  Array.blit p.isc 0 sc 0 p.ioff.(nf);
  (* The work list: table ids, the newest created first, then the inputs
     in input order. At most [nf] tables are live at once. *)
  let work = Array.init nf Fun.id and live = ref nf in
  let touched = Array.make nf 0 and merged = Array.make w 0 in
  let idx = Array.make nf 0 and vbit = Array.make nf 0 and pos = Array.make n 0 in
  let delta = ref [||] in
  (* Moves the work-list tables mentioning [v] (all of them when [v < 0])
     to [touched], keeping the order, and their union into [merged].
     Returns their count. *)
  let gather v =
    let k = ref 0 and stay = ref 0 in
    for x = 0 to w - 1 do
      merged.(x) <- 0
    done;
    for x = 0 to !live - 1 do
      let t = work.(x) in
      if v < 0 || mem p.mask (t * w) v then begin
        touched.(!k) <- t;
        incr k;
        union_into merged 0 p.mask (t * w) w
      end
      else begin
        work.(!stay) <- t;
        incr stay
      end
    done;
    live := !stay;
    !k
  in
  (* Multiplies the [k] gathered tables over the variables [merged] holds
     and sums out [v] (none when [v < 0]). Writes the product's scope at
     [sc.(at) ..], in increasing order, by inserting the tables' entries
     that [merged] holds (one table's are already sorted), and returns its
     entries. Each table's index is walked incrementally: from [m - 1] to
     [m] the bits 0 .. ctz m of [m] flip, so it XORs in the local bits of
     those output variables, [delta] of that count. *)
  let bucket k v at =
    let no = ref 0 in
    for r = 0 to k - 1 do
      let t = touched.(r) in
      for j = meta.(3 * t) to meta.(3 * t) + meta.((3 * t) + 1) - 1 do
        let d = sc.(j) in
        if mem merged 0 d then begin
          let x = ref (at + !no) in
          while !x > at && sc.(!x - 1) > d do
            decr x
          done;
          if !x = at || sc.(!x - 1) <> d then begin
            for y = at + !no downto !x + 1 do
              sc.(y) <- sc.(y - 1)
            done;
            sc.(!x) <- d;
            incr no
          end
        end
      done
    done;
    let no = !no in
    for i = 0 to no - 1 do
      pos.(sc.(at + i)) <- i
    done;
    if Array.length !delta < k * no then
      delta := Array.make (max (k * no) (2 * Array.length !delta)) 0;
    let delta = !delta in
    for r = 0 to k - 1 do
      let t = touched.(r) and row = r * no in
      for i = row to row + no - 1 do
        delta.(i) <- 0
      done;
      vbit.(r) <- 0;
      idx.(r) <- meta.((3 * t) + 2);
      let lo = meta.(3 * t) in
      for j = 0 to meta.((3 * t) + 1) - 1 do
        let d = sc.(lo + j) in
        if d = v then vbit.(r) <- 1 lsl j
        else if mem merged 0 d then delta.(row + pos.(d)) <- 1 lsl j
      done;
      for i = row + 1 to row + no - 1 do
        delta.(i) <- delta.(i) lor delta.(i - 1)
      done
    done;
    (* Table 0's index and entries stay in locals: most buckets touch one
       table. *)
    let sum = v >= 0 and entries = Array.create_float (1 lsl no) in
    let d0 = data.(touched.(0)) and vb0 = vbit.(0) and i0 = ref idx.(0) in
    for m = 0 to Array.length entries - 1 do
      if m > 0 then begin
        let c = ctz m in
        i0 := !i0 lxor delta.(c);
        for r = 1 to k - 1 do
          idx.(r) <- idx.(r) lxor delta.((r * no) + c)
        done
      end;
      let p0 = ref d0.(!i0) and p1 = ref d0.(!i0 lor vb0) in
      for r = 1 to k - 1 do
        let d = data.(touched.(r)) and i = idx.(r) in
        p0 := !p0 *. d.(i);
        p1 := !p1 *. d.(i lor vbit.(r))
      done;
      let x = if sum then !p0 +. !p1 else !p0 in
      (* false exactly for negative and NaN entries *)
      if not (x >= 0.) then invalid_arg "Factor.create: negative or NaN entry";
      entries.(m) <- x
    done;
    entries
  in
  (* [Factor.multiply]'s check, which one table (at most [max_vars]
     variables) never fails. *)
  let check_width k width =
    if k >= 2 && width > Factor.max_vars then invalid_arg "Factor.multiply: scope too large"
  in
  let fail = ref 0 and why = ref "" in
  (try
     while !fail < steps do
       let s = !fail in
       let v = order.(s) and t = nf + s in
       let k = gather v in
       check_width k width.(s);
       remove merged 0 v;
       union_into p.mask (t * w) merged 0 w;
       data.(t) <- bucket k v meta.(3 * t);
       for x = !live downto 1 do
         work.(x) <- work.(x - 1)
       done;
       work.(0) <- t;
       incr live;
       incr fail
     done
   with Invalid_argument msg -> why := msg);
  let fail = !fail and why = !why in
  (* The work list holds the created tables newest first, then the
     inputs in input order. *)
  let ends = ref [] and fixed = ref [] in
  if fail = steps then
    for x = !live - 1 downto 0 do
      let t = work.(x) in
      if t < nf then fixed := (t, data.(t).(meta.((3 * t) + 2))) :: !fixed
      else ends := (t - nf, data.(t).(0)) :: !ends
    done;
  let stream =
    {
      cost = width;
      pick = Array.map (fun d -> p.ids.(d)) order;
      fail;
      why;
      ends = List.rev !ends;
      fixed = !fixed;
    }
  in
  let product () =
    if fail < steps then invalid_arg why;
    match gather (-1) with
    | 0 -> ([||], [| 1. |])
    | k ->
      check_width k kept;
      let at = Array.length sc - kept in
      let entries = bucket k (-1) at in
      (Array.init kept (fun i -> p.ids.(sc.(at + i))), entries)
  in
  (stream, product)

let elimination_order factors to_eliminate =
  let p = pose factors ~extra:to_eliminate Free in
  let pend = Array.make p.n 0 and count = ref 0 in
  let cand = Array.make p.n false in
  List.iter (fun v -> cand.(dense p.ids p.n v) <- true) to_eliminate;
  for d = 0 to p.n - 1 do
    if cand.(d) then begin
      pend.(!count) <- d;
      incr count
    end
  done;
  let order = Array.make !count 0 in
  min_degree p pend !count order (Array.make !count 0);
  Array.to_list (Array.map (fun d -> p.ids.(d)) order)

let marginal_width factors keep =
  let p = pose factors ~extra:[] Free in
  let pend, steps, kept = candidates p keep in
  let width = Array.make steps 0 in
  min_degree p pend steps (Array.make steps 0) width;
  Array.fold_left max kept width

let marginal factors keep =
  let _, product = kernel factors Free ~keep in
  let vars, data = product () in
  Factor.create vars data

let scalar factors evidence =
  let _, product = kernel factors evidence ~keep:[] in
  let _, data = product () in
  0. +. data.(0)

let partition_value factors = scalar factors Free

let conditioned ?z factors evidence =
  let z = match z with Some z -> z | None -> partition_value factors in
  if z <= 0. then invalid_arg "Velim.prob: zero partition value";
  scalar factors evidence /. z

let prob ?z ~evidence factors = conditioned ?z factors (Pairs evidence)

let prob_all_present ?z factors vars =
  prob ?z ~evidence:(List.map (fun v -> (v, true)) vars) factors

(* --- Evidence-local elimination ---

   A variable's bucket never leaves its connected component of the
   factor graph, so a component runs the same steps and products whether
   it is eliminated alone or inside the whole list: costs change only
   when one of its own variables goes, ties go to the lowest id in every
   sub-problem (dense order is id order), and the work-list order among
   its tables does not depend on the others. The whole list's min-degree
   sequence is therefore the merge of the components' pick streams by
   (cost, id), and its final product is the components' one-entry tables
   newest first, then the fully fixed inputs in input order. *)

(* One component: its variables, and the stream of its free elimination
   alone, which ends in one table. *)
type part = { vars : int array; free : stream }

type plan = {
  factors : Factor.t array;
  part_of : int array; (* each input's part; -1 for a scope-0 input *)
  parts : part array;
  scalars : (int * float) list; (* scope-0 inputs and their entry *)
  z : (float, exn) result; (* the partition value, or what it raises *)
}

(* The whole list's scalar from the streams of its independent parts and
   its fully fixed inputs, as the whole-list run computes it: the first
   step to fail in the merged order raises, and the product runs over
   the one-entry tables in decreasing merged step, then [fixed]. *)
let combine streams fixed =
  let ns = Array.length streams in
  let at = Array.make ns 0 and ends = Array.map (fun s -> s.ends) streams in
  let made = ref [] and go = ref true in
  while !go do
    let best = ref (-1) and bc = ref 0 and bp = ref 0 in
    for x = 0 to ns - 1 do
      let s = streams.(x) and i = at.(x) in
      if i < Array.length s.cost then begin
        let c = s.cost.(i) and v = s.pick.(i) in
        if !best < 0 || c < !bc || (c = !bc && v < !bp) then begin
          best := x;
          bc := c;
          bp := v
        end
      end
    done;
    if !best < 0 then go := false
    else begin
      let x = !best in
      let s = streams.(x) and i = at.(x) in
      if i = s.fail then invalid_arg s.why;
      (match ends.(x) with
       | (j, e) :: rest when j = i ->
         made := e :: !made;
         ends.(x) <- rest
       | _ -> ());
      at.(x) <- i + 1
    end
  done;
  match !made @ List.map snd fixed with
  | [] -> 1.
  | e :: rest ->
    let x = List.fold_left ( *. ) e rest in
    (* false exactly for negative and NaN products *)
    if not (x >= 0.) then invalid_arg "Factor.create: negative or NaN entry";
    0. +. x

let plan factor_list =
  let factors = Array.of_list factor_list in
  let nf = Array.length factors in
  (* Union-find over the inputs sharing a variable; a root is the least
     input of its set. *)
  let root = Array.init nf Fun.id in
  let rec find i =
    let r = root.(i) in
    if r = i then i
    else begin
      let r = find r in
      root.(i) <- r;
      r
    end
  in
  let first = Hashtbl.create 64 in
  Array.iteri
    (fun i (f : Factor.t) ->
      Array.iter
        (fun v ->
          match Hashtbl.find_opt first v with
          | None -> Hashtbl.add first v i
          | Some j ->
            let a = find i and b = find j in
            if a <> b then root.(max a b) <- min a b)
        f.vars)
    factors;
  let part_of = Array.make nf (-1) and count = ref 0 and scalars = ref [] in
  Array.iteri
    (fun i (f : Factor.t) ->
      if Array.length f.vars = 0 then scalars := (i, f.data.(0)) :: !scalars
      else begin
        let r = find i in
        if r = i then begin
          part_of.(i) <- !count;
          incr count
        end
        else part_of.(i) <- part_of.(r)
      end)
    factors;
  let members = Array.make !count [] in
  for i = nf - 1 downto 0 do
    if part_of.(i) >= 0 then members.(part_of.(i)) <- i :: members.(part_of.(i))
  done;
  let parts =
    Array.map
      (fun inputs ->
        let own = List.map (fun i -> factors.(i)) inputs in
        let vars =
          List.concat_map (fun (f : Factor.t) -> Array.to_list f.vars) own
          |> List.sort_uniq compare |> Array.of_list
        in
        { vars; free = fst (kernel own Free ~keep:[]) })
      members
  in
  let scalars = List.rev !scalars in
  let z =
    match combine (Array.map (fun p -> p.free) parts) scalars with
    | z -> Ok z
    | exception (Invalid_argument _ as e) -> Error e
  in
  { factors; part_of; parts; scalars; z }

let plan_partition_value plan = match plan.z with Ok z -> z | Error e -> raise e

let prob_set ?z ~value plan set =
  let z = match z with Some z -> z | None -> plan_partition_value plan in
  if z <= 0. then invalid_arg "Velim.prob: zero partition value";
  let cap = Bitset.capacity set in
  let hit =
    Array.map
      (fun p -> Array.exists (fun v -> v >= 0 && v < cap && Bitset.mem set v) p.vars)
      plan.parts
  in
  let untouched = ref [] in
  for x = Array.length plan.parts - 1 downto 0 do
    if not hit.(x) then untouched := plan.parts.(x).free :: !untouched
  done;
  let inputs = ref [] in
  for i = Array.length plan.factors - 1 downto 0 do
    let x = plan.part_of.(i) in
    if x >= 0 && hit.(x) then inputs := i :: !inputs
  done;
  let p =
    match !inputs with
    | [] -> combine (Array.of_list !untouched) plan.scalars
    | inputs ->
      let local = Array.of_list inputs in
      let s, _ =
        kernel (List.map (fun i -> plan.factors.(i)) inputs) (All (value, set)) ~keep:[]
      in
      let fixed =
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          plan.scalars
          (List.map (fun (j, e) -> (local.(j), e)) s.fixed)
      in
      combine (Array.of_list (s :: !untouched)) fixed
  in
  p /. z
