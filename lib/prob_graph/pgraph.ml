module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

(* Query-independent state every bound computation of the graph reuses:
   the compiled forward sampler, the present-edge mask of the certain
   edges (every world's starting point) and the partition value Z. *)
type prepared = { sampler : Sampler.compiled; base : Bitset.t; z : float }

type t = {
  skeleton : Lgraph.t;
  factors : Factor.t list;
  uncertain : int list; (* sorted *)
  certain : int list; (* sorted: the edges no factor mentions *)
  jt_lock : Mutex.t; (* guards [jt] and [prep]: graphs are shared across query domains *)
  mutable jt : Jtree.t option; (* built on first use *)
  mutable prep : prepared option; (* built on first use *)
}

let make skeleton factors =
  let m = Lgraph.num_edges skeleton in
  List.iter
    (fun f ->
      Array.iter
        (fun v ->
          if v < 0 || v >= m then
            invalid_arg "Pgraph.make: factor scope mentions unknown edge")
        (Factor.vars f))
    factors;
  if not (Sampler.is_chain_consistent ~eps:1e-6 factors) then
    invalid_arg "Pgraph.make: factors are not chain-consistent";
  let uncertain =
    List.concat_map (fun f -> Array.to_list (Factor.vars f)) factors
    |> List.sort_uniq compare
  in
  let is_uncertain = Array.make m false in
  List.iter (fun e -> is_uncertain.(e) <- true) uncertain;
  let certain = List.filter (fun e -> not is_uncertain.(e)) (List.init m Fun.id) in
  {
    skeleton;
    factors;
    uncertain;
    certain;
    jt_lock = Mutex.create ();
    jt = None;
    prep = None;
  }

let independent skeleton probs =
  let factors =
    List.map
      (fun (eid, p) ->
        if p < 0. || p > 1. then invalid_arg "Pgraph.independent: probability";
        Factor.create [| eid |] [| 1. -. p; p |])
      (List.sort compare probs)
  in
  make skeleton factors

let skeleton t = t.skeleton
let factors t = t.factors
let uncertain_edges t = t.uncertain

let jtree t =
  Mutex.protect t.jt_lock (fun () ->
      match t.jt with
      | Some jt -> jt
      | None ->
        let jt = Jtree.build t.factors in
        t.jt <- Some jt;
        jt)

let certain_edges t = t.certain

let prepared t =
  Mutex.protect t.jt_lock (fun () ->
      match t.prep with
      | Some p -> p
      | None ->
        let p =
          {
            sampler = Sampler.compile t.factors;
            base = Bitset.of_list (Lgraph.num_edges t.skeleton) t.certain;
            z = Velim.partition_value t.factors;
          }
        in
        t.prep <- Some p;
        p)

let partition_value t = (prepared t).z

let jpt t scope =
  let certain = certain_edges t in
  let in_scope_certain = List.filter (fun e -> List.mem e scope) certain in
  let uncertain_scope = List.filter (fun e -> not (List.mem e in_scope_certain)) scope in
  let marg = Velim.marginal t.factors uncertain_scope in
  let marg = if Factor.total marg > 0. then Factor.normalize marg else marg in
  (* Fold certain edges back in as deterministic 1-entries. *)
  List.fold_left
    (fun f e -> Factor.multiply f (Factor.create [| e |] [| 0.; 1. |]))
    marg in_scope_certain

let edge_marginal t eid =
  if List.mem eid t.uncertain then
    let f = Factor.normalize (Velim.marginal t.factors [ eid ]) in
    Factor.value f 1
  else 1.

let world_prob t present =
  let certain_ok =
    List.for_all (fun e -> Bitset.mem present e) (certain_edges t)
  in
  if not certain_ok then 0.
  else
    List.fold_left
      (fun acc f -> acc *. Factor.value_of f (Bitset.mem present))
      1. t.factors

let sample_mask rng t =
  let p = prepared t in
  let mask = Bitset.copy p.base in
  Sampler.draw p.sampler rng mask;
  mask

let sample_world rng t =
  let mask = sample_mask rng t in
  let world, edge_map = Lgraph.with_edge_mask t.skeleton mask in
  (mask, world, edge_map)

let iter_worlds t f =
  let unc = Array.of_list t.uncertain in
  let k = Array.length unc in
  if k > 30 then invalid_arg "Pgraph.iter_worlds: too many uncertain edges";
  let m = Lgraph.num_edges t.skeleton in
  let base = Bitset.create m in
  List.iter (Bitset.add base) (certain_edges t);
  for mask = 0 to (1 lsl k) - 1 do
    let present = Bitset.copy base in
    Array.iteri (fun i e -> if mask land (1 lsl i) <> 0 then Bitset.add present e) unc;
    let p = world_prob t present in
    if p > 0. then f present p
  done

let to_independent t =
  let probs = List.map (fun e -> (e, edge_marginal t e)) t.uncertain in
  independent t.skeleton probs

let table_entries t =
  List.fold_left (fun acc f -> acc + (1 lsl Array.length (Factor.vars f))) 0 t.factors

let pp ppf t =
  Format.fprintf ppf "@[<v>pgraph:@,%a@,%d factors over %d uncertain edges@]"
    Lgraph.pp t.skeleton (List.length t.factors)
    (List.length t.uncertain)
