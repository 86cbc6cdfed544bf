module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

(* Query-independent state every bound computation of the graph reuses,
   each part built on its first use: the compiled forward sampler with
   the present-edge mask of the certain edges (every world's starting
   point), and the elimination plan of the factors, which also holds the
   partition value Z. Most graphs of an index build need the plan and no
   world. *)
type worlds = { sampler : Sampler.compiled; base : Bitset.t }

type t = {
  skeleton : Lgraph.t;
  factors : Factor.t list;
  uncertain : int list; (* sorted *)
  certain : int list; (* sorted: the edges no factor mentions *)
  lock : Mutex.t; (* guards the lazy fields: graphs are shared across query domains *)
  mutable jt : Jtree.t option;
  mutable worlds : worlds option;
  mutable plan : Velim.plan option;
}

let m_sampler_compiles = Psst_obs.counter "pgraph.sampler_compiles"

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
    lock = Mutex.create ();
    jt = None;
    worlds = None;
    plan = None;
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

(* The field [get t] reads, built by [build t] and kept by [set] under
   the graph's lock on first use. *)
let first_use t get set build =
  Mutex.protect t.lock (fun () ->
      match get t with
      | Some x -> x
      | None ->
        let x = build t in
        set t x;
        x)

let jtree t =
  first_use t (fun t -> t.jt) (fun t x -> t.jt <- Some x) (fun t -> Jtree.build t.factors)

let certain_edges t = t.certain

let worlds t =
  first_use t
    (fun t -> t.worlds)
    (fun t x -> t.worlds <- Some x)
    (fun t ->
      Psst_obs.incr m_sampler_compiles;
      {
        sampler = Sampler.compile t.factors;
        base = Bitset.of_list (Lgraph.num_edges t.skeleton) t.certain;
      })

let plan t =
  first_use t (fun t -> t.plan) (fun t x -> t.plan <- Some x) (fun t -> Velim.plan t.factors)

let partition_value t = Velim.plan_partition_value (plan t)

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
  let p = worlds t in
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
