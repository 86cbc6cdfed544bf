module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

type config = {
  emb_cap : int;
  cut_cap : int;
  mc_samples : int;
  clique_budget : int;
  tightest : bool;
  seed : int;
}

let default_config =
  {
    emb_cap = 48;
    cut_cap = 96;
    mc_samples = 800;
    clique_budget = 50_000;
    tightest = true;
    seed = 2012;
  }

type t = {
  lower : float;
  upper : float;
  lower_safe : float;
  upper_safe : float;
  embeddings : int;
  cuts : int;
}

(* Bound-computation observability (DESIGN.md §10). [mc_pool_estimates]
   vs [mc_exact_fallbacks] tracks how often the shared Monte-Carlo world
   pool had conditioning support versus falling back to variable
   elimination. *)
let m_computed = Psst_obs.counter "bounds.computed"
let m_vertex_features = Psst_obs.counter "bounds.vertex_features"
let m_no_embedding = Psst_obs.counter "bounds.no_embedding"
let m_fully_certain = Psst_obs.counter "bounds.fully_certain"
let m_embeddings = Psst_obs.counter "bounds.embeddings"
let m_cuts = Psst_obs.counter "bounds.cuts"
let m_pool_hits = Psst_obs.counter "bounds.mc_pool_estimates"
let m_pool_misses = Psst_obs.counter "bounds.mc_exact_fallbacks"
let m_exact_evals = Psst_obs.counter "bounds.exact_evals"
let m_exact_hits = Psst_obs.counter "bounds.exact_memo_hits"
let m_world_pools = Psst_obs.counter "bounds.world_pools"

let ratio_over_pool pool ~num ~den =
  let n1 = ref 0 and n2 = ref 0 in
  Array.iter
    (fun mask ->
      if den mask then begin
        incr n2;
        if num mask then incr n1
      end)
    pool;
  if !n2 = 0 then None else Some (float_of_int !n1 /. float_of_int !n2)

let counted_ratio_over_pool pool ~num ~den =
  match ratio_over_pool pool ~num ~den with
  | Some _ as r ->
    Psst_obs.incr m_pool_hits;
    r
  | None ->
    Psst_obs.incr m_pool_misses;
    None

let estimate_conditional rng g ~num ~den ~samples =
  let pool = Array.init samples (fun _ -> Pgraph.sample_mask rng g) in
  ratio_over_pool pool ~num ~den

let clamp01 x = Float.max 0. (Float.min 1. x)

(* Weight of a node in fG given its survival probability p. *)
let node_weight p =
  let p = Float.min p (1. -. 1e-12) in
  -.log (1. -. p)

(* All edges of [s] present in the world mask. *)
let all_present mask s = Bitset.subset s mask

(* All edges of [s] absent from the world mask. *)
let all_absent mask s = Bitset.disjoint s mask

module Sets = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

(* Everything the bounds of one graph share across features: the world
   pool, the uncertain-edge set and the exact probabilities already
   asked, keyed by the edge set, one table per polarity. The elimination
   plan is the graph's own ([Pgraph.plan]), kept across columns. *)
type column = {
  graph : Pgraph.t;
  pool : Bitset.t array Lazy.t;
  uncertain : Bitset.t;
  present : float Sets.t;
  absent : float Sets.t;
}

let column config g =
  {
    graph = g;
    pool =
      lazy
        (Psst_obs.incr m_world_pools;
         let rng = Prng.make config.seed in
         Array.init config.mc_samples (fun _ -> Pgraph.sample_mask rng g));
    uncertain =
      Bitset.of_list (Lgraph.num_edges (Pgraph.skeleton g)) (Pgraph.uncertain_edges g);
    present = Sets.create 64;
    absent = Sets.create 64;
  }

(* The probability that every edge of [s] is present ([value]) or absent. *)
let memo_exact col value s =
  let memo = if value then col.present else col.absent in
  match Sets.find_opt memo s with
  | Some p ->
    Psst_obs.incr m_exact_hits;
    p
  | None ->
    Psst_obs.incr m_exact_evals;
    let g = col.graph in
    let p = Velim.prob_set ~z:(Pgraph.partition_value g) ~value (Pgraph.plan g) s in
    Sets.add memo (Bitset.copy s) p;
    p

let exact_all_present col s = memo_exact col true s
let exact_all_absent col s = memo_exact col false s

(* First-fit maximal pairwise-disjoint family in index order: the paper's
   plain SIPBound picks an arbitrary disjoint set instead of optimising. *)
let first_fit_disjoint items disjoint weights =
  let chosen = ref [] and weight = ref 0. in
  Array.iteri
    (fun i it ->
      if List.for_all (fun j -> disjoint items.(j) it) !chosen then begin
        chosen := i :: !chosen;
        weight := !weight +. weights.(i)
      end)
    items;
  (List.rev !chosen, !weight)

(* Disjoint family selection: maximum-weight clique of the disjointness
   graph when [tightest], first-fit otherwise. *)
let best_disjoint_clique ~config items disjoint weights =
  if not config.tightest then first_fit_disjoint items disjoint weights
  else begin
    let n = Array.length items in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if disjoint items.(i) items.(j) then edges := (i, j) :: !edges
      done
    done;
    let g = Mwc.make ~weights ~edges:!edges in
    Mwc.max_weight_clique ~node_budget:config.clique_budget g
  end

let lower_of config col (embs : Embedding.t list) =
  (* Work on uncertain parts only: certain edges never fail. *)
  let sets = Array.of_list (List.map (fun e -> e.Embedding.edges) embs) in
  let usets = Array.map (fun s -> Bitset.inter s col.uncertain) sets in
  let n = Array.length sets in
  let overlapping i =
    List.filter
      (fun j -> j <> i && not (Bitset.disjoint usets.(i) usets.(j)))
      (List.init n (fun j -> j))
  in
  let survival = Array.make n 0. in
  for i = 0 to n - 1 do
    let others = overlapping i in
    let p =
      if others = [] then exact_all_present col usets.(i)
      else begin
        let num mask =
          all_present mask usets.(i)
          && List.for_all (fun j -> not (all_present mask usets.(j))) others
        in
        let den mask =
          List.for_all (fun j -> not (all_present mask usets.(j))) others
        in
        match counted_ratio_over_pool (Lazy.force col.pool) ~num ~den with
        | Some p -> p
        | None -> exact_all_present col usets.(i)
      end
    in
    survival.(i) <- clamp01 p
  done;
  let weights = Array.map node_weight survival in
  let _, z =
    best_disjoint_clique ~config usets
      (fun a b -> Bitset.disjoint a b)
      weights
  in
  let lower = 1. -. exp (-.z) in
  let lower_safe =
    Array.fold_left Float.max 0.
      (Array.map (fun s -> exact_all_present col s) usets)
  in
  (clamp01 lower, clamp01 lower_safe)

let upper_of config col (embs : Embedding.t list) =
  let usets = List.map (fun e -> Bitset.inter e.Embedding.edges col.uncertain) embs in
  (* An embedding with no uncertain edge always survives: SIP = 1 and there
     is no cut at all. Callers short-circuit that case before calling. *)
  let cuts = Transversal.minimal_hitting_sets ~cap:config.cut_cap usets in
  match cuts with
  | [] -> (1., 1., 0)
  | _ ->
    let cut_arr = Array.of_list cuts in
    let n = Array.length cut_arr in
    let overlapping i =
      List.filter
        (fun j -> j <> i && not (Bitset.disjoint cut_arr.(i) cut_arr.(j)))
        (List.init n (fun j -> j))
    in
    let activation = Array.make n 0. in
    for i = 0 to n - 1 do
      let others = overlapping i in
      let p =
        if others = [] then exact_all_absent col cut_arr.(i)
        else begin
          let num mask =
            all_absent mask cut_arr.(i)
            && List.for_all (fun j -> not (all_absent mask cut_arr.(j))) others
          in
          let den mask =
            List.for_all (fun j -> not (all_absent mask cut_arr.(j))) others
          in
          match counted_ratio_over_pool (Lazy.force col.pool) ~num ~den with
          | Some p -> p
          | None -> exact_all_absent col cut_arr.(i)
        end
      in
      activation.(i) <- clamp01 p
    done;
    let weights = Array.map node_weight activation in
    let _, v =
      best_disjoint_clique ~config cut_arr
        (fun a b -> Bitset.disjoint a b)
        weights
    in
    let upper = exp (-.v) in
    let upper_safe =
      Array.fold_left Float.min 1.
        (Array.map
           (fun c -> 1. -. exact_all_absent col c)
           cut_arr)
    in
    (clamp01 upper, clamp01 upper_safe, n)

let compute config ?column:col g f =
  Psst_obs.incr m_computed;
  let gc = Pgraph.skeleton g in
  if Lgraph.num_edges f = 0 then begin
    (* Vertex features: vertices are deterministic, so SIP is 1 when the
       label occurs and 0 otherwise. *)
    Psst_obs.incr m_vertex_features;
    let present = Vf2.exists f gc in
    let v = if present then 1. else 0. in
    { lower = v; upper = v; lower_safe = v; upper_safe = v; embeddings = 0; cuts = 0 }
  end
  else begin
    let embs = Vf2.distinct_embeddings ~cap:config.emb_cap f gc in
    match embs with
    | [] ->
      Psst_obs.incr m_no_embedding;
      { lower = 0.; upper = 0.; lower_safe = 0.; upper_safe = 0.; embeddings = 0; cuts = 0 }
    | _ ->
      Psst_obs.add m_embeddings (List.length embs);
      let col =
        match col with
        | Some c when c.graph == g -> c
        | Some _ -> invalid_arg "Bounds.compute: column of another graph"
        | None -> column config g
      in
      (* An embedding avoiding every uncertain edge survives all worlds. *)
      let fully_certain =
        List.exists (fun e -> Bitset.disjoint e.Embedding.edges col.uncertain) embs
      in
      if fully_certain then begin
        Psst_obs.incr m_fully_certain;
        {
          lower = 1.;
          upper = 1.;
          lower_safe = 1.;
          upper_safe = 1.;
          embeddings = List.length embs;
          cuts = 0;
        }
      end
      else begin
        let lower, lower_safe = lower_of config col embs in
        let upper, upper_safe, ncuts = upper_of config col embs in
        Psst_obs.add m_cuts ncuts;
        (* Monte-Carlo noise can cross the estimates; never report an
           inverted interval. The safe pair is exact and always ordered. *)
        let lower = Float.min lower upper in
        {
          lower;
          upper;
          lower_safe;
          upper_safe;
          embeddings = List.length embs;
          cuts = ncuts;
        }
      end
  end
