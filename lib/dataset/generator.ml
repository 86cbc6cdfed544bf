module Prng = Psst_util.Prng
module Bitset = Psst_util.Bitset

type params = {
  num_graphs : int;
  num_organisms : int;
  min_vertices : int;
  max_vertices : int;
  extra_edge_ratio : float;
  num_vertex_labels : int;
  num_edge_labels : int;
  mean_edge_prob : float;
  motif_edges : int;
  max_new_edges_per_factor : int;
  coupling_motif : float;
  coupling_noise : float;
  foreign_motif_prob : float;
  seed : int;
}

let default_params =
  {
    num_graphs = 100;
    num_organisms = 5;
    min_vertices = 10;
    max_vertices = 20;
    extra_edge_ratio = 0.3;
    num_vertex_labels = 6;
    num_edge_labels = 2;
    (* The paper's corpus averages 0.383 over 612-edge graphs; our graphs
       and queries are 10-50x smaller, so per-edge survival must be higher
       to keep SSP values in the same non-degenerate range the paper's
       thresholds (0.3-0.7) probe. See DESIGN.md §4. *)
    mean_edge_prob = 0.8;
    motif_edges = 4;
    max_new_edges_per_factor = 3;
    (* JPT couplings: edges inside an organism's own motif are positively
       correlated (functional modules co-occur); edges of an injected
       foreign motif are negatively correlated (spurious interactions that
       rarely co-occur). The contrast is what separates the correlated
       model from its independent-marginals projection in Fig 14. *)
    coupling_motif = 1.2;
    coupling_noise = -2.0;
    foreign_motif_prob = 0.4;
    seed = 42;
  }

type t = {
  graphs : Pgraph.t array;
  organisms : int array;
  motifs : Lgraph.t array;
  grafts : int option array;
  params : params;
}

(* Organism label bias: organism o prefers labels congruent to o. *)
let biased_vlabel rng p o =
  if Prng.bernoulli rng 0.6 then
    (o + Prng.int rng (max 1 (p.num_vertex_labels / 2))) mod p.num_vertex_labels
  else Prng.int rng p.num_vertex_labels

let random_motif rng p o =
  (* Connected graph with motif_edges edges. *)
  let n = max 2 (p.motif_edges * 2 / 3 + 1) in
  let vlabels = Array.init n (fun _ -> biased_vlabel rng p o) in
  let edges = ref [] in
  let has (u, v) = List.exists (fun (a, b, _) -> (a, b) = (min u v, max u v)) !edges in
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    edges := (min i j, max i j, Prng.int rng p.num_edge_labels) :: !edges
  done;
  let want = p.motif_edges in
  let attempts = ref 0 in
  while List.length !edges < want && !attempts < 100 do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (has (u, v)) then
      edges := (min u v, max u v, Prng.int rng p.num_edge_labels) :: !edges
  done;
  Lgraph.create ~vlabels ~edges:!edges

type region = Motif | Foreign | Noise

(* Skeleton of one graph: a copy of the organism motif, extended by a random
   tree plus extra edges with organism-biased labels, and — with probability
   [foreign_motif_prob] — a grafted copy of another organism's motif. The
   returned function maps each vertex to its region. *)
let random_skeleton rng p o motifs =
  let grafted = ref None in
  let motif = motifs.(o) in
  let n = p.min_vertices + Prng.int rng (max 1 (p.max_vertices - p.min_vertices + 1)) in
  let nm = Lgraph.num_vertices motif in
  let n = max n (nm + 2) in
  let base_vlabels =
    Array.init n (fun i ->
        if i < nm then Lgraph.vertex_label motif i else biased_vlabel rng p o)
  in
  let edges = ref [] in
  let has (u, v) = List.exists (fun (a, b, _) -> (a, b) = (min u v, max u v)) !edges in
  Array.iter
    (fun (e : Lgraph.edge) -> edges := (e.u, e.v, e.label) :: !edges)
    (Lgraph.edges motif);
  (* Attach the remaining vertices as a random tree (keeps connectivity). *)
  for i = nm to n - 1 do
    let j = Prng.int rng i in
    edges := (min i j, max i j, Prng.int rng p.num_edge_labels) :: !edges
  done;
  let extra = int_of_float (float_of_int n *. p.extra_edge_ratio) in
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (has (u, v)) then begin
      edges := (min u v, max u v, Prng.int rng p.num_edge_labels) :: !edges;
      incr added
    end
  done;
  (* Foreign motif graft. *)
  let foreign_base = ref n in
  let vlabels = ref (Array.to_list base_vlabels) in
  if Array.length motifs > 1 && Prng.bernoulli rng p.foreign_motif_prob then begin
    let o' = (o + 1 + Prng.int rng (Array.length motifs - 1)) mod Array.length motifs in
    grafted := Some o';
    let fm = motifs.(o') in
    let shift = n in
    vlabels := !vlabels @ Array.to_list (Lgraph.vertex_labels fm);
    Array.iter
      (fun (e : Lgraph.edge) -> edges := (e.u + shift, e.v + shift, e.label) :: !edges)
      (Lgraph.edges fm);
    (* one connector keeps the graph connected *)
    edges :=
      (Prng.int rng n, shift + Prng.int rng (Lgraph.num_vertices fm),
       Prng.int rng p.num_edge_labels)
      :: !edges
  end;
  let g = Lgraph.create ~vlabels:(Array.of_list !vlabels) ~edges:!edges in
  let region v =
    if v < nm then Motif else if v >= !foreign_base then Foreign else Noise
  in
  (g, region, !grafted)

(* Neighbor-edge JPT: independent per-edge weights tilted by an Ising-style
   agreement coupling. kappa > 0 makes neighbor edges co-occur, kappa < 0
   makes them repel, kappa = 0 degenerates to independence. (The paper's
   max-of-neighbors-and-normalise construction is a special case of such a
   tilt, but its correlation sign is uncontrolled; explicit couplings keep
   the Fig 14 contrast meaningful — DESIGN.md §4.) *)
(* Co-presence-penalised JPT for a foreign graft: one factor over all of
   the graft's edges whose weight multiplies the independent product by
   exp(kappa * C(#present, 2)). With kappa < 0 and high per-edge weights
   this keeps each edge's marginal high while making joint survival of
   many edges rare — exactly the regime where the independent-marginals
   projection overestimates subgraph survival (Fig 14). *)
let copresence_joint scope probs kappa =
  let k = Array.length scope in
  let data =
    Array.init (1 lsl k) (fun mask ->
        let w = ref 1. and s = ref 0 in
        for i = 0 to k - 1 do
          let p = probs.(i) in
          if mask land (1 lsl i) <> 0 then begin
            incr s;
            w := !w *. p
          end
          else w := !w *. (1. -. p)
        done;
        !w *. exp (kappa *. float_of_int (!s * (!s - 1) / 2)))
  in
  let total = Array.fold_left ( +. ) 0. data in
  Factor.create scope (Array.map (fun x -> x /. total) data)

let ising_joint scope probs kappa =
  let k = Array.length scope in
  let data =
    Array.init (1 lsl k) (fun mask ->
        let w = ref 1. in
        for i = 0 to k - 1 do
          let p = probs.(i) in
          w := !w *. (if mask land (1 lsl i) <> 0 then p else 1. -. p)
        done;
        let agree = ref 0 in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            if (mask lsr i) land 1 = (mask lsr j) land 1 then incr agree
          done
        done;
        !w *. exp (kappa *. float_of_int !agree))
  in
  let total = Array.fold_left ( +. ) 0. data in
  Factor.create scope (Array.map (fun x -> x /. total) data)

(* Conditional of [joint] on the shared "old" edge: renormalise each slice
   of that variable. A slice with zero mass would make the conditional
   undefined; the Ising joints built above are strictly positive. *)
let conditional_on joint old_var =
  let vars = Factor.vars joint in
  let k = Array.length vars in
  let old_pos =
    let rec go i = if vars.(i) = old_var then i else go (i + 1) in
    go 0
  in
  let slice_total = Array.make 2 0. in
  for mask = 0 to (1 lsl k) - 1 do
    let b = if mask land (1 lsl old_pos) <> 0 then 1 else 0 in
    slice_total.(b) <- slice_total.(b) +. Factor.value joint mask
  done;
  Factor.of_fun vars (fun mask ->
      let b = if mask land (1 lsl old_pos) <> 0 then 1 else 0 in
      Factor.value joint mask /. slice_total.(b))

(* Build the chain-consistent factor list for a skeleton: BFS from vertex 0;
   each non-root vertex v introduces the edges whose later endpoint is v,
   grouped into factors of at most [max_new_edges_per_factor] new edges,
   conditioned on the attachment edge of v's BFS parent (RIP holds: that
   edge lives in the parent's factor). *)
let correlated_factors rng p skeleton region =
  let n = Lgraph.num_vertices skeleton in
  let m = Lgraph.num_edges skeleton in
  let edge_prob = Array.init m (fun _ -> Prng.beta rng ~a:1.5 ~b:(1.5 *. (1. -. p.mean_edge_prob) /. p.mean_edge_prob)) in
  (* Foreign-graft edges (including the connector) form one jointly
     distributed neighbor-edge set with a co-presence penalty; they are
     excluded from the BFS chunking below. *)
  let is_foreign_edge (e : Lgraph.edge) =
    region e.u = Foreign || region e.v = Foreign
  in
  let foreign_edges =
    Array.to_list (Lgraph.edges skeleton)
    |> List.filter is_foreign_edge
    |> List.map (fun (e : Lgraph.edge) -> e.id)
    |> List.sort compare
  in
  let in_foreign = Array.make m false in
  List.iter (fun e -> in_foreign.(e) <- true) foreign_edges;
  let graft_factor =
    match foreign_edges with
    | [] -> []
    | edges when List.length edges <= Factor.max_vars ->
      let scope = Array.of_list edges in
      (* High base weights: the STRING-style scores of spurious
         interactions look individually strong. *)
      let probs = Array.map (fun _ -> 0.9 +. Prng.float rng 0.08) scope in
      [ copresence_joint scope probs (0.2 *. p.coupling_noise) ]
    | _ -> []
  in
  (* BFS order and parent edges. *)
  let order = Array.make n (-1) in
  let rank = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let len = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if rank.(s) < 0 then begin
      Queue.add s queue;
      rank.(s) <- !len;
      order.(!len) <- s;
      incr len;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        List.iter
          (fun (w, eid) ->
            if rank.(w) < 0 then begin
              rank.(w) <- !len;
              order.(!len) <- w;
              incr len;
              parent_edge.(w) <- eid;
              Queue.add w queue
            end)
          (Lgraph.neighbors skeleton v)
      done
    end
  done;
  (* Edge introduced at its later-ranked endpoint. *)
  let introduced = Array.make n [] in
  Array.iter
    (fun (e : Lgraph.edge) ->
      if not in_foreign.(e.id) then begin
        let v = if rank.(e.u) > rank.(e.v) then e.u else e.v in
        introduced.(v) <- e.id :: introduced.(v)
      end)
    (Lgraph.edges skeleton);
  let factors = ref [] in
  Array.iter
    (fun v ->
      let news = List.sort compare introduced.(v) in
      if news <> [] then begin
        (* Shared edge: the parent's own attachment edge when it exists. *)
        let bfs_parent =
          if parent_edge.(v) >= 0 then
            Lgraph.other_endpoint (Lgraph.edge skeleton parent_edge.(v)) v
          else -1
        in
        let shared =
          if bfs_parent >= 0 && parent_edge.(bfs_parent) >= 0 then
            Some parent_edge.(bfs_parent)
          else None
        in
        let rec chunks = function
          | [] -> []
          | l ->
            let take = min p.max_new_edges_per_factor (List.length l) in
            let rec split i acc = function
              | rest when i = take -> (List.rev acc, rest)
              | x :: rest -> split (i + 1) (x :: acc) rest
              | [] -> (List.rev acc, [])
            in
            let chunk, rest = split 0 [] l in
            chunk :: chunks rest
        in
        let kappa =
          match region v with
          | Motif -> p.coupling_motif
          | Foreign | Noise ->
            (* mildly anticorrelated background, like the paper's congested
               neighbouring roads (Foreign only reachable here when a graft
               was too large for a single factor) *)
            0.1 *. p.coupling_noise
        in
        List.iter
          (fun chunk ->
            match shared with
            | None ->
              let scope = Array.of_list chunk in
              let probs = Array.map (fun e -> edge_prob.(e)) scope in
              factors := ising_joint scope probs kappa :: !factors
            | Some old_edge ->
              let scope =
                Array.of_list (List.sort_uniq compare (old_edge :: chunk))
              in
              let probs = Array.map (fun e -> edge_prob.(e)) scope in
              let joint = ising_joint scope probs kappa in
              factors := conditional_on joint old_edge :: !factors)
          (chunks news)
      end)
    order;
  graft_factor @ List.rev !factors

let generate p =
  let rng = Prng.make p.seed in
  let motifs = Array.init p.num_organisms (fun o -> random_motif rng p o) in
  let organisms = Array.init p.num_graphs (fun i -> i mod p.num_organisms) in
  let grafts = Array.make p.num_graphs None in
  let graphs =
    Array.mapi
      (fun gi o ->
        let skeleton, region, grafted = random_skeleton rng p o motifs in
        grafts.(gi) <- grafted;
        let factors = correlated_factors rng p skeleton region in
        Pgraph.make skeleton factors)
      organisms
  in
  { graphs; organisms; motifs; grafts; params = p }

let extract_query ?(from_motif = false) rng t ~edges =
  (* When [from_motif] is set, restrict the walk to edges whose endpoints
     both lie in the source graph's motif copy (the generator places the
     motif on the first vertices), so that queries probe the structure all
     organism members share — the setting of the paper's Fig 14
     classification experiment. *)
  let allowed gi (e : Lgraph.edge) =
    if not from_motif then true
    else begin
      let nm = Lgraph.num_vertices t.motifs.(t.organisms.(gi)) in
      e.u < nm && e.v < nm
    end
  in
  let allowed_edges gi g =
    Array.to_list (Lgraph.edges (Pgraph.skeleton g))
    |> List.filter (allowed gi)
    |> List.map (fun (e : Lgraph.edge) -> e.id)
  in
  let eligible =
    Array.to_list t.graphs
    |> List.mapi (fun i g -> (i, g))
    |> List.filter (fun (gi, g) -> List.length (allowed_edges gi g) >= edges)
  in
  if eligible = [] then invalid_arg "Generator.extract_query: query too large";
  let gi, g = List.nth eligible (Prng.int rng (List.length eligible)) in
  let gc = Pgraph.skeleton g in
  let m = Lgraph.num_edges gc in
  let ok = Array.make m false in
  List.iter (fun eid -> ok.(eid) <- true) (allowed_edges gi g);
  (* Grow a connected edge set within the allowed region. *)
  let chosen = Bitset.create m in
  let start =
    let pool = Array.of_list (allowed_edges gi g) in
    Prng.choice rng pool
  in
  let frontier = ref [ start ] in
  let count = ref 0 in
  while !count < edges && !frontier <> [] do
    let pick = List.nth !frontier (Prng.int rng (List.length !frontier)) in
    frontier := List.filter (fun e -> e <> pick) !frontier;
    if not (Bitset.mem chosen pick) then begin
      Bitset.add chosen pick;
      incr count;
      let e = Lgraph.edge gc pick in
      List.iter
        (fun v ->
          List.iter
            (fun (_, eid) ->
              if ok.(eid) && not (Bitset.mem chosen eid) then
                frontier := eid :: !frontier)
            (Lgraph.neighbors gc v))
        [ e.u; e.v ]
    end
  done;
  let sub, _ = Lgraph.with_edge_mask gc chosen in
  let q, _ = Lgraph.drop_isolated sub in
  (q, t.organisms.(gi))

let organism_members t o =
  Array.to_list t.organisms
  |> List.mapi (fun i oo -> (i, oo))
  |> List.filter_map (fun (i, oo) -> if oo = o then Some i else None)

let independent_db t = Array.map Pgraph.to_independent t.graphs
