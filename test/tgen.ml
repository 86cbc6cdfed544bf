(* Shared generators and helpers for the test suites. *)

module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

let rng_of_seed seed = Prng.make seed

(* Random connected labelled graph with [n] vertices, [extra] edges beyond a
   random spanning tree, [vl] vertex labels and [el] edge labels. *)
let random_connected_graph rng ~n ~extra ~vl ~el =
  let vlabels = Array.init n (fun _ -> Prng.int rng vl) in
  let edges = ref [] in
  let has (u, v) = List.exists (fun (a, b, _) -> (a, b) = (min u v, max u v)) !edges in
  (* Spanning tree: attach vertex i to a random earlier vertex. *)
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    edges := (min i j, max i j, Prng.int rng el) :: !edges
  done;
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (has (u, v)) then begin
      edges := (min u v, max u v, Prng.int rng el) :: !edges;
      incr added
    end
  done;
  Lgraph.create ~vlabels ~edges:!edges

(* Arbitrary (possibly disconnected) random graph. *)
let random_graph rng ~n ~m ~vl ~el =
  let vlabels = Array.init n (fun _ -> Prng.int rng vl) in
  let edges = ref [] in
  let has (u, v) = List.exists (fun (a, b, _) -> (a, b) = (min u v, max u v)) !edges in
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < m && !attempts < 50 * (m + 1) do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (has (u, v)) then begin
      edges := (min u v, max u v, Prng.int rng el) :: !edges;
      incr added
    end
  done;
  Lgraph.create ~vlabels ~edges:!edges

(* Random permutation image of a graph: same structure, shuffled vertex ids
   and edge order. *)
let permuted rng g =
  let n = Lgraph.num_vertices g in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  let vlabels = Array.make n 0 in
  Array.iteri (fun old l -> vlabels.(perm.(old)) <- l) (Lgraph.vertex_labels g);
  let edges =
    Array.to_list (Lgraph.edges g)
    |> List.map (fun (e : Lgraph.edge) -> (perm.(e.u), perm.(e.v), e.label))
  in
  let edges = Array.of_list edges in
  Prng.shuffle rng edges;
  Lgraph.create ~vlabels ~edges:(Array.to_list edges)

(* Brute-force non-induced subgraph isomorphism by trying all injective
   vertex maps; ground truth for VF2. *)
let brute_subiso pattern target =
  let np = Lgraph.num_vertices pattern and nt = Lgraph.num_vertices target in
  if np > nt then false
  else begin
    let map = Array.make np (-1) in
    let used = Array.make nt false in
    let ok_sofar pu =
      Lgraph.vertex_label pattern pu = Lgraph.vertex_label target map.(pu)
      && List.for_all
           (fun (w, eid) ->
             map.(w) < 0
             ||
             match Lgraph.find_edge target map.(pu) map.(w) with
             | Some te -> te.label = (Lgraph.edge pattern eid).label
             | None -> false)
           (Lgraph.neighbors pattern pu)
    in
    let rec go pu =
      if pu = np then true
      else begin
        let found = ref false in
        let tv = ref 0 in
        while (not !found) && !tv < nt do
          if not used.(!tv) then begin
            map.(pu) <- !tv;
            used.(!tv) <- true;
            if ok_sofar pu && go (pu + 1) then found := true;
            used.(!tv) <- false;
            map.(pu) <- -1
          end;
          incr tv
        done;
        !found
      end
    in
    go 0
  end

(* Random chain-consistent probabilistic graph over a random skeleton: group
   edges into consecutive scopes of <= 3 sharing one edge with the previous
   scope, then build random conditional factors. *)
let random_pgraph rng ~n ~extra ~vl ~el =
  let g = random_connected_graph rng ~n ~extra ~vl ~el in
  let m = Lgraph.num_edges g in
  let factors = ref [] in
  let covered = ref [] in
  let i = ref 0 in
  while !i < m do
    let size = 1 + Prng.int rng (min 2 (m - !i)) in
    let news = List.init size (fun k -> !i + k) in
    let olds = match !covered with [] -> [] | last :: _ -> [ last ] in
    let scope = List.sort_uniq compare (olds @ news) in
    let scope_arr = Array.of_list scope in
    let k = Array.length scope_arr in
    let old_positions =
      List.filter_map
        (fun v ->
          let rec idx j = if scope_arr.(j) = v then j else idx (j + 1) in
          if List.mem v olds then Some (idx 0) else None)
        scope
    in
    (* Random conditional: for each assignment of old vars, a random
       distribution over new-var assignments. *)
    let tables = Hashtbl.create 4 in
    let data =
      Array.init (1 lsl k) (fun mask ->
          let old_mask =
            List.fold_left
              (fun acc p -> if mask land (1 lsl p) <> 0 then acc lor (1 lsl p) else acc)
              0 old_positions
          in
          ignore old_mask;
          Prng.float rng 1.0 +. 0.05)
    in
    (* Normalise per old-assignment slice. *)
    let old_mask_of mask =
      List.fold_left
        (fun acc p -> acc lor (mask land (1 lsl p)))
        0 old_positions
    in
    Array.iteri
      (fun mask v ->
        let om = old_mask_of mask in
        Hashtbl.replace tables om (v +. Option.value ~default:0. (Hashtbl.find_opt tables om)))
      data;
    let data = Array.mapi (fun mask v -> v /. Hashtbl.find tables (old_mask_of mask)) data in
    factors := Factor.create scope_arr data :: !factors;
    covered := List.rev news @ !covered;
    i := !i + size
  done;
  Pgraph.make g (List.rev !factors)

let graph_testable =
  Alcotest.testable Lgraph.pp Lgraph.equal_structure

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_close ?(eps = 1e-9) msg expected actual =
  if not (close ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* The structural filter's survivors on [db] for each query of [qs] at
   every delta in 0..2 — what the filter answers, whatever holds its
   counts. *)
let structural_candidates (db : Query.database) qs =
  List.concat_map
    (fun q ->
      List.init 3 (fun delta ->
          Structural.candidates db.Query.structural
            ~skeleton:(Corpus.skeleton db.Query.graphs) q ~delta))
    qs

(* Each feature's postings in [db]'s PMI: the graphs it has an entry for,
   in increasing order. *)
let postings (db : Query.database) =
  List.init (Pmi.num_features db.Query.pmi) (fun fi ->
      List.filter
        (fun gi -> Pmi.lookup db.Query.pmi ~feature:fi ~graph:gi <> None)
        (List.init (Pmi.num_graphs db.Query.pmi) Fun.id))

(* Each feature's occurrences among [skels] by VF2: what the miner
   records as its support, and so what the PMI postings must hold. *)
let occurrences features skels =
  List.map
    (fun (f : Selection.feature) ->
      List.filter
        (fun gi -> Vf2.exists f.graph skels.(gi))
        (List.init (Array.length skels) Fun.id))
    features

(* [features] as if mined over [skels]: their occurrences as supports.
   Strong supports stay empty; no index reads them. *)
let mined_over skels features =
  List.map2
    (fun feature support -> { Selection.feature; support; strong_support = [] })
    features (occurrences features skels)

(* The small indexed corpus the integration suites share: [n] graphs of
   6–10 vertices, features of at most two edges, bounds from 400 samples
   and a coarse (tau = 0.3) verifier. A suite opens this where it needs
   these values; one whose values differ keeps its own. *)
module Fixtures = struct
  let fast_bounds = { Bounds.default_config with mc_samples = 400 }
  let fast_smp = { Verify.default_config with tau = 0.3 }
  let small_mining = { Selection.default_params with max_edges = 2; beta = 0.2 }

  let make_db seed n =
    let ds =
      Generator.generate
        { Generator.default_params with num_graphs = n; seed; min_vertices = 6;
          max_vertices = 10; motif_edges = 3 }
    in
    (ds, Query.index_database ~mining:small_mining ~bounds:fast_bounds ds.graphs)

  let base_config =
    { Query.default_config with epsilon = 0.4; delta = 1; verifier = `Smp fast_smp }
end
