module Bitset = Psst_util.Bitset

(* Explicit structure: node 0 = s, node 1 = t; line k with edges
   [e_1..e_m] contributes internal nodes and labelled edges
   s -(none)- n_0 -(e_1)- n_1 - ... - n_m -(none)- t. *)
type arc = { a : int; b : int; label : int option }

type t = {
  lines : int array array;
  arcs : arc list;
  num_nodes : int;
  capacity : int;
}

let build embeddings =
  if embeddings = [] then invalid_arg "Parallel_graph.build: no embeddings";
  let capacity =
    Bitset.capacity (List.hd embeddings).Embedding.edges
  in
  let lines =
    List.map
      (fun e ->
        let edges = Array.of_list (Bitset.elements e.Embedding.edges) in
        if Array.length edges = 0 then
          invalid_arg "Parallel_graph.build: embedding without edges";
        edges)
      embeddings
    |> Array.of_list
  in
  let arcs = ref [] in
  let next_node = ref 2 in
  Array.iter
    (fun line ->
      let m = Array.length line in
      let first = !next_node in
      next_node := !next_node + m + 1;
      (* terminal attachments, unlabelled *)
      arcs := { a = 0; b = first; label = None } :: !arcs;
      arcs := { a = first + m; b = 1; label = None } :: !arcs;
      Array.iteri
        (fun i e ->
          arcs := { a = first + i; b = first + i + 1; label = Some e } :: !arcs)
        line)
    lines;
  { lines; arcs = !arcs; num_nodes = !next_node; capacity }

let num_lines t = Array.length t.lines

let disconnects t labels =
  let adj = Array.make t.num_nodes [] in
  List.iter
    (fun arc ->
      let removed =
        match arc.label with Some l -> Bitset.mem labels l | None -> false
      in
      if not removed then begin
        adj.(arc.a) <- arc.b :: adj.(arc.a);
        adj.(arc.b) <- arc.a :: adj.(arc.b)
      end)
    t.arcs;
  let seen = Array.make t.num_nodes false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter dfs adj.(v)
    end
  in
  dfs 0;
  not seen.(1)

let min_label_cuts ?(cap = 256) t =
  (* Every minimal s-t label cut selects at least one label per line
     (otherwise an intact line keeps s and t connected); conversely any
     one-per-line selection disconnects. Enumerate the one-per-line
     selections, minimise by inclusion, and double-check each survivor
     against the explicit structure. *)
  let choices =
    Array.to_list t.lines |> List.map (fun line -> Array.to_list line)
  in
  let product = Psst_util.Combin.cartesian choices in
  let candidates =
    List.map (fun pick -> Bitset.of_list t.capacity pick) product
  in
  let sorted =
    List.sort_uniq Bitset.compare candidates
    |> List.sort (fun a b -> compare (Bitset.cardinal a) (Bitset.cardinal b))
  in
  let minimal =
    List.fold_left
      (fun kept c ->
        if List.exists (fun k -> Bitset.subset k c) kept then kept else c :: kept)
      [] sorted
    |> List.rev
  in
  let verified = List.filter (disconnects t) minimal in
  List.filteri (fun i _ -> i < cap) verified
