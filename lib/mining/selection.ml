module Bitset = Psst_util.Bitset

type params = {
  alpha : float;
  beta : float;
  gamma : float;
  max_edges : int;
  emb_cap : int;
}

let default_params =
  { alpha = 0.15; beta = 0.15; gamma = 0.15; max_edges = 3; emb_cap = 64 }

type feature = { graph : Lgraph.t; key : string }
type mined = { feature : feature; support : int list; strong_support : int list }

let max_disjoint_embeddings embs =
  match embs with
  | [] -> 0
  | _ ->
    let arr = Array.of_list embs in
    let n = Array.length arr in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Embedding.edge_disjoint arr.(i) arr.(j) then edges := (i, j) :: !edges
      done
    done;
    let g = Mwc.make ~weights:(Array.make n 1.0) ~edges:!edges in
    let clique, _ = Mwc.max_weight_clique ~node_budget:20_000 g in
    List.length clique

(* All one-edge extensions of a connected pattern: close a pair of existing
   vertices or sprout a new labelled vertex. Returned as [Lgraph.create]
   arguments, so a candidate the pre-filter rules out is never built. *)
let extensions vlabels elabels p =
  let n = Lgraph.num_vertices p in
  let base_v = Lgraph.vertex_labels p in
  let base_e =
    Array.to_list (Lgraph.edges p) |> List.map (fun (e : Lgraph.edge) -> (e.u, e.v, e.label))
  in
  let close =
    List.concat_map
      (fun (u, v) ->
        if Lgraph.has_edge p u v then []
        else List.map (fun el -> (base_v, base_e @ [ (u, v, el) ])) elabels)
      (Psst_util.Combin.pairs (List.init n (fun i -> i)))
  in
  let sprout =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun vl ->
            let vls = Array.append base_v [| vl |] in
            List.map (fun el -> (vls, base_e @ [ (u, n, el) ])) elabels)
          vlabels)
      (List.init n (fun i -> i))
  in
  close @ sprout

let strong_support_of db params p support =
  List.filter
    (fun gi ->
      let embs = Vf2.distinct_embeddings ~cap:params.emb_cap p db.(gi) in
      match embs with
      | [] -> false
      | _ ->
        let disjoint = max_disjoint_embeddings embs in
        float_of_int disjoint /. float_of_int (List.length embs) >= params.alpha)
    support

let select db params =
  let nd = Array.length db in
  let reaches_beta count = float_of_int count /. float_of_int nd >= params.beta in
  (* Graph sets are sorted id lists where they are returned, and bitsets
     over the [nd] graphs where they are intersected. *)
  let bits = Bitset.of_list nd in
  let selected = Hashtbl.create 64 in
  (* key -> feature, with its support as a bitset *)
  let out = ref [] in
  let add m support =
    Hashtbl.replace selected m.feature.key (m, support);
    out := m :: !out
  in
  let mined graph key support strong_support =
    { feature = { graph; key }; support; strong_support }
  in
  (* Supports of the one-vertex and one-edge patterns, by one scan of each
     graph's labels. [Lgraph.create] rejects self-loops and duplicate
     edges, so a graph holds the pattern exactly when it has a vertex of
     that label, or an edge with that label triple (min vl, max vl, el):
     the scan is [Vf2.exists]. Graphs are scanned in decreasing order, so
     consing leaves each list sorted. *)
  let vertex_support = Hashtbl.create 16 and triples = Hashtbl.create 64 in
  (* The same scan gives the two-edge supports. A connected two-edge
     pattern is a path: a centre vertex and two arms, each an (edge label,
     end label) pair. Matching is not induced, so a graph holds the path
     exactly when some vertex of the centre's label has two distinct
     incident edges with those arms, and with no duplicate edges two
     distinct incident edges reach two distinct vertices. *)
  let paths = Hashtbl.create 64 in
  let note tbl k gi =
    match Hashtbl.find_opt tbl k with
    | Some (g :: _) when g = gi -> ()
    | l -> Hashtbl.replace tbl k (gi :: Option.value l ~default:[])
  in
  for gi = nd - 1 downto 0 do
    let g = db.(gi) in
    let vls = Lgraph.vertex_labels g in
    Array.iter (fun l -> note vertex_support l gi) vls;
    Array.iter
      (fun (e : Lgraph.edge) ->
        let a = vls.(e.u) and b = vls.(e.v) in
        note triples (min a b, max a b, e.label) gi)
      (Lgraph.edges g);
    if params.max_edges >= 2 then
      Array.iteri
        (fun c vl ->
          let rec pairs = function
            | [] -> ()
            | (w, eid) :: rest ->
              let p = ((Lgraph.edge g eid).label, vls.(w)) in
              List.iter
                (fun (w', eid') ->
                  let q = ((Lgraph.edge g eid').label, vls.(w')) in
                  note paths (vl, min p q, max p q) gi)
                rest;
              pairs rest
          in
          pairs (Lgraph.neighbors g c))
        vls
  done;
  let scanned tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
  (* The observed label alphabets, which drive the extensions. *)
  let sorted_keys tbl key =
    Hashtbl.fold (fun k _ acc -> key k :: acc) tbl [] |> List.sort_uniq compare
  in
  let vlabels = sorted_keys vertex_support Fun.id
  and elabels = sorted_keys triples (fun (_, _, el) -> el) in
  (* Single-vertex features: always indexed. *)
  List.iter
    (fun vl ->
      let g = Lgraph.vertices_only ~vlabels:[| vl |] in
      let support = scanned vertex_support vl in
      add (mined g (Canon.code g) support support) (bits support))
    vlabels;
  (* Single-edge features: always indexed; distinct label triples are never
     isomorphic. A one-edge pattern's distinct embeddings are distinct
     single edges, pairwise edge-disjoint, so its disjoint-embedding ratio
     is 1 in every support graph and its strong support is its support
     whenever [alpha <= 1]; any other [alpha] takes the VF2 path. *)
  List.iter
    (fun (vl1, vl2, el) ->
      let support = scanned triples (vl1, vl2, el) in
      if support <> [] then begin
        let g = Lgraph.create ~vlabels:[| vl1; vl2 |] ~edges:[ (0, 1, el) ] in
        let strong =
          if params.alpha <= 1. then support
          else strong_support_of db params g support
        in
        add (mined g (Canon.code g) support strong) (bits support)
      end)
    (List.concat_map
       (fun vl1 ->
         List.concat_map
           (fun vl2 ->
             if vl1 <= vl2 then List.map (fun el -> (vl1, vl2, el)) elabels else [])
           vlabels)
       vlabels);
  (* Graphs that can hold a candidate: its parent's support intersected
     with the support of each of its edges' label triples, into the
     reused set [filter]. *)
  let triple_bits = Hashtbl.create 64 in
  Hashtbl.iter (fun k l -> Hashtbl.replace triple_bits k (bits l)) triples;
  let filter = Bitset.create nd in
  let filter_of parent_support vls es =
    Bitset.clear filter;
    Bitset.union_into filter parent_support;
    List.iter
      (fun (u, v, el) ->
        let a = vls.(u) and b = vls.(v) in
        match Hashtbl.find_opt triple_bits (min a b, max a b, el) with
        | Some t -> Bitset.inter_into filter t
        | None -> Bitset.clear filter)
      es
  in
  (* A two-edge candidate's path key: its centre is the vertex the two
     edges share. *)
  let path_key vls = function
    | [ (a, b, l1); (c, d, l2) ] ->
      let m = if a = c || a = d then a else b in
      let arm (x, y, l) = (l, vls.(if x = m then y else x)) in
      let p = arm (a, b, l1) and q = arm (c, d, l2) in
      (vls.(m), min p q, max p q)
    | _ -> invalid_arg "Selection.path_key: not a two-edge pattern"
  in
  (* Level-wise growth from the single-edge frontier. *)
  let frontier =
    ref
      (List.filter_map
         (fun m ->
           if Lgraph.num_edges m.feature.graph = 1 then Hashtbl.find_opt selected m.feature.key
           else None)
         !out)
  in
  let level = ref 1 in
  while !level < params.max_edges && !frontier <> [] do
    incr level;
    let next = ref [] in
    let seen_this_level = Hashtbl.create 64 in
    List.iter
      (fun ((parent : mined), parent_support) ->
        List.iter
          (fun (vls, es) ->
            filter_of parent_support vls es;
            (* Exact pre-filter: strong support is a subset of [filter], so
               a candidate failing here can never be frequent. It is not
               marked seen; a later isomorphic copy fails here or below. *)
            if reaches_beta (Bitset.cardinal filter) then begin
              let cand = Lgraph.create ~vlabels:vls ~edges:es in
              let key = Canon.code cand in
              if
                (not (Hashtbl.mem selected key))
                && not (Hashtbl.mem seen_this_level key)
              then begin
                Hashtbl.replace seen_this_level key ();
                let support =
                  if !level = 2 then scanned paths (path_key vls es)
                  else
                    List.filter (fun gi -> Vf2.exists cand db.(gi)) (Bitset.elements filter)
                in
                (* Strong support is a subset of the support, and the
                   discriminative test reads the support alone, so both
                   cheap tests run first and strong support only for a
                   candidate that passes them. *)
                if reaches_beta (List.length support) then begin
                  (* Discriminative check against selected subfeatures. *)
                  let subkeys =
                    List.init (Lgraph.num_edges cand) (fun eid ->
                        let sub = Lgraph.delete_edges cand [ eid ] in
                        let sub, _ = Lgraph.drop_isolated sub in
                        Canon.code sub)
                    |> List.sort_uniq compare
                  in
                  let inter =
                    match List.filter_map (Hashtbl.find_opt selected) subkeys with
                    | [] -> nd
                    | (_, first) :: rest ->
                      let inter = Bitset.copy first in
                      List.iter (fun (_, b) -> Bitset.inter_into inter b) rest;
                      Bitset.cardinal inter
                  in
                  let dis =
                    match support with
                    | [] -> 0.
                    | _ -> float_of_int inter /. float_of_int (List.length support)
                  in
                  if dis >= 1. +. params.gamma then begin
                    let strong = strong_support_of db params cand support in
                    if reaches_beta (List.length strong) then begin
                      let m = mined cand key support strong in
                      let b = bits support in
                      add m b;
                      next := (m, b) :: !next
                    end
                  end
                end
              end
            end)
          (extensions vlabels elabels parent.feature.graph))
      !frontier;
    frontier := !next
  done;
  List.rev !out

(* --- binary codec --- *)

let encode_feature e (f : feature) =
  Psst_store.put_lgraph e f.graph;
  Psst_store.put_string e f.key

let decode_feature d =
  let graph = Psst_store.get_lgraph d in
  let key = Psst_store.get_string d in
  { graph; key }
