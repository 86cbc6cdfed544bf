type params = {
  alpha : float;
  beta : float;
  gamma : float;
  max_edges : int;
  emb_cap : int;
}

let default_params =
  { alpha = 0.15; beta = 0.15; gamma = 0.15; max_edges = 3; emb_cap = 64 }

type feature = {
  graph : Lgraph.t;
  key : string;
  support : int list;
  strong_support : int list;
}

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

(* Observed label alphabets of the database, used to drive extensions. *)
let alphabets db =
  let vl = Hashtbl.create 16 and el = Hashtbl.create 16 in
  Array.iter
    (fun g ->
      Array.iter (fun l -> Hashtbl.replace vl l ()) (Lgraph.vertex_labels g);
      Array.iter
        (fun (e : Lgraph.edge) -> Hashtbl.replace el e.label ())
        (Lgraph.edges g))
    db;
  let sorted tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare in
  (sorted vl, sorted el)

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

(* Intersection of two sorted sets of graph ids. *)
let rec inter_sorted a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
    if x = y then x :: inter_sorted a' b'
    else if x < y then inter_sorted a' b
    else inter_sorted a b'

let support_of db candidates_idx p =
  List.filter (fun gi -> Vf2.exists p db.(gi)) candidates_idx

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
  let all_idx = List.init nd (fun i -> i) in
  let reaches_beta graphs =
    float_of_int (List.length graphs) /. float_of_int nd >= params.beta
  in
  let vlabels, elabels = alphabets db in
  let selected = Hashtbl.create 64 in
  (* key -> feature *)
  let out = ref [] in
  let add f = Hashtbl.replace selected f.key f; out := f :: !out in
  (* Single-vertex features: always indexed. *)
  List.iter
    (fun vl ->
      let g = Lgraph.vertices_only ~vlabels:[| vl |] in
      let support = support_of db all_idx g in
      if support <> [] then
        add { graph = g; key = Canon.code g; support; strong_support = support })
    vlabels;
  (* Single-edge features: always indexed; distinct label triples
     (min vl, max vl, el) are never isomorphic. [triples] keeps the support
     of every triple, the pre-filter's input. *)
  let triples = Hashtbl.create 64 in
  List.iter
    (fun (vl1, vl2, el) ->
      let g = Lgraph.create ~vlabels:[| vl1; vl2 |] ~edges:[ (0, 1, el) ] in
      let support = support_of db all_idx g in
      Hashtbl.replace triples (vl1, vl2, el) support;
      if support <> [] then
        add
          {
            graph = g;
            key = Canon.code g;
            support;
            strong_support = strong_support_of db params g support;
          })
    (List.concat_map
       (fun vl1 ->
         List.concat_map
           (fun vl2 ->
             if vl1 <= vl2 then List.map (fun el -> (vl1, vl2, el)) elabels else [])
           vlabels)
       vlabels);
  (* Graphs that can hold a candidate: its parent's support intersected
     with the support of each of its edges' label triples. *)
  let filter_of parent_support vls es =
    List.fold_left
      (fun acc (u, v, el) ->
        let a = vls.(u) and b = vls.(v) in
        inter_sorted acc (Hashtbl.find triples (min a b, max a b, el)))
      parent_support es
  in
  (* Level-wise growth from the single-edge frontier. *)
  let frontier = ref (List.filter (fun f -> Lgraph.num_edges f.graph = 1) !out) in
  let level = ref 1 in
  while !level < params.max_edges && !frontier <> [] do
    incr level;
    let next = ref [] in
    let seen_this_level = Hashtbl.create 64 in
    List.iter
      (fun parent ->
        List.iter
          (fun (vls, es) ->
            let filter = filter_of parent.support vls es in
            (* Exact pre-filter: strong support is a subset of [filter], so
               a candidate failing here can never be frequent. It is not
               marked seen; a later isomorphic copy fails here or below. *)
            if reaches_beta filter then begin
              let cand = Lgraph.create ~vlabels:vls ~edges:es in
              let key = Canon.code cand in
              if
                (not (Hashtbl.mem selected key))
                && not (Hashtbl.mem seen_this_level key)
              then begin
                Hashtbl.replace seen_this_level key ();
                let support = support_of db filter cand in
                let strong = strong_support_of db params cand support in
                if reaches_beta strong then begin
                  (* Discriminative check against selected subfeatures. *)
                  let subkeys =
                    List.init (Lgraph.num_edges cand) (fun eid ->
                        let sub = Lgraph.delete_edges cand [ eid ] in
                        let sub, _ = Lgraph.drop_isolated sub in
                        Canon.code sub)
                    |> List.sort_uniq compare
                  in
                  let parent_supports =
                    List.filter_map (Hashtbl.find_opt selected) subkeys
                    |> List.map (fun f -> f.support)
                  in
                  let inter =
                    match parent_supports with
                    | [] -> all_idx
                    | first :: rest -> List.fold_left inter_sorted first rest
                  in
                  let dis =
                    match support with
                    | [] -> 0.
                    | _ ->
                      float_of_int (List.length inter)
                      /. float_of_int (List.length support)
                  in
                  if dis >= 1. +. params.gamma then begin
                    let f =
                      { graph = cand; key; support; strong_support = strong }
                    in
                    add f;
                    next := f :: !next
                  end
                end
              end
            end)
          (extensions vlabels elabels parent.graph))
      !frontier;
    frontier := !next
  done;
  List.rev !out

(* --- binary codec --- *)

let encode_feature e (f : feature) =
  Psst_store.put_lgraph e f.graph;
  Psst_store.put_string e f.key;
  Psst_store.put_int_list e f.support;
  Psst_store.put_int_list e f.strong_support

let decode_support d what =
  let l = Psst_store.get_int_list d in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  if List.exists (fun g -> g < 0) l || not (sorted l) then
    Psst_store.error "feature %s list is not a sorted set of graph ids" what;
  l

let decode_feature d =
  let graph = Psst_store.get_lgraph d in
  let key = Psst_store.get_string d in
  let support = decode_support d "support" in
  let strong_support = decode_support d "strong-support" in
  { graph; key; support; strong_support }
