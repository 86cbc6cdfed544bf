module Prng = Psst_util.Prng

(* Small database of three certain graphs sharing a triangle motif. *)
let tiny_db () =
  let tri extra =
    let vlabels = Array.of_list ([ 0; 0; 1 ] @ extra) in
    let base = [ (0, 1, 0); (1, 2, 0); (0, 2, 0) ] in
    let extra_edges =
      List.mapi (fun i _ -> (i mod 3, 3 + i, 1)) extra
    in
    Lgraph.create ~vlabels ~edges:(base @ extra_edges)
  in
  [| tri []; tri [ 2 ]; tri [ 2; 3 ] |]

let test_singletons_always_indexed () =
  let db = tiny_db () in
  let features = Selection.select db Selection.default_params in
  let vertex_features =
    List.filter (fun (m : Selection.mined) -> Lgraph.num_edges m.feature.graph = 0) features
  in
  let edge_features =
    List.filter (fun (m : Selection.mined) -> Lgraph.num_edges m.feature.graph = 1) features
  in
  (* Labels 0,1,2,3 present -> 4 vertex features. *)
  Alcotest.(check int) "vertex features" 4 (List.length vertex_features);
  Alcotest.(check bool) "edge features exist" true (List.length edge_features >= 2)

let test_support_lists_correct () =
  let db = tiny_db () in
  let features = Selection.select db Selection.default_params in
  List.iter
    (fun ({ feature = f; support; _ } : Selection.mined) ->
      List.iter
        (fun gi ->
          Alcotest.(check bool) "support is real" true (Vf2.exists f.graph db.(gi)))
        support;
      (* And graphs outside the support really lack the feature. *)
      List.iter
        (fun gi ->
          if not (List.mem gi support) then
            Alcotest.(check bool) "non-support lacks feature" false
              (Vf2.exists f.graph db.(gi)))
        [ 0; 1; 2 ])
    features

let test_triangle_mined () =
  let db = tiny_db () in
  let p = { Selection.default_params with beta = 0.5; gamma = 0.0; alpha = 0.0 } in
  let features = Selection.select db p in
  let has_triangle =
    List.exists
      (fun ({ feature = f; _ } : Selection.mined) ->
        Lgraph.num_edges f.graph = 3 && Lgraph.num_vertices f.graph = 3)
      features
  in
  Alcotest.(check bool) "triangle feature found" true has_triangle

let test_max_edges_respected () =
  let db = tiny_db () in
  let p = { Selection.default_params with max_edges = 2; beta = 0.0; gamma = 0.0 } in
  let features = Selection.select db p in
  List.iter
    (fun ({ feature = f; _ } : Selection.mined) ->
      Alcotest.(check bool) "size bound" true (Lgraph.num_edges f.graph <= 2))
    features

let test_beta_prunes () =
  let db = tiny_db () in
  let loose = Selection.select db { Selection.default_params with beta = 0.0; gamma = 0.0; alpha = 0.0 } in
  let strict = Selection.select db { Selection.default_params with beta = 0.99; gamma = 0.0; alpha = 0.0 } in
  Alcotest.(check bool) "higher beta, fewer features" true
    (List.length strict <= List.length loose)

let test_gamma_prunes () =
  let db = tiny_db () in
  let loose = Selection.select db { Selection.default_params with gamma = 0.0; beta = 0.0; alpha = 0.0 } in
  let strict = Selection.select db { Selection.default_params with gamma = 5.0; beta = 0.0; alpha = 0.0 } in
  Alcotest.(check bool) "higher gamma, fewer features" true
    (List.length strict <= List.length loose)

let test_max_disjoint_embeddings () =
  Alcotest.(check int) "empty" 0 (Selection.max_disjoint_embeddings []);
  let bs l = Psst_util.Bitset.of_list 8 l in
  let e l = { Embedding.vmap = [||]; edges = bs l } in
  (* {0,1} {1,2} {2,3} {4,5}: max disjoint = {0,1},{2,3},{4,5}. *)
  Alcotest.(check int) "chain + free" 3
    (Selection.max_disjoint_embeddings [ e [ 0; 1 ]; e [ 1; 2 ]; e [ 2; 3 ]; e [ 4; 5 ] ])

let prop_features_unique =
  QCheck.Test.make ~name:"no duplicate feature keys" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 3) in
      let db =
        Array.init 4 (fun _ -> Tgen.random_connected_graph rng ~n:6 ~extra:2 ~vl:3 ~el:2)
      in
      let features =
        Selection.select db { Selection.default_params with beta = 0.2; max_edges = 2 }
      in
      let keys = List.map (fun (m : Selection.mined) -> m.feature.key) features in
      List.length keys = List.length (List.sort_uniq compare keys))

let prop_strong_support_subset =
  QCheck.Test.make ~name:"strong support ⊆ support" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 11) in
      let db =
        Array.init 4 (fun _ -> Tgen.random_connected_graph rng ~n:6 ~extra:2 ~vl:2 ~el:2)
      in
      let features =
        Selection.select db { Selection.default_params with beta = 0.2; max_edges = 2 }
      in
      List.for_all
        (fun (m : Selection.mined) ->
          List.for_all (fun gi -> List.mem gi m.support) m.strong_support)
        features)

(* --- Oracle: [Selection.select] before its candidate pre-filter ---

   A verbatim copy of the unpruned miner: every extension candidate gets
   its canonical code and a support scan over its parent's support. The
   pre-filter must not change a single feature, support or strong
   support, nor the order they come out in. *)
module Oracle = struct
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

  let extensions vlabels elabels p =
    let n = Lgraph.num_vertices p in
    let base_v = Array.to_list (Lgraph.vertex_labels p) in
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
              List.map (fun el -> (base_v @ [ vl ], base_e @ [ (u, n, el) ])) elabels)
            vlabels)
        (List.init n (fun i -> i))
    in
    List.map
      (fun (vls, es) -> Lgraph.create ~vlabels:(Array.of_list vls) ~edges:es)
      (close @ sprout)

  let support_of db candidates_idx p =
    List.filter (fun gi -> Vf2.exists p db.(gi)) candidates_idx

  let strong_support_of db (params : Selection.params) p support =
    List.filter
      (fun gi ->
        let embs = Vf2.distinct_embeddings ~cap:params.emb_cap p db.(gi) in
        match embs with
        | [] -> false
        | _ ->
          let disjoint = Selection.max_disjoint_embeddings embs in
          float_of_int disjoint /. float_of_int (List.length embs) >= params.alpha)
      support

  let select db (params : Selection.params) =
    let nd = Array.length db in
    let all_idx = List.init nd (fun i -> i) in
    let vlabels, elabels = alphabets db in
    let selected = Hashtbl.create 64 in
    let out = ref [] in
    let add (m : Selection.mined) = Hashtbl.replace selected m.feature.key m; out := m :: !out in
    let mined graph key support strong_support =
      { Selection.feature = { graph; key }; support; strong_support }
    in
    List.iter
      (fun vl ->
        let g = Lgraph.vertices_only ~vlabels:[| vl |] in
        let support = support_of db all_idx g in
        if support <> [] then
          add (mined g (Canon.code g) support support))
      vlabels;
    List.iter
      (fun (vl1, vl2, el) ->
        let g = Lgraph.create ~vlabels:[| vl1; vl2 |] ~edges:[ (0, 1, el) ] in
        let key = Canon.code g in
        if not (Hashtbl.mem selected key) then begin
          let support = support_of db all_idx g in
          if support <> [] then
            add (mined g key support (strong_support_of db params g support))
        end)
      (List.concat_map
         (fun vl1 ->
           List.concat_map
             (fun vl2 ->
               if vl1 <= vl2 then List.map (fun el -> (vl1, vl2, el)) elabels else [])
             vlabels)
         vlabels);
    let frontier =
      ref (List.filter (fun (m : Selection.mined) -> Lgraph.num_edges m.feature.graph = 1) !out)
    in
    let level = ref 1 in
    while !level < params.max_edges && !frontier <> [] do
      incr level;
      let next = ref [] in
      let seen_this_level = Hashtbl.create 64 in
      List.iter
        (fun (parent : Selection.mined) ->
          List.iter
            (fun cand ->
              let key = Canon.code cand in
              if
                (not (Hashtbl.mem selected key))
                && not (Hashtbl.mem seen_this_level key)
              then begin
                Hashtbl.replace seen_this_level key ();
                let support = support_of db parent.support cand in
                let strong = strong_support_of db params cand support in
                let frequent =
                  float_of_int (List.length strong) /. float_of_int nd >= params.beta
                in
                if frequent then begin
                  let subkeys =
                    List.init (Lgraph.num_edges cand) (fun eid ->
                        let sub = Lgraph.delete_edges cand [ eid ] in
                        let sub, _ = Lgraph.drop_isolated sub in
                        Canon.code sub)
                    |> List.sort_uniq compare
                  in
                  let parent_supports =
                    List.filter_map (Hashtbl.find_opt selected) subkeys
                    |> List.map (fun (m : Selection.mined) -> m.support)
                  in
                  let inter =
                    match parent_supports with
                    | [] -> all_idx
                    | first :: rest ->
                      List.fold_left
                        (fun acc s -> List.filter (fun x -> List.mem x s) acc)
                        first rest
                  in
                  let dis =
                    match support with
                    | [] -> 0.
                    | _ ->
                      float_of_int (List.length inter) /. float_of_int (List.length support)
                  in
                  if dis >= 1. +. params.gamma then begin
                    let m = mined cand key support strong in
                    add m;
                    next := m :: !next
                  end
                end
              end)
            (extensions vlabels elabels parent.feature.graph))
        !frontier;
      frontier := !next
    done;
    List.rev !out
end

let same_features (a : Selection.mined list) (b : Selection.mined list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Selection.mined) (y : Selection.mined) ->
         x.feature.key = y.feature.key
         && Lgraph.vertex_labels x.feature.graph = Lgraph.vertex_labels y.feature.graph
         && Lgraph.edges x.feature.graph = Lgraph.edges y.feature.graph
         && x.support = y.support
         && x.strong_support = y.strong_support)
       a b

(* Random databases of 0-8 graphs over small label alphabets, so label
   triples repeat and frequencies land exactly on [beta] (0.5 of an even
   database) as well as either side of it. Most cases grow two or three
   edges over one or two vertex labels: there two-edge paths come from the
   label scan with repeated arms and equal end labels, and the support
   tests that now run before strong support meet ties at [beta] and at
   [gamma] (gamma 0 makes dis = 1 a tie). The miner keys its scan by the
   labels' ranks, so the labels are also mapped to negative, sparse or
   large values (order-preserving or not), vertex and edge labels each
   its own way. *)
type labels = Dense | Negative | Sparse | Large | Shuffled

let label_name = function
  | Dense -> "dense"
  | Negative -> "negative"
  | Sparse -> "sparse"
  | Large -> "large"
  | Shuffled -> "shuffled"

let map_label style l =
  match style with
  | Dense -> l
  | Negative -> -1 - (5 * l)
  | Sparse -> 1_000 * l * l + 7
  | Large -> max_int - (3 * l)
  | Shuffled -> [| 9; -4; min_int; 2; 0; 77 |].(l mod 6) + (l / 6)

let mining_case =
  let open QCheck.Gen in
  let gen =
    let* seed = int_bound 100_000 in
    let* nd = int_range 0 8 in
    let* vl = frequency [ (3, int_range 1 2); (1, return 3) ] in
    let* beta = oneofl [ 0.; 0.2; 0.5; 1.1 ] in
    (* alpha 1 keeps every one-edge support graph (ratio exactly 1);
       alpha 1.5 sends the one-edge level down the VF2 path. *)
    let* alpha = oneofl [ 0.; 0.15; 0.6; 1.; 1.5 ] in
    let* gamma = oneofl [ 0.; 0.15 ] in
    let* max_edges = frequency [ (3, int_range 2 3); (1, int_range 1 4) ] in
    let style = frequency [ (2, return Dense); (1, oneofl [ Negative; Sparse; Large; Shuffled ]) ] in
    let* vstyle = style and* estyle = style in
    return
      ( (seed, nd, vl, (vstyle, estyle)),
        { Selection.default_params with alpha; beta; gamma; max_edges } )
  in
  QCheck.make gen
    ~print:(fun ((seed, nd, vl, (vs, es)), (p : Selection.params)) ->
      Printf.sprintf
        "seed %d, %d graphs over %d vertex labels (%s vertex, %s edge labels), alpha %g beta \
         %g gamma %g max_edges %d"
        seed nd vl (label_name vs) (label_name es) p.alpha p.beta p.gamma p.max_edges)

let mining_db ?(labels = (Dense, Dense)) seed nd vl =
  let rng = Prng.make seed in
  let el = 1 + Prng.int rng 2 in
  let vs, es = labels in
  Array.init nd (fun _ ->
      let g =
        Tgen.random_connected_graph rng ~n:(3 + Prng.int rng 4) ~extra:(Prng.int rng 3) ~vl ~el
      in
      Lgraph.create
        ~vlabels:(Array.map (map_label vs) (Lgraph.vertex_labels g))
        ~edges:
          (Array.to_list
             (Array.map
                (fun (e : Lgraph.edge) -> (e.u, e.v, map_label es e.label))
                (Lgraph.edges g))))

let prop_select_matches_oracle =
  QCheck.Test.make ~name:"select = unpruned oracle" ~count:200 mining_case
    (fun ((seed, nd, vl, labels), params) ->
      let db = mining_db ~labels seed nd vl in
      same_features (Selection.select db params) (Oracle.select db params))

(* Two-edge supports come from a scan of each vertex's incident-edge
   pairs, not from VF2. Matching is not induced: the path is found inside
   a triangle, whose third edge joins its ends; with equal end labels a
   vertex needs two distinct edges with that arm, so a lone arm does not
   count twice. *)
let test_two_edge_path_scan () =
  let db =
    [| (* triangle: centre 0 (label 1), both ends label 0 *)
       Lgraph.create ~vlabels:[| 1; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ];
       (* one arm to a label-0 end, the other to a label-2 end *)
       Lgraph.create ~vlabels:[| 1; 0; 2 |] ~edges:[ (0, 1, 0); (0, 2, 0) ];
       (* the bare path *)
       Lgraph.create ~vlabels:[| 0; 1; 0 |] ~edges:[ (1, 0, 0); (1, 2, 0) ] |]
  in
  let params = { Selection.default_params with alpha = 0.; beta = 0.; gamma = 0.; max_edges = 2 } in
  let mined = Selection.select db params in
  let path = Lgraph.create ~vlabels:[| 0; 1; 0 |] ~edges:[ (1, 0, 0); (1, 2, 0) ] in
  let find key = List.find_opt (fun (m : Selection.mined) -> m.feature.key = key) mined in
  (match find (Canon.code path) with
  | None -> Alcotest.fail "the equal-ended path is not mined"
  | Some m ->
    Alcotest.(check (list int)) "found in the triangle and the path, not the fork" [ 0; 2 ]
      m.support);
  List.iter
    (fun (m : Selection.mined) ->
      if Lgraph.num_edges m.feature.graph = 2 then
        Alcotest.(check (list int))
          ("two-edge support = VF2 support: " ^ m.feature.key)
          (List.filter (fun gi -> Vf2.exists m.feature.graph db.(gi)) [ 0; 1; 2 ])
          m.support)
    mined;
  Alcotest.(check bool) "select = unpruned oracle" true
    (same_features mined (Oracle.select db params))

let suite =
  [
    Alcotest.test_case "singletons always indexed" `Quick test_singletons_always_indexed;
    Alcotest.test_case "support lists correct" `Quick test_support_lists_correct;
    Alcotest.test_case "triangle mined" `Quick test_triangle_mined;
    Alcotest.test_case "max_edges respected" `Quick test_max_edges_respected;
    Alcotest.test_case "beta prunes" `Quick test_beta_prunes;
    Alcotest.test_case "gamma prunes" `Quick test_gamma_prunes;
    Alcotest.test_case "max disjoint embeddings" `Quick test_max_disjoint_embeddings;
    QCheck_alcotest.to_alcotest prop_features_unique;
    QCheck_alcotest.to_alcotest prop_strong_support_subset;
    QCheck_alcotest.to_alcotest prop_select_matches_oracle;
    Alcotest.test_case "two-edge paths by label scan (triangle, equal ends)" `Quick
      test_two_edge_path_scan;
  ]
