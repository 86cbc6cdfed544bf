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

module Itbl = Hashtbl.Make (Int)

(* A graph set the label scan fills. Graphs are scanned in decreasing
   order, so consing keeps [graphs] sorted. *)
type scanned = { mutable count : int; mutable graphs : int list }

let note tbl k gi =
  match Itbl.find_opt tbl k with
  | None -> Itbl.add tbl k { count = 1; graphs = [ gi ] }
  | Some { graphs = g :: _; _ } when g = gi -> ()
  | Some s ->
    s.count <- s.count + 1;
    s.graphs <- gi :: s.graphs

(* The distinct values of [labels], in increasing order. *)
let sorted_distinct labels =
  let seen = Itbl.create 16 in
  Seq.iter (fun l -> Itbl.replace seen l ()) labels;
  let a = Array.of_seq (Itbl.to_seq_keys seen) in
  Array.sort compare a;
  a

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
  (* The observed label alphabets, which drive the extensions, and each
     label's dense rank in them. Rank order is label order. *)
  let per_graph f = Seq.flat_map (fun g -> Array.to_seq (f g)) (Array.to_seq db) in
  let vlabels = sorted_distinct (per_graph Lgraph.vertex_labels)
  and elabels =
    sorted_distinct
      (per_graph (fun g -> Array.map (fun (e : Lgraph.edge) -> e.label) (Lgraph.edges g)))
  in
  let nv = Array.length vlabels and ne = Array.length elabels in
  let rank_table labels =
    let t = Itbl.create (2 * Array.length labels) in
    Array.iteri (fun r l -> Itbl.replace t l r) labels;
    t
  in
  let vrank = rank_table vlabels and erank = rank_table elabels in
  (* The label scan's keys pack ranks into one int: an edge label triple
     (min end, max end, edge label) below [nv * nv * ne], an arm (end
     label, edge label) below [na], and a two-edge path (centre, least
     arm, greatest arm) below [nv * na * na]. Packed keys sort as the
     tuples do. *)
  let na = ne * nv in
  if na > 0 && (na > max_int / na || nv > max_int / (na * na)) then
    invalid_arg "Selection.select: too many distinct labels to pack the scan's keys";
  let triple_key ra rb re = (((min ra rb * nv) + max ra rb) * ne) + re in
  let arm rv re = (rv * ne) + re in
  let path_key c p q = (((c * na) + min p q) * na) + max p q in
  (* Supports of the one-vertex and one-edge patterns, by one scan of each
     graph's labels. [Lgraph.create] rejects self-loops and duplicate
     edges, so a graph holds the pattern exactly when it has a vertex of
     that label, or an edge with that label triple: the scan is
     [Vf2.exists]. *)
  let vertex_support = Array.make nv [] and triples = Itbl.create 64 in
  (* The same scan gives the two-edge supports. A connected two-edge
     pattern is a path: a centre vertex and two arms, each an end label
     and the label of the edge to it. Matching is not induced, so a graph holds the path
     exactly when some vertex of the centre's label has two distinct
     incident edges with those arms, and with no duplicate edges two
     distinct incident edges reach two distinct vertices. *)
  let paths = Itbl.create 256 in
  for gi = nd - 1 downto 0 do
    let g = db.(gi) in
    let vr = Array.map (Itbl.find vrank) (Lgraph.vertex_labels g) in
    Array.iter
      (fun r ->
        match vertex_support.(r) with
        | h :: _ when h = gi -> ()
        | l -> vertex_support.(r) <- gi :: l)
      vr;
    let er = Array.map (fun (e : Lgraph.edge) -> Itbl.find erank e.label) (Lgraph.edges g) in
    Array.iteri
      (fun eid (e : Lgraph.edge) -> note triples (triple_key vr.(e.u) vr.(e.v) er.(eid)) gi)
      (Lgraph.edges g);
    if params.max_edges >= 2 then
      Array.iteri
        (fun c rc ->
          let rec pairs = function
            | [] -> ()
            | (w, eid) :: rest ->
              let p = arm vr.(w) er.(eid) in
              List.iter (fun (w', eid') -> note paths (path_key rc p (arm vr.(w') er.(eid'))) gi) rest;
              pairs rest
          in
          pairs (Lgraph.neighbors g c))
        vr
  done;
  (* Single-vertex features: always indexed. *)
  Array.iteri
    (fun r vl ->
      let g = Lgraph.vertices_only ~vlabels:[| vl |] in
      let support = vertex_support.(r) in
      add (mined g (Canon.code g) support support) (bits support))
    vlabels;
  (* Single-edge features: always indexed; distinct label triples are never
     isomorphic, and packed keys sort as the triples do. A one-edge
     pattern's distinct embeddings are distinct single edges, pairwise
     edge-disjoint, so its disjoint-embedding ratio is 1 in every support
     graph and its strong support is its support whenever [alpha <= 1];
     any other [alpha] takes the VF2 path. *)
  let triple_keys = Array.of_seq (Itbl.to_seq_keys triples) in
  Array.sort compare triple_keys;
  Array.iter
    (fun k ->
      let support = (Itbl.find triples k).graphs in
      let re = k mod ne and rb = k / ne mod nv and ra = k / ne / nv in
      let g =
        Lgraph.create ~vlabels:[| vlabels.(ra); vlabels.(rb) |] ~edges:[ (0, 1, elabels.(re)) ]
      in
      let strong =
        if params.alpha <= 1. then support else strong_support_of db params g support
      in
      add (mined g (Canon.code g) support strong) (bits support))
    triple_keys;
  (* Graphs that can hold a candidate of three or more edges: its
     parent's support intersected with the support of each of its edges'
     label triples, into the reused set [filter]. *)
  let triple_bits = Itbl.create 64 in
  Itbl.iter (fun k s -> Itbl.replace triple_bits k (bits s.graphs)) triples;
  let filter = Bitset.create nd in
  let filter_of parent_support vls es =
    Bitset.clear filter;
    Bitset.union_into filter parent_support;
    List.iter
      (fun (u, v, el) ->
        let key = triple_key (Itbl.find vrank vls.(u)) (Itbl.find vrank vls.(v)) (Itbl.find erank el) in
        match Itbl.find_opt triple_bits key with
        | Some t -> Bitset.inter_into filter t
        | None -> Bitset.clear filter)
      es
  in
  (* The discriminative test, [dis = |∩ Df'| / |Df| >= 1 + gamma], where
     [inter] is the cardinality of the intersection. *)
  let discriminative inter count =
    let dis = if count = 0 then 0. else float_of_int inter /. float_of_int count in
    dis >= 1. +. params.gamma
  in
  (* Strong support is a subset of the support, and the discriminative
     test reads the support alone, so both cheap tests run first and
     strong support (VF2 embeddings and a clique search per support
     graph) only for a candidate that passes them. *)
  let keep_if_strong next cand key support =
    let strong = strong_support_of db params cand support in
    if reaches_beta (List.length strong) then begin
      let m = mined cand key support strong in
      let b = bits support in
      add m b;
      next := (m, b) :: !next
    end
  in
  (* Level 2, from the one-edge features [(0, 1, el0)]: their extensions
     sprout a vertex [2] of label [vl] from [u] over an edge of label
     [el], in [extensions]' order, i.e. by the arm [(vl, el)]. Each is a
     path centred on [u], and two paths are isomorphic exactly when their
     path keys are equal, so the key stands for the canonical code until
     a candidate is kept. The scan holds each path's exact support, so
     only the extensions whose support reaches [beta] are visited:
     [frequent_arms] lists, by centre and one arm, the other arms of the
     frequent paths, in increasing order. A path's one-edge subfeatures
     are its two arms' label triples, all selected, so a candidate is
     built and coded only once it passes both support tests. Skipping an
     infrequent extension without marking it seen keeps every outcome:
     an isomorphic copy has the same support and is skipped too. *)
  let level_two frontier =
    let frequent_arms = Itbl.create 64 in
    let link c p q =
      let k = (c * na) + p in
      Itbl.replace frequent_arms k (q :: Option.value (Itbl.find_opt frequent_arms k) ~default:[])
    in
    Itbl.iter
      (fun key s ->
        if reaches_beta s.count then begin
          let q = key mod na and p = key / na mod na and c = key / na / na in
          link c p q;
          if p <> q then link c q p
        end)
      paths;
    Itbl.filter_map_inplace (fun _ qs -> Some (List.sort compare qs)) frequent_arms;
    let next = ref [] and seen = Itbl.create 64 in
    List.iter
      (fun ((parent : mined), _) ->
        let pg = parent.feature.graph in
        let pv = Lgraph.vertex_labels pg and pe = Lgraph.edge pg 0 in
        let re0 = Itbl.find erank pe.label in
        for u = 0 to 1 do
          let c = Itbl.find vrank pv.(u) and r0 = Itbl.find vrank pv.(1 - u) in
          let p = arm r0 re0 in
          List.iter
            (fun q ->
              let key = path_key c p q in
              if not (Itbl.mem seen key) then begin
                Itbl.add seen key ();
                let s = Itbl.find paths key and rv = q / ne and re = q mod ne in
                Bitset.clear filter;
                Bitset.union_into filter (Itbl.find triple_bits (triple_key c r0 re0));
                Bitset.inter_into filter (Itbl.find triple_bits (triple_key c rv re));
                if discriminative (Bitset.cardinal filter) s.count then begin
                  let cand =
                    Lgraph.create ~vlabels:[| pv.(0); pv.(1); vlabels.(rv) |]
                      ~edges:[ (0, 1, pe.label); (u, 2, elabels.(re)) ]
                  in
                  keep_if_strong next cand (Canon.code cand) s.graphs
                end
              end)
            (Option.value (Itbl.find_opt frequent_arms ((c * na) + p)) ~default:[])
        done)
      frontier;
    !next
  in
  (* Levels from three edges on: every extension of a parent that
     passes the pre-filter is built and given its canonical code, and
     the first of its isomorphic copies is tested, its support scanned
     with VF2 over [filter]. *)
  let level_vf2 frontier =
    let next = ref [] and seen = Hashtbl.create 64 in
    let vl_list = Array.to_list vlabels and el_list = Array.to_list elabels in
    List.iter
      (fun ((parent : mined), parent_support) ->
        List.iter
          (fun (vls, es) ->
            filter_of parent_support vls es;
            (* Exact pre-filter: the support is a subset of [filter], so a
               candidate failing here can never be frequent. It is not
               marked seen; a later isomorphic copy fails here or below. *)
            if reaches_beta (Bitset.cardinal filter) then begin
              let cand = Lgraph.create ~vlabels:vls ~edges:es in
              let key = Canon.code cand in
              if (not (Hashtbl.mem selected key)) && not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                let support =
                  List.filter (fun gi -> Vf2.exists cand db.(gi)) (Bitset.elements filter)
                in
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
                  if discriminative inter (List.length support) then
                    keep_if_strong next cand key support
                end
              end
            end)
          (extensions vl_list el_list parent.feature.graph))
      frontier;
    !next
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
    frontier := (if !level = 2 then level_two else level_vf2) !frontier
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
