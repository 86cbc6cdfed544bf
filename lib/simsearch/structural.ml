module Bitset = Psst_util.Bitset

type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The count matrix is u16 cells, feature-major: cell (fi, gi) sits at
   [fi * num_graphs + gi]. A built index owns them; a loaded one holds a
   checked copy of the image's payload, or a view over the mapping
   (DESIGN.md §15). *)
type t = {
  features : Selection.feature array;
  cells : u16s;
  num_graphs : int;
  emb_cap : int;
}

(* Counts are capped at [emb_cap], so the cap must fit a cell. *)
let check_emb_cap who emb_cap =
  if emb_cap < 1 || emb_cap > 0xFFFF then
    invalid_arg (Printf.sprintf "Structural.%s: emb_cap %d outside 1..65535" who emb_cap)

let create features ~num_graphs ~emb_cap =
  let cells =
    Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout
      (Array.length features * num_graphs)
  in
  Bigarray.Array1.fill cells 0;
  { features; cells; num_graphs; emb_cap }

let set t fi gi c = Bigarray.Array1.set t.cells ((fi * t.num_graphs) + gi) c

(* Graphs [from .. from+len-1] of every row of [src] to graphs
   [at .. at+len-1] of [dst]. *)
let blit_rows src ~from ~len dst ~at =
  for fi = 0 to Array.length src.features - 1 do
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.cells ((fi * src.num_graphs) + from) len)
      (Bigarray.Array1.sub dst.cells ((fi * dst.num_graphs) + at) len)
  done

let count_embeddings ~cap pattern target =
  if Lgraph.num_edges pattern = 0 then
    (* Vertex features: count label occurrences (always present, certain). *)
    min cap
      (Array.to_list (Lgraph.vertex_labels target)
      |> List.filter (fun l -> l = Lgraph.vertex_label pattern 0)
      |> List.length)
  else List.length (Vf2.distinct_embeddings ~cap pattern target)

let build db features ~emb_cap =
  check_emb_cap "build" emb_cap;
  let t = create (Array.of_list features) ~num_graphs:(Array.length db) ~emb_cap in
  Array.iteri
    (fun fi (f : Selection.feature) ->
      List.iter
        (fun gi -> set t fi gi (count_embeddings ~cap:emb_cap f.graph db.(gi)))
        f.support)
    t.features;
  t

let of_cells ~features ~cells ~num_graphs ~emb_cap =
  let features = Array.of_list features in
  check_emb_cap "of_cells" emb_cap;
  if num_graphs < 0 then invalid_arg "Structural.of_cells: negative graph count";
  if Bigarray.Array1.dim cells <> Array.length features * num_graphs then
    invalid_arg "Structural.of_cells: cell count does not match dimensions";
  { features; cells; num_graphs; emb_cap }

let cells t = t.cells
let emb_cap t = t.emb_cap

let num_features t = Array.length t.features
let num_graphs t = t.num_graphs

let size_cells t = Array.length t.features * t.num_graphs

let sub t ~base ~len =
  if base < 0 || len < 0 || base + len > t.num_graphs then
    invalid_arg
      (Printf.sprintf "Structural.sub: range %d..%d outside 0..%d" base
         (base + len) t.num_graphs);
  let s = create t.features ~num_graphs:len ~emb_cap:t.emb_cap in
  blit_rows t ~from:base ~len s ~at:0;
  s

let concat = function
  | [] -> invalid_arg "Structural.concat: empty list"
  | first :: _ as parts ->
    List.iter
      (fun p ->
        if p.emb_cap <> first.emb_cap then
          invalid_arg "Structural.concat: parts indexed with different embedding caps";
        if Array.length p.features <> Array.length first.features then
          invalid_arg "Structural.concat: parts count different feature sets")
      parts;
    let num_graphs = List.fold_left (fun a p -> a + p.num_graphs) 0 parts in
    let t = create first.features ~num_graphs ~emb_cap:first.emb_cap in
    ignore
      (List.fold_left
         (fun at p ->
           blit_rows p ~from:0 ~len:p.num_graphs t ~at;
           at + p.num_graphs)
         0 parts);
    t

(* Max number of q-embeddings of [f] destroyed by deleting one edge of q. *)
let max_per_edge q embs =
  let m = Lgraph.num_edges q in
  if m = 0 then 0
  else begin
    let per_edge = Array.make m 0 in
    List.iter
      (fun e ->
        Bitset.iter (fun eid -> per_edge.(eid) <- per_edge.(eid) + 1) e.Embedding.edges)
      embs;
    Array.fold_left max 0 per_edge
  end

(* The new graphs counted as an index of their own, concatenated: every
   feature is counted wherever it occurs (vertex features everywhere). *)
let add_graphs t gs =
  if Array.length gs = 0 then t
  else
    let occurring (f : Selection.feature) =
      List.filter
        (fun i -> Lgraph.num_edges f.graph = 0 || Vf2.exists f.graph gs.(i))
        (List.init (Array.length gs) Fun.id)
    in
    concat
      [
        t;
        build gs
          (Array.to_list
             (Array.map (fun f -> { f with Selection.support = occurring f }) t.features))
          ~emb_cap:t.emb_cap;
      ]

let m_checked = Psst_obs.counter "structural.checked"
let m_survivors = Psst_obs.counter "structural.survivors"

let candidates t ~skeleton q ~delta =
  Psst_obs.add m_checked t.num_graphs;
  let q_vh = Lgraph.vertex_label_hist q and q_eh = Lgraph.edge_label_hist q in
  (* Per-feature requirements from the query. *)
  let requirements =
    Array.mapi
      (fun fi (f : Selection.feature) ->
        if Lgraph.num_edges f.graph = 0 then (fi, 0)
        else begin
          let embs = Vf2.distinct_embeddings ~cap:t.emb_cap f.graph q in
          let n_q = List.length embs in
          if n_q = 0 || n_q >= t.emb_cap then (fi, 0)
            (* at the cap the count is a lower bound: cannot derive a
               sound requirement, so skip the feature *)
          else (fi, max 0 (n_q - (delta * max_per_edge q embs)))
        end)
      t.features
  in
  let active = Array.to_list requirements |> List.filter (fun (_, r) -> r > 0) in
  (* Feature requirements first: they read index cells only (zero-copy on
     a mapped image), so the label-histogram check — which touches the
     graph itself and forces a lazy decode — only runs on the survivors.
     The filter is a conjunction, so the order cannot change the result. *)
  let survivors =
    List.init t.num_graphs (fun gi -> gi)
    |> List.filter (fun gi ->
           List.for_all
             (fun (fi, req) ->
               Bigarray.Array1.get t.cells ((fi * t.num_graphs) + gi) >= req)
             active
           &&
           let g = skeleton gi in
           Lgraph.hist_missing q_eh (Lgraph.edge_label_hist g) <= delta
           (* Each pair of unmatched query vertices costs at least one common
              edge, so more than 2*delta missing vertex labels is fatal. *)
           && Lgraph.hist_missing q_vh (Lgraph.vertex_label_hist g) <= 2 * delta)
  in
  Psst_obs.add m_survivors (List.length survivors);
  survivors

let verify_candidate ~skeleton q ~delta gi = Distance.within q (skeleton gi) ~delta
