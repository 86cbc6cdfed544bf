module Bitset = Psst_util.Bitset

type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The count matrix is either eagerly decoded rows or a zero-copy u16 view
   over a memory-mapped flat image (DESIGN.md §15), feature-major. Both
   answer [cell] identically; offline mutation materialises rows first. *)
type backing =
  | Rows of int array array (* feature -> graph -> capped embedding count *)
  | Cells of u16s

type t = {
  features : Selection.feature array;
  backing : backing;
  num_graphs : int;
  emb_cap : int;
}

let count_embeddings ~cap pattern target =
  if Lgraph.num_edges pattern = 0 then
    (* Vertex features: count label occurrences (always present, certain). *)
    min cap
      (Array.to_list (Lgraph.vertex_labels target)
      |> List.filter (fun l -> l = Lgraph.vertex_label pattern 0)
      |> List.length)
  else List.length (Vf2.distinct_embeddings ~cap pattern target)

let build db features ~emb_cap =
  let features = Array.of_list features in
  let counts =
    Array.map
      (fun (f : Selection.feature) ->
        let row = Array.make (Array.length db) 0 in
        List.iter
          (fun gi -> row.(gi) <- count_embeddings ~cap:emb_cap f.graph db.(gi))
          f.support;
        row)
      features
  in
  { features; backing = Rows counts; num_graphs = Array.length db; emb_cap }

let of_parts ~features ~counts ~emb_cap =
  let features = Array.of_list features in
  if emb_cap <= 0 then invalid_arg "Structural.of_parts: emb_cap must be positive";
  if Array.length counts <> Array.length features then
    invalid_arg "Structural.of_parts: one count row per feature required";
  let ng = if Array.length counts = 0 then 0 else Array.length counts.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> ng then
        invalid_arg "Structural.of_parts: ragged count matrix";
      Array.iter
        (fun c -> if c < 0 then invalid_arg "Structural.of_parts: negative count")
        row)
    counts;
  {
    features;
    backing = Rows (Array.map Array.copy counts);
    num_graphs = ng;
    emb_cap;
  }

let of_cells ~features ~cells ~num_graphs ~emb_cap =
  let features = Array.of_list features in
  if emb_cap <= 0 then invalid_arg "Structural.of_cells: emb_cap must be positive";
  if num_graphs < 0 then invalid_arg "Structural.of_cells: negative graph count";
  if Bigarray.Array1.dim cells <> Array.length features * num_graphs then
    invalid_arg "Structural.of_cells: cell count does not match dimensions";
  { features; backing = Cells cells; num_graphs; emb_cap }

let rows_matrix t =
  match t.backing with
  | Rows c -> c
  | Cells cells ->
    let ng = t.num_graphs in
    Array.init (Array.length t.features) (fun fi ->
        Array.init ng (fun gi -> Bigarray.Array1.get cells ((fi * ng) + gi)))

let counts t = Array.map Array.copy (rows_matrix t)
let emb_cap t = t.emb_cap

let num_features t = Array.length t.features
let num_graphs t = t.num_graphs

let size_cells t = Array.length t.features * t.num_graphs

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

let add_graphs t gs =
  if Array.length gs = 0 then t
  else begin
    let counts =
      Array.mapi
        (fun fi row ->
          let f = t.features.(fi) in
          let cs =
            Array.map
              (fun g ->
                if
                  Lgraph.num_edges f.Selection.graph = 0
                  || Vf2.exists f.Selection.graph g
                then count_embeddings ~cap:t.emb_cap f.Selection.graph g
                else 0)
              gs
          in
          Array.append row cs)
        (rows_matrix t)
    in
    {
      t with
      backing = Rows counts;
      num_graphs = t.num_graphs + Array.length gs;
    }
  end

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
  (* Hoist the backing dispatch out of the per-graph loop. *)
  let cell =
    match t.backing with
    | Rows c -> fun fi gi -> c.(fi).(gi)
    | Cells cells ->
      let ng = t.num_graphs in
      fun fi gi -> Bigarray.Array1.get cells ((fi * ng) + gi)
  in
  (* Feature requirements first: they read index cells only (zero-copy on
     a mapped image), so the label-histogram check — which touches the
     graph itself and forces a lazy decode — only runs on the survivors.
     The filter is a conjunction, so the order cannot change the result. *)
  let survivors =
    List.init t.num_graphs (fun gi -> gi)
    |> List.filter (fun gi ->
           List.for_all (fun (fi, req) -> cell fi gi >= req) active
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
