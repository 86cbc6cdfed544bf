module Bitset = Psst_util.Bitset

(* [postings fi emit] walks feature [fi]'s (graph, count) pairs in
   increasing graph order. The database's index walks its PMI image
   (Pmi.structural); [build] walks arrays of its own. *)
type t = {
  features : Selection.feature array;
  num_graphs : int;
  emb_cap : int;
  entries : int;
  postings : int -> (int -> int -> unit) -> unit;
}

let of_postings ~features ~num_graphs ~emb_cap ~entries ~postings =
  { features; num_graphs; emb_cap; entries; postings }

let build db features ~emb_cap =
  if emb_cap < 1 then
    invalid_arg (Printf.sprintf "Structural.build: emb_cap %d must be >= 1" emb_cap);
  let features = Array.of_list features in
  (* Vertex features are never walked: their requirement is always 0. *)
  let rows =
    Array.map
      (fun (f : Selection.feature) ->
        if Lgraph.num_edges f.graph = 0 then [||]
        else
          Array.of_list
            (List.map
               (fun gi ->
                 (gi, List.length (Vf2.distinct_embeddings ~cap:emb_cap f.graph db.(gi))))
               f.support))
      features
  in
  of_postings ~features ~num_graphs:(Array.length db) ~emb_cap
    ~entries:(Array.fold_left (fun a r -> a + Array.length r) 0 rows)
    ~postings:(fun fi emit -> Array.iter (fun (gi, c) -> emit gi c) rows.(fi))

let entries t = t.entries

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

let m_checked = Psst_obs.counter "structural.checked"
let m_survivors = Psst_obs.counter "structural.survivors"

let candidates t ~skeleton q ~delta =
  Psst_obs.add m_checked t.num_graphs;
  let q_vh = Lgraph.vertex_label_hist q and q_eh = Lgraph.edge_label_hist q in
  (* Per-feature requirements from the query; only positive ones filter. *)
  let active =
    Array.to_list t.features
    |> List.mapi (fun fi (f : Selection.feature) ->
           if Lgraph.num_edges f.graph = 0 then (fi, 0)
           else begin
             let embs = Vf2.distinct_embeddings ~cap:t.emb_cap f.graph q in
             let n_q = List.length embs in
             if n_q = 0 || n_q >= t.emb_cap then (fi, 0)
               (* at the cap the count is a lower bound: cannot derive a
                  sound requirement, so skip the feature *)
             else (fi, max 0 (n_q - (delta * max_per_edge q embs)))
           end)
    |> List.filter (fun (_, r) -> r > 0)
  in
  (* [passed.(gi)] is the number of leading active features graph [gi]
     meets: the k-th feature's walk only advances graphs that met the
     first k, so a graph met every one exactly when it reaches their
     number. The walks read postings alone (zero-copy on a mapped image),
     so the label-histogram checks — which touch the graph itself and
     force a lazy decode — run only on the graphs that pass them all. *)
  let passed = Array.make t.num_graphs 0 in
  List.iteri
    (fun k (fi, req) ->
      t.postings fi (fun gi c -> if passed.(gi) = k && c >= req then passed.(gi) <- k + 1))
    active;
  let need = List.length active in
  let survivors =
    List.init t.num_graphs Fun.id
    |> List.filter (fun gi ->
           passed.(gi) = need
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
