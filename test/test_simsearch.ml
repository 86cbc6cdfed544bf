module Prng = Psst_util.Prng

let square () =
  Lgraph.create ~vlabels:[| 0; 1; 0; 1 |]
    ~edges:[ (0, 1, 0); (1, 2, 0); (2, 3, 0); (3, 0, 0) ]

(* --- Relaxation --- *)

let test_relax_delta0 () =
  let q = square () in
  let rqs, status = Relax.relaxed_set q ~delta:0 in
  Alcotest.(check int) "single graph" 1 (List.length rqs);
  Alcotest.(check bool) "complete" true (status = `Complete);
  Alcotest.(check bool) "is q itself" true
    (Lgraph.equal_structure (List.hd rqs) q)

let test_relax_delta1_square () =
  let q = square () in
  let rqs, _ = Relax.relaxed_set q ~delta:1 in
  (* Square minus any edge: all four deletions give an isomorphic path
     0-1-0-1, so dedup leaves exactly... the two paths alternate labels
     0,1,0,1 vs 1,0,1,0 which are isomorphic -> 1 relaxed graph. *)
  Alcotest.(check int) "deduped" 1 (List.length rqs);
  Alcotest.(check int) "3 edges" 3 (Lgraph.num_edges (List.hd rqs))

let test_relax_delta_exceeds () =
  let q = square () in
  let rqs, _ = Relax.relaxed_set q ~delta:4 in
  Alcotest.(check int) "single empty graph" 1 (List.length rqs);
  Alcotest.(check int) "no edges" 0 (Lgraph.num_edges (List.hd rqs))

let test_relax_drops_isolated () =
  let star =
    Lgraph.create ~vlabels:[| 0; 1; 2 |] ~edges:[ (0, 1, 0); (0, 2, 0) ]
  in
  let rqs, _ = Relax.relaxed_set star ~delta:1 in
  List.iter
    (fun rq ->
      Alcotest.(check int) "two vertices after drop" 2 (Lgraph.num_vertices rq))
    rqs;
  Alcotest.(check int) "two distinct relaxations" 2 (List.length rqs)

let test_relax_cap_truncates () =
  let rng = Prng.make 3 in
  let q = Tgen.random_connected_graph rng ~n:8 ~extra:6 ~vl:2 ~el:2 in
  let _, status = Relax.relaxed_set ~cap:5 q ~delta:3 in
  Alcotest.(check bool) "truncated flagged" true (status = `Truncated)

let prop_relaxed_embed_in_query =
  QCheck.Test.make ~name:"every relaxed query embeds in q" ~count:80
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 3) in
      let q = Tgen.random_connected_graph rng ~n:5 ~extra:2 ~vl:2 ~el:2 in
      let delta = 1 + Prng.int rng 2 in
      let rqs, _ = Relax.relaxed_set q ~delta in
      List.for_all (fun rq -> Vf2.exists rq q) rqs)

let prop_relax_lemma1_consistency =
  QCheck.Test.make
    ~name:"dis(q,g) <= delta iff some rq embeds (Lemma 1 basis)" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 17) in
      let q = Tgen.random_connected_graph rng ~n:4 ~extra:1 ~vl:2 ~el:1 in
      let g = Tgen.random_connected_graph rng ~n:6 ~extra:3 ~vl:2 ~el:1 in
      let delta = Prng.int rng 3 in
      let rqs, status = Relax.relaxed_set q ~delta in
      status <> `Complete
      || Distance.within q g ~delta = List.exists (fun rq -> Vf2.exists rq g) rqs)

(* --- Structural pruning --- *)

let small_db rng n =
  Array.init n (fun _ -> Tgen.random_connected_graph rng ~n:7 ~extra:3 ~vl:3 ~el:2)

let test_structural_no_false_dismissals () =
  let rng = Prng.make 11 in
  let db = small_db rng 20 in
  let features =
    Selection.select db { Selection.default_params with beta = 0.2; max_edges = 2 }
  in
  let index = Structural.build db features ~emb_cap:32 in
  for trial = 0 to 9 do
    let rng_q = Prng.make (trial + 100) in
    let q = Tgen.random_connected_graph rng_q ~n:4 ~extra:1 ~vl:3 ~el:2 in
    let delta = Prng.int rng_q 3 in
    let cands = Structural.candidates index ~skeleton:(fun gi -> db.(gi)) q ~delta in
    (* Every true match must be in the candidate set. *)
    Array.iteri
      (fun gi g ->
        if Distance.within q g ~delta then
          Alcotest.(check bool)
            (Printf.sprintf "trial %d graph %d retained" trial gi)
            true (List.mem gi cands))
      db
  done

let test_structural_prunes_something () =
  let rng = Prng.make 19 in
  let db = small_db rng 30 in
  let features =
    Selection.select db { Selection.default_params with beta = 0.2; max_edges = 2 }
  in
  let index = Structural.build db features ~emb_cap:32 in
  (* A query with an exotic label histogram should prune heavily. *)
  let q =
    Lgraph.create ~vlabels:[| 0; 1; 2; 0 |]
      ~edges:[ (0, 1, 0); (1, 2, 1); (2, 3, 0); (0, 3, 1) ]
  in
  let cands = Structural.candidates index ~skeleton:(fun gi -> db.(gi)) q ~delta:0 in
  Alcotest.(check bool) "some pruning happened" true
    (List.length cands < Array.length db)

let test_structural_index_size () =
  let rng = Prng.make 5 in
  let db = small_db rng 6 in
  let features =
    Selection.select db { Selection.default_params with beta = 0.2; max_edges = 2 }
  in
  let index = Structural.build db features ~emb_cap:32 in
  Alcotest.(check int) "entries = edge-feature supports"
    (List.fold_left
       (fun a ({ feature = f; support; _ } : Selection.mined) ->
         if Lgraph.num_edges f.graph = 0 then a else a + List.length support)
       0 features)
    (Structural.entries index)

let suite =
  [
    Alcotest.test_case "relax delta=0" `Quick test_relax_delta0;
    Alcotest.test_case "relax square delta=1" `Quick test_relax_delta1_square;
    Alcotest.test_case "relax delta >= |E|" `Quick test_relax_delta_exceeds;
    Alcotest.test_case "relax drops isolated" `Quick test_relax_drops_isolated;
    Alcotest.test_case "relax cap truncates" `Quick test_relax_cap_truncates;
    QCheck_alcotest.to_alcotest prop_relaxed_embed_in_query;
    QCheck_alcotest.to_alcotest prop_relax_lemma1_consistency;
    Alcotest.test_case "structural: no false dismissals" `Slow
      test_structural_no_false_dismissals;
    Alcotest.test_case "structural: prunes" `Quick test_structural_prunes_something;
    Alcotest.test_case "structural: index size" `Quick test_structural_index_size;
  ]
