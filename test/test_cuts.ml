module Bitset = Psst_util.Bitset
module Prng = Psst_util.Prng

let bs l = Bitset.of_list 10 l

let test_hitting_single_set () =
  let cuts = Transversal.minimal_hitting_sets [ bs [ 1; 3 ] ] in
  let expect = [ [ 1 ]; [ 3 ] ] in
  Alcotest.(check (list (list int))) "singletons"
    expect
    (List.map Bitset.elements cuts |> List.sort compare)

let test_hitting_paper_example () =
  (* Paper Example 7 / Fig 8: embeddings {e1,e2}, {e2,e3}, {e3,e4} have
     minimal cuts {e2,e4}, {e1,e3}, {e2,e3}. *)
  let sets = [ bs [ 1; 2 ]; bs [ 2; 3 ]; bs [ 3; 4 ] ] in
  let cuts = Transversal.minimal_hitting_sets sets in
  let got = List.map Bitset.elements cuts |> List.sort compare in
  Alcotest.(check (list (list int))) "paper cuts"
    [ [ 1; 3 ]; [ 2; 3 ]; [ 2; 4 ] ]
    got

let test_hitting_disjoint_sets () =
  (* Disjoint sets: cuts are the full cartesian product. *)
  let sets = [ bs [ 0; 1 ]; bs [ 2 ] ] in
  let cuts = Transversal.minimal_hitting_sets sets in
  Alcotest.(check (list (list int))) "product"
    [ [ 0; 2 ]; [ 1; 2 ] ]
    (List.map Bitset.elements cuts |> List.sort compare)

let test_hitting_empty_hyperedge_rejected () =
  Alcotest.check_raises "empty hyperedge"
    (Invalid_argument "Transversal.minimal_hitting_sets: empty hyperedge")
    (fun () -> ignore (Transversal.minimal_hitting_sets [ bs [] ]))

let test_is_minimal () =
  let sets = [ bs [ 1; 2 ]; bs [ 2; 3 ] ] in
  Alcotest.(check bool) "2 hits both, minimal" true
    (Transversal.is_minimal_hitting_set sets (bs [ 2 ]));
  Alcotest.(check bool) "1,3 minimal" true
    (Transversal.is_minimal_hitting_set sets (bs [ 1; 3 ]));
  Alcotest.(check bool) "1,2 not minimal" false
    (Transversal.is_minimal_hitting_set sets (bs [ 1; 2 ]));
  Alcotest.(check bool) "1 not hitting" false
    (Transversal.is_hitting_set sets (bs [ 1 ]))

let random_sets rng =
  let k = 2 + Prng.int rng 3 in
  List.init k (fun _ ->
      let size = 1 + Prng.int rng 3 in
      Bitset.of_list 10 (Prng.sample_without_replacement rng size 10))

let prop_transversals_are_minimal_hitting =
  QCheck.Test.make ~name:"every output is a minimal hitting set" ~count:150
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 3) in
      let sets = random_sets rng in
      let cuts = Transversal.minimal_hitting_sets sets in
      List.for_all (Transversal.is_minimal_hitting_set sets) cuts)

let prop_transversals_complete =
  QCheck.Test.make ~name:"all minimal hitting sets are found" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Prng.make (seed + 7) in
      let sets = random_sets rng in
      let cuts = Transversal.minimal_hitting_sets sets in
      (* Brute force over all subsets of 0..9. *)
      let all = ref [] in
      for mask = 1 to 1023 do
        let t = Bitset.of_list 10 (List.filter (fun i -> mask land (1 lsl i) <> 0)
                                     (List.init 10 (fun i -> i))) in
        if Transversal.is_minimal_hitting_set sets t then all := t :: !all
      done;
      let norm l = List.map Bitset.elements l |> List.sort compare in
      norm cuts = norm !all)

(* --- Paper Fig 8 (Thm 6) --- *)

(* Fig 8: f2's three embeddings are the lines of the parallel graph cG,
   and Thm 6 reads its minimal embedding cuts as the minimal label sets
   that cut every line: {e1,e3}, {e2,e3} and {e2,e4}. The index takes
   them from the embeddings' edge sets as minimal transversals. *)
let test_parallel_graph_paper_example () =
  let embeddings =
    List.map
      (fun l -> { Embedding.vmap = [||]; edges = bs l })
      [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]
  in
  let lines = List.map (fun (e : Embedding.t) -> e.edges) embeddings in
  let cuts = Transversal.minimal_hitting_sets lines in
  Alcotest.(check (list (list int))) "paper cuts via cG"
    [ [ 1; 3 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (List.map Bitset.elements cuts |> List.sort compare);
  List.iter
    (fun cut ->
      Alcotest.(check bool) "cuts every line, and no proper subset does" true
        (Transversal.is_minimal_hitting_set lines cut))
    cuts

let suite =
  [
    Alcotest.test_case "hitting single set" `Quick test_hitting_single_set;
    Alcotest.test_case "hitting paper example" `Quick test_hitting_paper_example;
    Alcotest.test_case "hitting disjoint sets" `Quick test_hitting_disjoint_sets;
    Alcotest.test_case "empty hyperedge rejected" `Quick
      test_hitting_empty_hyperedge_rejected;
    Alcotest.test_case "minimality predicates" `Quick test_is_minimal;
    QCheck_alcotest.to_alcotest prop_transversals_are_minimal_hitting;
    QCheck_alcotest.to_alcotest prop_transversals_complete;
    Alcotest.test_case "parallel graph paper example" `Quick
      test_parallel_graph_paper_example;
  ]
