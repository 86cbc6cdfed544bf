module Bitset = Psst_util.Bitset

(* Keep only inclusion-minimal sets: the event "some set fully present" is
   unchanged, and fewer sets keep inclusion-exclusion tractable. *)
let minimal_antichain sets =
  let sorted =
    List.sort (fun a b -> compare (Bitset.cardinal a) (Bitset.cardinal b)) sets
  in
  List.fold_left
    (fun kept s ->
      if List.exists (fun k -> Bitset.subset k s) kept then kept else s :: kept)
    [] sorted
  |> List.rev

let prob_any_present t sets =
  if sets = [] then 0.
  else begin
    let certain = Pgraph.certain_edges t in
    let is_certain e = List.mem e certain in
    (* Certain edges are always present: drop them from every set. *)
    let reduced =
      List.map
        (fun s ->
          let s' = Bitset.copy s in
          Bitset.iter (fun e -> if is_certain e then Bitset.remove s' e) s;
          s')
        sets
    in
    if List.exists Bitset.is_empty reduced then 1.
    else begin
      let minimal = minimal_antichain reduced in
      let union =
        List.fold_left
          (fun acc s -> Bitset.union acc s)
          (Bitset.create (Bitset.capacity (List.hd minimal)))
          minimal
      in
      let union_vars = Bitset.elements union in
      (* The width covers the union scope itself: every uncertain edge is in
         some factor. *)
      if Velim.marginal_width (Pgraph.factors t) union_vars <= Factor.max_vars then begin
        (* Tabulate the joint marginal over the union scope and sweep it. *)
        let marg = Velim.marginal (Pgraph.factors t) union_vars in
        let marg = Factor.normalize marg in
        let fvars = Factor.vars marg in
        let local_mask s =
          let m = ref 0 in
          Array.iteri (fun i v -> if Bitset.mem s v then m := !m lor (1 lsl i)) fvars;
          !m
        in
        let set_masks = List.map local_mask minimal in
        let acc = ref 0. in
        Factor.iter_assignments marg (fun mask p ->
            if p > 0. && List.exists (fun sm -> sm land mask = sm) set_masks then
              acc := !acc +. p);
        !acc
      end
      else begin
        let n = List.length minimal in
        if n > 22 then failwith "Exact.prob_any_present: too many minimal sets";
        let arr = Array.of_list minimal in
        let memo = Hashtbl.create 256 in
        let conj_prob union_set =
          let key = Bitset.elements union_set in
          match Hashtbl.find_opt memo key with
          | Some p -> p
          | None ->
            let p =
              Velim.prob_all_present ~z:(Pgraph.partition_value t) (Pgraph.factors t) key
            in
            Hashtbl.add memo key p;
            p
        in
        let acc = ref 0. in
        for subset = 1 to (1 lsl n) - 1 do
          let u = Bitset.create (Bitset.capacity arr.(0)) in
          let bits = ref 0 in
          for i = 0 to n - 1 do
            if subset land (1 lsl i) <> 0 then begin
              incr bits;
              Bitset.union_into u arr.(i)
            end
          done;
          let sign = if !bits mod 2 = 1 then 1. else -1. in
          acc := !acc +. (sign *. conj_prob u)
        done;
        !acc
      end
    end
  end

(* Naive possible-world enumeration over every uncertain edge — the cost
   profile of the paper's Exact competitor (no Lemma-1 shortcuts). *)
let prob_any_present_naive t sets =
  begin
    let uncertain = Array.of_list (Pgraph.uncertain_edges t) in
    let m = Array.length uncertain in
    if m > 26 then failwith "Exact.prob_any_present_naive: too many uncertain edges";
    let pos = Hashtbl.create m in
    Array.iteri (fun i e -> Hashtbl.replace pos e i) uncertain;
    let certain = Pgraph.certain_edges t in
    (* Translate each required edge set into a local int mask; a set with
       only certain edges is always satisfied. *)
    let exception Always in
    try
      let masks =
        List.filter_map
          (fun s ->
            let m = ref 0 and all_certain = ref true in
            Bitset.iter
              (fun e ->
                if not (List.mem e certain) then begin
                  all_certain := false;
                  m := !m lor (1 lsl Hashtbl.find pos e)
                end)
              s;
            if !all_certain then raise Always;
            Some !m)
          sets
      in
      let factors = Array.of_list (Pgraph.factors t) in
      let acc = ref 0. in
      (* Every world's weight is computed before the match test — an
         index-free scan weighs each PWG whether or not it matches; only
         the match test itself benefits from the precomputed edge masks
         (which already makes this Exact faster than one running a
         subgraph-distance check per world). *)
      let world_ref = ref 0 in
      let lookup e =
        match Hashtbl.find_opt pos e with
        | Some i -> !world_ref land (1 lsl i) <> 0
        | None -> true (* certain edge *)
      in
      for world = 0 to (1 lsl m) - 1 do
        world_ref := world;
        let p = ref 1. in
        Array.iter (fun f -> p := !p *. Factor.value_of f lookup) factors;
        if List.exists (fun sm -> sm land world = sm) masks then
          acc := !acc +. !p
      done;
      !acc
    with Always -> 1.
  end

let sip ?(cap = 512) t f =
  let gc = Pgraph.skeleton t in
  let embs = Vf2.distinct_embeddings ~cap:(cap + 1) f gc in
  if List.length embs > cap then failwith "Exact.sip: embedding cap exceeded";
  prob_any_present t (List.map (fun e -> e.Embedding.edges) embs)

let ssp t q ~delta =
  let acc = ref 0. in
  Pgraph.iter_worlds t (fun mask p ->
      let world, _ = Lgraph.with_edge_mask (Pgraph.skeleton t) mask in
      if Distance.within q world ~delta then acc := !acc +. p);
  !acc
