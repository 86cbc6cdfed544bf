(* Everything a run sends the servers: the standard corpus and, made
   from the seed, the query streams and the ingest batches. The servers
   receive only files and requests. *)

module Prng = Psst_util.Prng

type t = {
  graphs : Pgraph.t array;
  config : Query.config;
  stream : Lgraph.t array;
      (** cold: distinct queries, never repeated, organisms in turn *)
  pool : Lgraph.t array;  (** warm, routed, ingest reads: repeated queries *)
  batches : Pgraph.t array array;  (** ingest: [Add_graphs] payloads *)
}

let pool_size = 8
let batch_graphs = 4
let max_batches = 256
let query_edges = 8

(* Distinct (by canonical code) extractions, bucketed by source
   organism; [tries] bounds the search when the corpus runs short. *)
let distinct rng ds ~from_motif ~want ~tries =
  let seen = Hashtbl.create 64 in
  let buckets = Array.make ds.Generator.params.num_organisms [] in
  let found = ref 0 and k = ref 0 in
  while !found < want && !k < tries do
    incr k;
    let q, org = Generator.extract_query ~from_motif rng ds ~edges:query_edges in
    let code = Canon.code q in
    if not (Hashtbl.mem seen code) then begin
      Hashtbl.add seen code ();
      buckets.(org) <- q :: buckets.(org);
      incr found
    end
  done;
  Array.map List.rev buckets

(* Cold queries are extracted from organism motifs: each one probes
   structure a fifth of the corpus shares, so every request leaves tens
   of candidates to verify. Random extraction instead mixes queries with
   one or two candidates and queries with dozens, and the run median then
   flips between the two modes from seed to seed. Organisms take turns,
   so any prefix of the stream holds them in equal shares. *)
let cold_stream ds seed =
  let buckets = distinct (Prng.make (seed + 777)) ds ~from_motif:true ~want:400 ~tries:4000 in
  let out = ref [] in
  let rec round () =
    let progressed = ref false in
    Array.iteri
      (fun o qs ->
        match qs with
        | q :: rest ->
          out := q :: !out;
          buckets.(o) <- rest;
          progressed := true
        | [] -> ())
      buckets;
    if !progressed then round ()
  in
  round ();
  Array.of_list (List.rev !out)

let query_pool ds seed =
  let buckets =
    distinct (Prng.make (seed + 777)) ds ~from_motif:false ~want:pool_size ~tries:1000
  in
  Array.of_list (List.concat (Array.to_list buckets))

(* The corpus is the standard one — the Fig 9-regime generator at the
   repository's default experiment seed — whatever the run seed: like a
   benchmark dataset, it is part of the workload's definition. The seed
   draws everything sent to it: the queries, their order, and which
   graphs of a second fixed corpus are ingested in which order. Drawing
   the corpus from the seed as well would tie each run's cost to the five
   organism motifs that seed happened to generate, a spread across seeds
   that no run length averages away. *)
let make ~graphs ~seed ~batches =
  let scale = { Experiments.default_scale with db_size = graphs } in
  let ds = Generator.generate (Experiments.dataset_params scale) in
  let extra =
    Generator.generate
      (Experiments.dataset_params
         { scale with db_size = batches * batch_graphs; seed = scale.seed + 1 })
  in
  let order = Array.init (Array.length extra.graphs) Fun.id in
  Prng.shuffle (Prng.make (seed + 1)) order;
  {
    graphs = ds.graphs;
    config = Query.default_config;
    stream = cold_stream ds seed;
    pool = query_pool ds seed;
    batches =
      Array.init batches (fun b ->
          Array.init batch_graphs (fun j -> extra.graphs.(order.((b * batch_graphs) + j))));
  }
