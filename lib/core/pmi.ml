type entry = Bounds.t

module S = Psst_store

(* The index is held as the flat image of DESIGN.md §15 — whether it was
   just built, decoded eagerly or mapped zero-copy out of a store file:
   per-feature delta-coded postings plus a fixed-width IEEE-754 bounds
   array, six floats per filled entry. Built and eagerly loaded indexes
   own heap bigarrays; a mapped one holds views over the mapping. [d_rank]
   is the cumulative filled-entry count before the feature — its first
   bounds record lives at float index [6 * d_rank]. *)
type dir_entry = { d_count : int; d_off : int; d_len : int; d_rank : int }

type t = {
  config : Bounds.config;
  features : Selection.feature array;
  dir : dir_entry array; (* per feature *)
  postings : S.bigbytes;
  bounds : S.floats;
  block : int;
  filled : int;
  num_graphs : int;
  build_seconds : float;
}

let log_src = Logs.Src.create "psst.pmi" ~doc:"PMI index construction"

module Log = (val Logs.src_log log_src)

(* --- the postings layout ---

   Postings region per feature (byte offsets relative to the postings
   payload):

     u32 n_blocks
     n_blocks x { u32 first_gid; u32 body_off }      skip entries
     block bodies: LEB128 deltas (>= 1) between consecutive graph ids

   Block k covers within-feature ranks [k*block .. min((k+1)*block, count)-1];
   its first graph id sits in the skip entry, the remaining ids are deltas in
   the body at [body_off] (relative to the start of the bodies area). *)

let flat_block = 128

let u32 (b : S.bigbytes) at =
  Char.code (Bigarray.Array1.get b at)
  lor (Char.code (Bigarray.Array1.get b (at + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get b (at + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get b (at + 3)) lsl 24)

let put_u32 e v = S.put_i32 e (Int32.of_int v)

let rec varint_len v = if v < 0x80 then 1 else 1 + varint_len (v lsr 7)

(* One feature's region over its strictly increasing graph ids. The body
   offsets are summed from the varint lengths, so the bodies are written
   straight after the skip entries, with no buffer of their own. *)
let put_postings e ids =
  let n = Array.length ids in
  let nb = if n = 0 then 0 else ((n - 1) / flat_block) + 1 in
  put_u32 e nb;
  let body = ref 0 in
  for k = 0 to nb - 1 do
    let lo = k * flat_block and hi = min n ((k + 1) * flat_block) in
    put_u32 e ids.(lo);
    put_u32 e !body;
    for i = lo + 1 to hi - 1 do
      body := !body + varint_len (ids.(i) - ids.(i - 1))
    done
  done;
  (* every id but a block's first is a delta in the bodies *)
  for i = 1 to n - 1 do
    if i mod flat_block <> 0 then S.put_varint e (ids.(i) - ids.(i - 1))
  done

(* Validating walk over feature [fi]'s postings; [emit rank gid] is called
   for each, with [rank] the within-feature rank. Both loaders run it over
   every feature at open ([scan_postings]), so they accept exactly the
   same byte strings; the offline operations use it to read the graph ids
   back, and the structural view to walk a feature's graphs. *)
let scan_feature (p : S.bigbytes) de ~block ~ng fi emit =
  let stop = de.d_off + de.d_len in
  let u32 at =
    if at < de.d_off || at + 4 > stop then
      S.error "flat postings: feature %d region overrun" fi;
    u32 p at
  in
  let nb = u32 de.d_off in
  let expect_nb = if de.d_count = 0 then 0 else ((de.d_count - 1) / block) + 1 in
  if nb <> expect_nb then
    S.error "flat postings: feature %d has %d skip blocks, expected %d" fi
      nb expect_nb;
  let bodies = de.d_off + 4 + (8 * nb) in
  if bodies > stop then S.error "flat postings: feature %d region overrun" fi;
  let pos = ref bodies in
  let prev = ref (-1) in
  for k = 0 to nb - 1 do
    let g0 = u32 (de.d_off + 4 + (8 * k)) in
    let boff = u32 (de.d_off + 4 + (8 * k) + 4) in
    if bodies + boff <> !pos then
      S.error "flat postings: feature %d block %d body offset mismatch" fi k;
    if g0 <= !prev then
      S.error "flat postings: feature %d graph ids not strictly increasing"
        fi;
    if g0 >= ng then
      S.error "flat postings: feature %d mentions graph %d of a %d-graph \
               database"
        fi g0 ng;
    let lo = k * block in
    let hi = min de.d_count ((k + 1) * block) in
    emit lo g0;
    let cur = ref g0 in
    for i = lo + 1 to hi - 1 do
      let v = ref 0 and shift = ref 0 and c = ref 0x80 in
      while !c land 0x80 <> 0 do
        if !pos >= stop then S.error "flat postings: feature %d region overrun" fi;
        if !shift > 56 then S.error "flat postings: feature %d varint overflow" fi;
        c := Char.code (Bigarray.Array1.get p !pos);
        incr pos;
        v := !v lor ((!c land 0x7f) lsl !shift);
        shift := !shift + 7
      done;
      (* a negative value is an overflow into the sign bit *)
      if !v < 1 then S.error "flat postings: feature %d non-positive delta" fi;
      cur := !cur + !v;
      if !cur >= ng then
        S.error "flat postings: feature %d mentions graph %d of a \
                 %d-graph database"
          fi !cur ng;
      emit i !cur
    done;
    prev := !cur
  done;
  if !pos <> stop then
    S.error "flat postings: feature %d region has %d trailing bytes" fi
      (stop - !pos)

let scan_postings p dir ~block ~ng emit =
  Array.iteri (fun fi de -> scan_feature p de ~block ~ng fi (emit fi)) dir

(* Every feature's graph ids, in rank order. *)
let posting_ids t =
  let ids = Array.map (fun de -> Array.make de.d_count 0) t.dir in
  scan_postings t.postings t.dir ~block:t.block ~ng:t.num_graphs
    (fun fi rank gid -> ids.(fi).(rank) <- gid);
  ids

(* --- the bounds records --- *)

let count_as_float what v =
  let f = Float.of_int v in
  if v < 0 || Float.to_int f <> v then
    S.error "flat bounds: %s %d is not exactly representable" what v;
  f

let put_entry (dst : S.floats) i (e : entry) =
  let set j v = Bigarray.Array1.set dst ((6 * i) + j) v in
  set 0 e.Bounds.lower;
  set 1 e.upper;
  set 2 e.lower_safe;
  set 3 e.upper_safe;
  set 4 (count_as_float "embedding count" e.embeddings);
  set 5 (count_as_float "cut count" e.cuts)

(* The eager loader checks every count field at open; a mapped index
   checks each as a lookup reads it, so attach time does not scale with
   the bounds payload. Either way a corrupted count is a clean
   [Store_error]. *)
let[@inline] flat_count what v =
  if not (Float.is_integer v) || v < 0. || v > 9.0e15 then
    S.error "flat bounds: invalid %s %g" what v;
  int_of_float v

let entry t idx : entry =
  let b = t.bounds and o = 6 * idx in
  {
    Bounds.lower = Bigarray.Array1.get b o;
    upper = Bigarray.Array1.get b (o + 1);
    lower_safe = Bigarray.Array1.get b (o + 2);
    upper_safe = Bigarray.Array1.get b (o + 3);
    embeddings = flat_count "embedding count" (Bigarray.Array1.get b (o + 4));
    cuts = flat_count "cut count" (Bigarray.Array1.get b (o + 5));
  }

let bigbytes_of_string s : S.bigbytes =
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (Bigarray.Array1.unsafe_set b) s;
  b

(* A feature's [count] records, moved as one block: they are contiguous. *)
let blit_records (src : S.floats) ~rank ~count (dst : S.floats) ~at =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src (6 * rank) (6 * count))
    (Bigarray.Array1.sub dst (6 * at) (6 * count))

(* [assemble ... rows] lays out a fresh image: [rows.(fi)] is feature
   [fi]'s strictly increasing graph ids and a writer that fills the
   feature's [6 * count] bound floats into the view it is handed. *)
let assemble ~config ~features ~num_graphs ~build_seconds rows =
  let filled = Array.fold_left (fun a (ids, _) -> a + Array.length ids) 0 rows in
  let bounds = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (6 * filled) in
  let postings = S.encoder () in
  let rank = ref 0 in
  let dir =
    Array.init (Array.length rows) (fun fi ->
        let ids, write = rows.(fi) in
        let count = Array.length ids and off = S.enc_length postings in
        put_postings postings ids;
        write (Bigarray.Array1.sub bounds (6 * !rank) (6 * count));
        let de =
          { d_count = count; d_off = off; d_len = S.enc_length postings - off; d_rank = !rank }
        in
        rank := !rank + count;
        de)
  in
  {
    config;
    features;
    dir;
    postings = bigbytes_of_string (S.contents postings);
    bounds;
    block = flat_block;
    filled;
    num_graphs;
    build_seconds;
  }

(* --- building ---

   The matrix is computed column-by-column (per graph) so that what the
   bounds of a graph share (its world pool and exact probabilities, one
   [Bounds.column]) is built once and the columns can be distributed
   over domains: every column touches exactly one Pgraph, so the lazily
   built junction trees never contend. Columns land at their graph index,
   hence the build is independent of how the pool schedules them. *)
let m_columns = Psst_obs.counter "pmi.columns_built"
let h_column = Psst_obs.histogram "pmi.column_build_s"

(* The column of graph [g]: an entry for every feature [fi] with
   [occurs fi], none elsewhere. *)
let column_of config features g ~occurs =
  Psst_obs.incr m_columns;
  Psst_obs.span h_column (fun () ->
      let column = Bounds.column config g in
      Array.mapi
        (fun fi (f : Selection.feature) ->
          if occurs fi then Some (Bounds.compute config ~column g f.graph)
          else None)
        features)

(* The image of [features] with feature [fi]'s entries at the strictly
   increasing graph ids [ids.(fi)] of [db]; each column's membership row
   says which features occur in that graph. *)
let build_rows ~config ~domains db features ids =
  let ng = Array.length db in
  let nf = Array.length features in
  let occurs = Array.init ng (fun _ -> Bytes.make nf '\000') in
  Array.iteri
    (fun fi row ->
      Array.iteri
        (fun r gi ->
          if gi < 0 || gi >= ng || (r > 0 && row.(r - 1) >= gi) then
            invalid_arg "Pmi.build: a support is not increasing graph ids of the database";
          Bytes.set occurs.(gi) fi '\001')
        row)
    ids;
  let columns, build_seconds =
    Psst_util.Timer.time (fun () ->
        let d = max 1 (min domains ng) in
        if d > 1 then Log.debug (fun m -> m "building %d columns on %d domains" ng d);
        Psst_util.Pool.with_pool ~domains:d (fun pool ->
            Psst_util.Pool.map_array pool ~chunk:1
              (fun gi ->
                column_of config features db.(gi) ~occurs:(fun fi ->
                    Bytes.get occurs.(gi) fi <> '\000'))
              (Array.init ng Fun.id)))
  in
  Log.info (fun m ->
      m "PMI built: %d features x %d graphs in %.2fs" nf ng build_seconds);
  assemble ~config ~features ~num_graphs:ng ~build_seconds
    (Array.mapi
       (fun fi ids ->
         ( ids,
           fun dst ->
             Array.iteri (fun r gi -> put_entry dst r (Option.get columns.(gi).(fi))) ids ))
       ids)

let build ?(config = Bounds.default_config) ?(domains = 1) db mined =
  let mined = Array.of_list mined in
  build_rows ~config ~domains db
    (Array.map (fun (m : Selection.mined) -> m.feature) mined)
    (Array.map (fun (m : Selection.mined) -> Array.of_list m.support) mined)

(* The image of [features] over [db] with each feature's entries at the
   graphs whose skeleton holds it, by VF2. The miner records exactly that
   set for every feature it keeps (Selection.select), so this rebuilds the
   postings wherever no mined list is at hand: the columns of new graphs
   and a salvaged image. *)
let build_occurring ~config db features =
  let skels = Array.map Pgraph.skeleton db in
  build_rows ~config ~domains:1 db features
    (Array.map
       (fun (f : Selection.feature) ->
         Array.of_list
           (List.filter
              (fun gi -> Vf2.exists f.graph skels.(gi))
              (List.init (Array.length db) Fun.id)))
       features)

(* Slicing and concatenation back the shard store (lib/shard). Both are
   pure re-arrangements of already-computed state: [sub] never recomputes
   a bound (which would be sound — the column build is
   content-deterministic — but would defeat the point of splitting an
   indexed database), and [concat (sub ..)] pieces round-trip the original
   image bit-exactly. Postings are rebased to local ids so a shard is a
   fully self-contained database over its own [0 .. len-1] range; the
   features are patterns and are shared as they are. *)

(* First rank whose graph id is at least [gid]. *)
let rank_of ids gid =
  let i = ref 0 in
  while !i < Array.length ids && ids.(!i) < gid do
    incr i
  done;
  !i

let sub t ~base ~len =
  if base < 0 || len < 0 || base + len > t.num_graphs then
    invalid_arg
      (Printf.sprintf "Pmi.sub: range %d..%d outside 0..%d" base (base + len)
         t.num_graphs);
  assemble ~config:t.config ~features:t.features ~num_graphs:len
    ~build_seconds:t.build_seconds
    (Array.mapi
       (fun fi ids ->
         let lo = rank_of ids base and hi = rank_of ids (base + len) in
         ( Array.init (hi - lo) (fun i -> ids.(lo + i) - base),
           fun dst ->
             blit_records t.bounds ~rank:(t.dir.(fi).d_rank + lo) ~count:(hi - lo)
               dst ~at:0 ))
       (posting_ids t))

let concat = function
  | [] -> invalid_arg "Pmi.concat: empty list"
  | first :: _ as parts ->
    let nf = Array.length first.features in
    List.iteri
      (fun i p ->
        if p.config <> first.config then
          invalid_arg "Pmi.concat: parts built with different bound configs";
        if Array.length p.features <> nf then
          invalid_arg "Pmi.concat: parts mined different feature sets";
        Array.iteri
          (fun fi (f : Selection.feature) ->
            if f.key <> first.features.(fi).Selection.key then
              invalid_arg
                (Printf.sprintf
                   "Pmi.concat: part %d feature %d is %s, expected %s" i fi
                   f.key first.features.(fi).Selection.key))
          p.features)
      parts;
    let offsets =
      let acc = ref 0 in
      List.map
        (fun p ->
          let o = !acc in
          acc := o + p.num_graphs;
          o)
        parts
    in
    let num_graphs = List.fold_left (fun a p -> a + p.num_graphs) 0 parts in
    let ids = List.map posting_ids parts in
    let build_seconds =
      List.fold_left (fun a p -> Float.max a p.build_seconds) 0. parts
    in
    assemble ~config:first.config ~features:first.features ~num_graphs ~build_seconds
      (Array.init nf (fun fi ->
           ( Array.concat
               (List.map2 (fun ids off -> Array.map (( + ) off) ids.(fi)) ids offsets),
             fun dst ->
               ignore
                 (List.fold_left2
                    (fun at p ids ->
                      let count = Array.length ids.(fi) in
                      blit_records p.bounds ~rank:p.dir.(fi).d_rank ~count dst ~at;
                      at + count)
                    0 parts ids) )))

(* Incremental insertion: the new graphs' columns are built as an index of
   their own, at the features' occurrences in the new skeletons, and
   concatenated after the existing image, whose postings then name the new
   graphs like any other. The existing entries are not decoded: [concat]
   re-encodes their graph ids and moves their records as one block per
   feature. *)
let add_graphs t gs =
  if Array.length gs = 0 then t
  else begin
    let fresh = build_occurring ~config:t.config gs t.features in
    { (concat [ t; fresh ]) with build_seconds = t.build_seconds }
  end

let config t = t.config
let features t = Array.copy t.features
let num_features t = Array.length t.features
let num_graphs t = t.num_graphs

(* Binary search over the skip entries, then a walk of at most one block's
   deltas. The varints are decoded inline, so the only allocation is the
   entry returned. [Bigarray] bounds-checks every read, so even hostile
   bytes cannot read outside the postings. *)
let lookup t ~feature ~graph =
  let de = t.dir.(feature) in
  if de.d_count = 0 then None
  else begin
    let p = t.postings and skips = de.d_off + 4 in
    let nb = u32 p de.d_off in
    if graph < u32 p skips then None
    else begin
      (* greatest block whose first id is <= graph *)
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if u32 p (skips + (8 * mid)) <= graph then lo := mid else hi := mid - 1
      done;
      let k = !lo in
      let g0 = u32 p (skips + (8 * k)) in
      let start_rank = de.d_rank + (k * t.block) in
      if g0 = graph then Some (entry t start_rank)
      else begin
        let blk_n = min t.block (de.d_count - (k * t.block)) in
        let pos = ref (skips + (8 * nb) + u32 p (skips + (8 * k) + 4)) in
        let cur = ref g0 and i = ref 1 in
        while !i < blk_n && !cur < graph do
          let delta = ref 0 and shift = ref 0 and c = ref 0x80 in
          while !c land 0x80 <> 0 do
            c := Char.code (Bigarray.Array1.get p !pos);
            incr pos;
            delta := !delta lor ((!c land 0x7f) lsl !shift);
            shift := !shift + 7
          done;
          cur := !cur + !delta;
          incr i
        done;
        if !cur = graph then Some (entry t (start_rank + !i - 1)) else None
      end
    end
  end

let filled_entries t = t.filled
let build_seconds t = t.build_seconds

(* Every bound record carries its entry's embedding count, so the
   structural filter walks the postings and reads the count field in
   place: nothing is copied, and no [Bounds.t] is built per posting. *)
let structural t =
  Structural.of_postings ~features:t.features ~num_graphs:t.num_graphs
    ~emb_cap:t.config.Bounds.emb_cap ~entries:t.filled ~postings:(fun fi emit ->
      let de = t.dir.(fi) in
      scan_feature t.postings de ~block:t.block ~ng:t.num_graphs fi (fun rank gid ->
          emit gid
            (flat_count "embedding count"
               (Bigarray.Array1.get t.bounds ((6 * (de.d_rank + rank)) + 4)))))

(* --- persistence (DESIGN.md §9, §15) --- *)

let m_salvaged = Psst_obs.counter "store.salvaged_columns"

(* The features are their patterns alone: the postings are the one record
   of where each occurs. *)
let patterns_name = "pmi.patterns"

(* An image written before "pmi.patterns" holds the features in
   "pmi.features", each pattern followed by its mined support and strong
   support as two int lists. The postings hold the same supports, so the
   lists are parsed and dropped. *)
let legacy_features_name = "pmi.features"

let decode_legacy_feature d =
  let f = Selection.decode_feature d in
  ignore (S.get_int_list d : int list);
  ignore (S.get_int_list d : int list);
  f

(* The small metadata sections, decoded and validated identically by the
   eager and the mapped load paths. *)
let small_sections ~ng ~fingerprint t =
  let config = S.encoder () in
  S.put_i64 config t.config.Bounds.emb_cap;
  S.put_i64 config t.config.cut_cap;
  S.put_i64 config t.config.mc_samples;
  S.put_i64 config t.config.clique_budget;
  S.put_bool config t.config.tightest;
  S.put_i64 config t.config.seed;
  let dbsec = S.encoder () in
  S.put_i64 dbsec ng;
  S.put_i32 dbsec fingerprint;
  let patterns = S.encoder () in
  S.put_array patterns Selection.encode_feature t.features;
  let meta = S.encoder () in
  S.put_f64 meta t.build_seconds;
  ( S.section "pmi.config" config,
    S.section "pmi.db" dbsec,
    S.section patterns_name patterns,
    S.section "pmi.meta" meta )

let flat_dir_name = "pmi.flat.dir"
let flat_postings_name = "pmi.flat.postings"
let flat_bounds_name = "pmi.flat.bounds"

(* The image is already in memory; saving only frames it. *)
let to_sections ~ng ~fingerprint t =
  let config, dbsec, features, meta = small_sections ~ng ~fingerprint t in
  let dir = S.encoder () in
  S.put_i64 dir (num_features t);
  S.put_i64 dir t.num_graphs;
  S.put_i64 dir t.block;
  S.put_i64 dir t.filled;
  Array.iter
    (fun de ->
      S.put_i64 dir de.d_count;
      S.put_i64 dir de.d_off;
      S.put_i64 dir de.d_len)
    t.dir;
  let bounds = Bytes.create (8 * Bigarray.Array1.dim t.bounds) in
  for i = 0 to Bigarray.Array1.dim t.bounds - 1 do
    Bytes.set_int64_le bounds (8 * i)
      (Int64.bits_of_float (Bigarray.Array1.get t.bounds i))
  done;
  [
    config;
    dbsec;
    features;
    S.section flat_dir_name dir;
    {
      S.name = flat_postings_name;
      payload =
        String.init (Bigarray.Array1.dim t.postings) (Bigarray.Array1.get t.postings);
    };
    { S.name = flat_bounds_name; payload = Bytes.unsafe_to_string bounds };
    meta;
  ]

let decode_flat_dir payload ~nf ~ng ~postings_len ~bounds_len =
  let d = S.decoder ~name:flat_dir_name payload in
  let snf = S.get_nat d in
  let sng = S.get_nat d in
  let block = S.get_nat d in
  let filled = S.get_nat d in
  if snf <> nf then S.error "flat directory has %d rows for %d features" snf nf;
  if sng <> ng then S.error "flat directory has %d columns for %d graphs" sng ng;
  if block < 1 then S.error "flat directory block size %d must be >= 1" block;
  if bounds_len <> filled * 48 then
    S.error "flat bounds payload is %d bytes for %d filled entries" bounds_len
      filled;
  let run_off = ref 0 and run_rank = ref 0 in
  let dir =
    Array.init nf (fun fi ->
        let count = S.get_nat d in
        let off = S.get_nat d in
        let len = S.get_nat d in
        if count > ng then
          S.error "flat directory: feature %d has %d postings for %d graphs" fi
            count ng;
        if off <> !run_off then
          S.error "flat directory: feature %d region at offset %d, expected %d"
            fi off !run_off;
        if len < 4 || off + len > postings_len then
          S.error "flat directory: feature %d region %d+%d outside %d-byte \
                   postings payload"
            fi off len postings_len;
        let rank = !run_rank in
        run_off := off + len;
        run_rank := rank + count;
        { d_count = count; d_off = off; d_len = len; d_rank = rank })
  in
  S.expect_end d;
  if !run_off <> postings_len then
    S.error "flat directory: regions cover %d of %d postings bytes" !run_off
      postings_len;
  if !run_rank <> filled then
    S.error "flat directory: feature counts sum to %d, filled total is %d"
      !run_rank filled;
  (dir, filled, block)

(* The index over a directory payload and the postings and bounds
   payloads, whether copies or views over a mapping: both loaders build
   it here, through the same directory checks and the same validating
   walk over every posting. *)
let of_image ~config ~features ~ng ~dir ~postings ~bounds ~build_seconds =
  let dir, filled, block =
    decode_flat_dir dir ~nf:(Array.length features) ~ng
      ~postings_len:(Bigarray.Array1.dim postings)
      ~bounds_len:(8 * Bigarray.Array1.dim bounds)
  in
  scan_postings postings dir ~block ~ng (fun _ _ _ -> ());
  { config; features; dir; postings; bounds; block; filled; num_graphs = ng; build_seconds }

(* Decode + validate the small metadata sections, shared by both load
   paths. [fp] is the database's actual fingerprint when identity must be
   re-proven — the eager path always passes it; the zero-copy query path
   skips it (its graphs live in the same atomically-written container as the
   index, so identity is intrinsic, and re-fingerprinting would force the
   decode the mapping exists to avoid). *)
let decode_small_sections ~ng ~fp sections =
  let config =
    S.decode_section sections "pmi.config" (fun d ->
        let emb_cap = S.get_nat d in
        let cut_cap = S.get_nat d in
        let mc_samples = S.get_nat d in
        let clique_budget = S.get_nat d in
        let tightest = S.get_bool d in
        let seed = S.get_i64 d in
        { Bounds.emb_cap; cut_cap; mc_samples; clique_budget; tightest; seed })
  in
  S.decode_section sections "pmi.db" (fun d ->
      let stored_ng = S.get_nat d in
      let stored_fp = S.get_i32 d in
      if stored_ng <> ng then
        S.error
          "database mismatch: index was built over %d graphs, this database \
           has %d — rebuild the index"
          stored_ng ng;
      match fp with
      | None -> ()
      | Some actual ->
        if stored_fp <> actual then
          S.error
            "database fingerprint mismatch (stored %08lx, actual %08lx): the \
             index was built for a different database — rebuild the index"
            stored_fp actual);
  let features =
    if List.exists (fun (s : S.section) -> s.S.name = legacy_features_name) sections
    then
      S.decode_section sections legacy_features_name (fun d ->
          S.get_array d decode_legacy_feature)
    else
      S.decode_section sections patterns_name (fun d ->
          S.get_array d Selection.decode_feature)
  in
  (config, features)

let of_sections ?(salvage = false) ~db ~fingerprint sections =
  let ng = Array.length db in
  let config, features =
    decode_small_sections ~ng ~fp:(Some fingerprint) sections
  in
  let has name = List.exists (fun (s : S.section) -> s.S.name = name) sections in
  let t =
    if
      salvage
      && not (List.for_all has [ flat_dir_name; flat_postings_name; flat_bounds_name ])
    then begin
      (* Self-healing (DESIGN.md §12): a bulk section failed its checksum
         (or never reached the disk). The image has no finer grain, so every
         column is rebuilt from the graphs and the intact features, at the
         features' occurrences in the skeletons; the build is deterministic,
         so the result is bit-identical. *)
      let rebuilt = build_occurring ~config db features in
      Psst_obs.add m_salvaged ng;
      Psst_obs.warn ~code:"store.salvaged"
        (Printf.sprintf
           "PMI salvage: rebuilt all %d columns (damaged PMI image section)" ng);
      rebuilt
    end
    else begin
      let postings = S.find_section sections flat_postings_name in
      let bounds = S.find_section sections flat_bounds_name in
      if String.length bounds mod 8 <> 0 then
        S.error "flat bounds payload is %d bytes, not whole records"
          (String.length bounds);
      let t =
        of_image ~config ~features ~ng
          ~dir:(S.find_section sections flat_dir_name)
          ~postings:(bigbytes_of_string postings)
          ~bounds:
            (Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout
               (String.length bounds / 8)
               (fun i -> Int64.float_of_bits (String.get_int64_le bounds (8 * i))))
          ~build_seconds:0.
      in
      for r = 0 to t.filled - 1 do
        ignore (entry t r)
      done;
      t
    end
  in
  let build_seconds =
    if salvage && not (has "pmi.meta") then 0.
    else S.decode_section sections "pmi.meta" S.get_f64
  in
  { t with build_seconds }

(* Zero-copy attach: the small sections are decoded (and CRC-checked)
   exactly like [of_sections], and the postings are walked once at open, so
   query-time binary searches never have to re-check structure. The
   bounds payload — the bulk of the image — is not scanned at open: its
   count fields are checked as lookups read them ([entry]), which is what
   keeps attach time independent of the index size. The graphs share the
   container, so the fingerprint is not re-proven
   ([decode_small_sections]). *)
let of_mapped_lazy m ~ng =
  let small =
    List.filter_map
      (fun name ->
        if S.mapped_has m name then
          Some { S.name; payload = S.mapped_section_string m name }
        else None)
      [ "pmi.config"; "pmi.db"; patterns_name; legacy_features_name; "pmi.meta";
        flat_dir_name ]
  in
  let config, features = decode_small_sections ~ng ~fp:None small in
  of_image ~config ~features ~ng
    ~dir:(S.find_section small flat_dir_name)
    ~postings:(S.mapped_bytes m flat_postings_name)
    ~bounds:(S.mapped_f64 m flat_bounds_name)
    ~build_seconds:(S.decode_section small "pmi.meta" S.get_f64)
