(* Lazy random access over the graph payload of a flat store image, or a
   plain array for everything built eagerly. See the interface for the
   contract; the one invariant worth restating is that the mapped payload
   is byte-identical to [put_array encode_binary], so the classic eager
   decoder, the fingerprint and this lazy view all agree on the same
   bytes. *)

module S = Psst_store

type mapped_src = {
  m : S.mapped;
  section : string;
  data : S.bigbytes; (* the section payload, zero-copy *)
  offsets : int array; (* n + 1 boundaries, offsets.(0) = count-prefix size *)
  cache : Pgraph.t option array;
  mu : Mutex.t;
}

type backing = Eager of Pgraph.t array | Mapped of mapped_src

(* [fp] memoises {!fingerprint}: the graphs never change, so it is
   computed at most once per corpus value. A racing second computation
   writes the same value. *)
type t = { backing : backing; mutable fp : int32 option }

let of_array ?fingerprint graphs = { backing = Eager graphs; fp = fingerprint }

let slice_string (b : S.bigbytes) pos len =
  let s = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set s i (Bigarray.Array1.unsafe_get b (pos + i))
  done;
  Bytes.unsafe_to_string s

let of_mapped m ~section ~offsets =
  let data = S.mapped_bytes_unverified m section in
  let len = Bigarray.Array1.dim data in
  let nb = Array.length offsets in
  if nb < 1 then S.error "graph offsets for %S are empty" section;
  let n = nb - 1 in
  Array.iteri
    (fun i o ->
      if o < 0 || o > len then
        S.error "graph offset %d of %S lies outside the %d-byte payload" o
          section len;
      if i > 0 && o <= offsets.(i - 1) then
        S.error "graph offsets of %S are not strictly increasing at index %d"
          section i)
    offsets;
  if offsets.(n) <> len then
    S.error "graph offsets of %S cover %d of %d payload bytes" section
      offsets.(n) len;
  (* The prefix before the first boundary must be exactly the element
     count of the classic [put_array] framing. *)
  let d = S.decoder ~name:section (slice_string data 0 offsets.(0)) in
  let stored_n = S.get_nat d in
  S.expect_end d;
  if stored_n <> n then
    S.error "section %S holds %d graphs, its offsets table describes %d"
      section stored_n n;
  {
    backing =
      Mapped
        { m; section; data; offsets; cache = Array.make n None; mu = Mutex.create () };
    fp = None;
  }

let length t =
  match t.backing with
  | Eager g -> Array.length g
  | Mapped s -> Array.length s.cache

let decode_one s i =
  let lo = s.offsets.(i) and hi = s.offsets.(i + 1) in
  let name = Printf.sprintf "%s[%d]" s.section i in
  let d = S.decoder ~name (slice_string s.data lo (hi - lo)) in
  let g = Pgraph_io.decode_binary d in
  (* A region not exactly consumed means the offsets table lies about
     where graph [i] ends — reject rather than serve a misframed graph. *)
  S.expect_end d;
  g

let get t i =
  match t.backing with
  | Eager g -> g.(i)
  | Mapped s ->
    if i < 0 || i >= Array.length s.cache then
      invalid_arg
        (Printf.sprintf "Corpus.get: index %d outside 0..%d" i
           (Array.length s.cache - 1));
    (match Mutex.protect s.mu (fun () -> s.cache.(i)) with
    | Some g -> g
    | None ->
      (* Decode outside the lock (it allocates and can raise); a racing
         decode of the same graph yields the same immutable value, and
         the second write is harmless. *)
      let g = decode_one s i in
      Mutex.protect s.mu (fun () ->
          match s.cache.(i) with
          | Some g0 -> g0
          | None ->
            s.cache.(i) <- Some g;
            g))

let skeleton t i = Pgraph.skeleton (get t i)
let to_array t = Array.init (length t) (get t)
let sub t ~base ~count = of_array (Array.init count (fun i -> get t (base + i)))

(* Decoding goes through [get], so graphs already memoised by earlier
   lazy accesses are reused as-is and the rest decode (and validate)
   now — a mapped corpus materialises to exactly the array the classic
   eager loader would have produced, whatever the prior access pattern. *)
let materialise t =
  match t.backing with
  | Eager _ -> t
  | Mapped _ -> { backing = Eager (to_array t); fp = t.fp }

let append t gs = of_array (Array.append (to_array t) gs)

let fingerprint ?encoding t =
  match t.fp with
  | Some fp -> fp
  | None ->
    let fp =
      match (encoding, t.backing) with
      | Some e, _ -> Psst_util.Crc32.digest e
      | None, Eager g -> Pgraph_io.db_fingerprint g
      | None, Mapped s -> S.mapped_payload_crc s.m s.section
    in
    t.fp <- Some fp;
    fp
