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

(* A mapped backing is the window of graphs [lo .. lo + n - 1] of its
   source section; windows of one mapping share its decode cache. *)
type window = { src : mapped_src; lo : int; n : int }
type backing = Eager of Pgraph.t array | Mapped of window

(* [fp] memoises {!fingerprint}: the graphs never change, so it is
   computed at most once per corpus value. A racing second computation
   writes the same value. *)
type t = { backing : backing; mutable fp : int32 option }

let of_array ?fingerprint graphs = { backing = Eager graphs; fp = fingerprint }

external big_get64 : S.bigbytes -> int -> int64 = "%caml_bigstring_get64u"

(* Copies [len] bytes of [b] from [pos] into [dst] at [dpos], eight at a
   time. *)
let blit_big (b : S.bigbytes) pos dst dpos len =
  let i = ref 0 in
  while !i + 8 <= len do
    Bytes.set_int64_ne dst (dpos + !i) (big_get64 b (pos + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.unsafe_set dst (dpos + !i) (Bigarray.Array1.unsafe_get b (pos + !i));
    incr i
  done

let slice_string (b : S.bigbytes) pos len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Corpus.slice_string";
  let s = Bytes.create len in
  blit_big b pos s 0 len;
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
  let src =
    { m; section; data; offsets; cache = Array.make n None; mu = Mutex.create () }
  in
  { backing = Mapped { src; lo = 0; n }; fp = None }

let length t =
  match t.backing with
  | Eager g -> Array.length g
  | Mapped w -> w.n

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
  | Mapped { src = s; lo; n } ->
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Corpus.get: index %d outside 0..%d" i (n - 1));
    let i = lo + i in
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
let sub t ~base ~count =
  if base < 0 || count < 0 || base > length t - count then
    invalid_arg
      (Printf.sprintf "Corpus.sub: range %d..%d outside 0..%d" base (base + count)
         (length t));
  match t.backing with
  | Eager g -> of_array (Array.sub g base count)
  | Mapped w -> { backing = Mapped { w with lo = w.lo + base; n = count }; fp = None }

(* Decoding goes through [get], so graphs already memoised by earlier
   lazy accesses are reused as-is and the rest decode (and validate)
   now — a mapped corpus materialises to exactly the array the classic
   eager loader would have produced, whatever the prior access pattern. *)
let materialise t =
  match t.backing with
  | Eager _ -> t
  | Mapped _ -> { backing = Eager (to_array t); fp = t.fp }

let append t gs = of_array (Array.append (to_array t) gs)

(* The count prefix of the canonical encoding of [n] graphs. *)
let count_prefix n =
  let e = S.encoder () in
  S.put_i64 e n;
  S.contents e

let whole { src; lo; n } = lo = 0 && n = Array.length src.cache

let memo t compute =
  match t.fp with
  | Some fp -> fp
  | None ->
    let fp = compute () in
    t.fp <- Some fp;
    fp

(* A window's canonical encoding is its count prefix and then its graphs'
   stored bytes, so its CRC is the prefix's combined with theirs. *)
let fingerprint t =
  memo t (fun () ->
      match t.backing with
      | Eager g -> Pgraph_io.db_fingerprint g
      | Mapped w when whole w -> S.mapped_payload_crc w.src.m w.src.section
      | Mapped { src; lo; n } ->
        let a = src.offsets.(lo) and b = src.offsets.(lo + n) in
        Psst_util.Crc32.combine
          (Psst_util.Crc32.digest (count_prefix n))
          (Psst_util.Crc32.update_bigbytes 0l src.data ~pos:a ~len:(b - a))
          (b - a))

let encoding t =
  match t.backing with
  | Eager garr ->
    let e = S.encoder () in
    let n = Array.length garr in
    S.put_i64 e n;
    let offsets = Array.make (n + 1) 0 in
    offsets.(0) <- S.enc_length e;
    Array.iteri
      (fun i g ->
        Pgraph_io.encode_binary e g;
        offsets.(i + 1) <- S.enc_length e)
      garr;
    let payload = S.contents e in
    (* The payload is the fingerprint's canonical encoding: its CRC is
       the fingerprint, with no second encoding pass. *)
    ignore (memo t (fun () -> Psst_util.Crc32.digest payload));
    (payload, offsets)
  | Mapped { src; lo; n } ->
    (* The verified view: the source section's CRC is checked once per
       mapping (with the fingerprint's pass, when that ran first), so no
       damaged byte is copied. *)
    let data = S.mapped_bytes src.m src.section in
    let prefix = count_prefix n in
    let p = String.length prefix in
    let a = src.offsets.(lo) and b = src.offsets.(lo + n) in
    let buf = Bytes.create (p + b - a) in
    Bytes.blit_string prefix 0 buf 0 p;
    blit_big data a buf p (b - a);
    (Bytes.unsafe_to_string buf, Array.init (n + 1) (fun i -> p + src.offsets.(lo + i) - a))
