(* Slicing-by-8 over native ints. [tables] holds eight 256-entry tables
   back to back: table 0 is the classic bytewise table, and entry [n] of
   table [k] is the CRC register after [n] is followed by [k] zero bytes,
   so one step folds eight input bytes with eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xff) lxor (c lsr 8)
    done
  done;
  t

let[@inline] tab k n = Array.unsafe_get tables ((k lsl 8) lor n)

(* One register step over eight bytes, read as two little-endian 32-bit
   words: [lo] holds the first four. *)
let[@inline] step8 c lo hi =
  let x = c lxor lo in
  tab 7 (x land 0xff)
  lxor tab 6 ((x lsr 8) land 0xff)
  lxor tab 5 ((x lsr 16) land 0xff)
  lxor tab 4 (x lsr 24)
  lxor tab 3 (hi land 0xff)
  lxor tab 2 ((hi lsr 8) land 0xff)
  lxor tab 1 ((hi lsr 16) land 0xff)
  lxor tab 0 (hi lsr 24)

let[@inline] step1 c b = tab 0 ((c lxor b) land 0xff) lxor (c lsr 8)

(* The register is kept pre- and post-inverted, as the standard CRC-32. *)
let[@inline] start crc = Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF
let[@inline] finish c = Int32.of_int (c lxor 0xFFFFFFFF)

let check name ~length ~pos ~len =
  if pos < 0 || len < 0 || pos > length - len then invalid_arg name

(* Native-endian unaligned loads; the word loops run on little-endian
   hosts only, and a big-endian host takes the bytewise tail throughout. *)
external string_get32 : string -> int -> int32 = "%caml_string_get32u"

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external big_get32 : bigbytes -> int -> int32 = "%caml_bigstring_get32u"

let update crc s ~pos ~len =
  check "Crc32.update" ~length:(String.length s) ~pos ~len;
  let word j = Int32.to_int (string_get32 s j) land 0xFFFFFFFF in
  let c = ref (start crc) and i = ref pos in
  let stop = pos + len in
  while (not Sys.big_endian) && !i + 8 <= stop do
    let j = !i in
    c := step8 !c (word j) (word (j + 4));
    i := j + 8
  done;
  while !i < stop do
    c := step1 !c (Char.code (String.unsafe_get s !i));
    incr i
  done;
  finish !c

let update_bigbytes crc (b : bigbytes) ~pos ~len =
  check "Crc32.update_bigbytes" ~length:(Bigarray.Array1.dim b) ~pos ~len;
  let word j = Int32.to_int (big_get32 b j) land 0xFFFFFFFF in
  let c = ref (start crc) and i = ref pos in
  let stop = pos + len in
  while (not Sys.big_endian) && !i + 8 <= stop do
    let j = !i in
    c := step8 !c (word j) (word (j + 4));
    i := j + 8
  done;
  while !i < stop do
    c := step1 !c (Char.code (Bigarray.Array1.unsafe_get b !i));
    incr i
  done;
  finish !c

let digest s = update 0l s ~pos:0 ~len:(String.length s)

(* Combination, after zlib's [crc32_combine]: over the conditioned
   register, crc (a ++ b) = x^(8 |b|) * crc a + crc b in GF(2)[x] modulo
   the polynomial, with bit 31 of an int holding x^0 (the reflected
   order). [x2n.(k)] is x^(2^k). *)
let poly = 0xEDB88320

let multmodp a b =
  let m = ref (1 lsl 31) and p = ref 0 and b = ref b and go = ref (a <> 0) in
  while !go do
    if a land !m <> 0 then begin
      p := !p lxor !b;
      if a land (!m - 1) = 0 then go := false
    end;
    m := !m lsr 1;
    b := if !b land 1 <> 0 then (!b lsr 1) lxor poly else !b lsr 1
  done;
  !p

let x2n =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30;
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n 2^k) *)
let x2nmodp n k =
  let p = ref (1 lsl 31) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 <> 0 then p := multmodp x2n.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  let c1 = Int32.to_int crc1 land 0xFFFFFFFF
  and c2 = Int32.to_int crc2 land 0xFFFFFFFF in
  Int32.of_int (multmodp (x2nmodp len2 3) c1 lxor c2)
