(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320], initial value
    and final xor [0xFFFFFFFF]) — the per-section checksum of the on-disk
    store format (DESIGN.md §9). The values are the standard CRC-32 that
    zlib/gzip compute ([digest "123456789" = 0xCBF43926l]), so stored files
    can be cross-checked with external tools.

    The algorithm is slicing-by-8 over native ints: eight 256-entry tables,
    one register step per eight input bytes (two 32-bit loads on a
    little-endian host) and a bytewise tail. It yields the same value as
    the bytewise table loop, bit for bit. *)

(** [digest s] is the CRC of the whole string. *)
val digest : string -> int32

(** [update crc s ~pos ~len] extends [crc] with a substring, so a digest can
    be computed over a concatenation without materialising it. Raises
    [Invalid_argument] when [pos]/[len] do not describe a valid substring. *)
val update : int32 -> string -> pos:int -> len:int -> int32

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [update_bigbytes crc b ~pos ~len] is {!update} over a span of a byte
    bigarray (a memory-mapped file, say) read in place, without copying it
    into a string. Raises [Invalid_argument] on a span outside [b]. *)
val update_bigbytes : int32 -> bigbytes -> pos:int -> len:int -> int32

(** [combine crc1 crc2 len2] is the CRC of [a ^ b] from [crc1 = digest a],
    [crc2 = digest b] and [len2 = String.length b], in O(log len2) steps
    (zlib's [crc32_combine]). The relation is linear, so it also recovers
    a suffix's CRC from the whole's: [combine (digest a) (digest (a ^ b))
    (String.length b) = digest b]. A store frame's CRC covers the section
    name and then the payload, so the payload's own CRC is had without a
    second pass over it. Raises [Invalid_argument] when [len2 < 0]. *)
val combine : int32 -> int32 -> int -> int32
