(** Versioned binary on-disk store (DESIGN.md §9).

    A store file is a magic/version/kind header followed by named,
    length-prefixed sections, each protected by a CRC-32 over its name and
    payload. Every reader-side anomaly — truncation, a flipped byte, an
    unknown format version, a file of the wrong kind, a missing section, or
    payload bytes that decode to out-of-range values — raises {!Store_error}
    with a human-readable message; readers never raise [Failure] or leak a
    low-level exception, and never return silently wrong data (every byte of
    the file is covered by either the header CRC or a section CRC).

    Layout (all integers little-endian):

    {v
    offset 0   magic    "PSSTSTR\x00"            8 bytes
           8   version  u32                      {!format_version}
          12   kind     u32                      see {!kind}
          16   count    u32                      number of sections
          20   crc      u32                      CRC-32 of bytes 0..19
          24   sections, each:
                 name_len     u32
                 name         bytes
                 payload_len  u64
                 crc          u32                CRC-32 of name ++ payload
                 payload      bytes
    v}

    Versioning policy: [format_version] is bumped on any incompatible layout
    change; readers reject any other version outright (no migration — stores
    are caches that can always be rebuilt from source data). *)

exception Store_error of string

(** [error fmt ...] raises {!Store_error} with a formatted message. *)
val error : ('a, unit, string, 'b) format4 -> 'a

(** [checked f] runs [f ()], converting any [Invalid_argument] or [Failure]
    escaping it into {!Store_error} — used to wrap validating constructors
    ([Lgraph.create], [Factor.create], [Pgraph.make]) on the decode path. *)
val checked : (unit -> 'a) -> 'a

val format_version : int

(** Size of the fixed file header in bytes. *)
val header_bytes : int

(** What a store file holds; readers reject a kind mismatch. An index is
    always a whole [Database] image: there is no standalone PMI kind, and
    its retired tag is never reused. *)
type kind =
  | Pgdb  (** an array of probabilistic graphs *)
  | Database
      (** the whole query-time state ({!Query.database}) as the flat image
          of DESIGN.md §15, the one index layout *)
  | Manifest  (** a shard manifest ([Psst_shard.manifest]) *)
  | Delta
      (** one ingest batch appended to a [Database] store — a side file
          ([BASE.delta.K]) holding the new graphs plus the chain metadata
          that pins it to its base ([Psst_ingest]) *)

type section = { name : string; payload : string }

(** [write_bytes path data] — the one atomic writer: [data] goes to
    [path ^ ".tmp"], which is then renamed over [path], so [path] holds
    either its previous contents or all of [data]. The ["store.write"]
    fault site applies: [Fail] raises before the temporary is opened,
    [Partial_io] leaves a prefix in the temporary and raises (no
    rename), [Bitflip] renames a copy with one bit flipped (the readers'
    checksums refuse it), and [Delay s] stalls [s] seconds with half the
    bytes flushed to the temporary before finishing and renaming. *)
val write_bytes : string -> string -> unit

(** [write_file ?version path ~kind sections] frames [sections] (header,
    then each section with its CRC-32) and writes the result with
    {!write_bytes}. [?version] exists so tests can produce
    version-skewed files; production callers omit it. *)
val write_file : ?version:int -> string -> kind:kind -> section list -> unit

(** [read_file path ~kind] validates the header and every section checksum.
    Raises {!Store_error} on any anomaly. As a side effect it removes an
    orphaned [path ^ ".tmp"] left behind by an interrupted {!write_bytes}
    (counted as ["store.tmp_cleaned"], with a warning event) — the rename
    never ran, so [path] itself is still the intact previous version. *)
val read_file : string -> kind:kind -> section list

(** [read_string contents ~kind] — same, from in-memory file contents. *)
val read_string : string -> kind:kind -> section list

(** Result of a best-effort read: the sections whose checksums held, and
    the names of the ones that did not (or a ["<unreadable tail: ..>"]
    marker when section framing itself was destroyed — sections expected
    but not listed in either field were never reached and must be treated
    as damaged). *)
type salvage = { intact : section list; damaged : string list }

(** [read_file_salvage path ~kind] reads whatever survives of a damaged
    store (DESIGN.md §12): the header must be intact, per-section CRC
    failures skip just that section instead of aborting. Also cleans an
    orphaned [.tmp] like {!read_file}. *)
val read_file_salvage : string -> kind:kind -> salvage

(** [find_section sections name] — {!Store_error} when absent. *)
val find_section : section list -> string -> string

(** [section_spans contents] parses the framing of a well-formed store and
    returns [(name, start, stop)] byte spans of each section (including its
    name/length/CRC framing, [stop] exclusive) — the corruption test suite
    uses it to truncate at section boundaries and flip bytes per section. *)
val section_spans : string -> (string * int * int) list

(** [is_store_file path] — true when the file starts with the store magic
    (used to sniff binary vs. textual corpora). *)
val is_store_file : string -> bool

(** {1 Payload encoding}

    Primitives for section payloads: fixed-width little-endian integers,
    IEEE-754 bit-exact floats, and length-prefixed strings and containers.
    Decoders are bounds-checked and raise {!Store_error} (never an
    out-of-bounds [Invalid_argument]) on overrun or invalid data. *)

type enc

val encoder : unit -> enc
val contents : enc -> string

(** Bytes written so far — flat encoders use it to record offsets. *)
val enc_length : enc -> int

val put_i64 : enc -> int -> unit
val put_i32 : enc -> int32 -> unit

(** Stored as IEEE-754 bits: round-trips every float bit-exactly. *)
val put_f64 : enc -> float -> unit

(** [put_f64s e a] is [Array.iter (put_f64 e) a]: the entries alone,
    without a count, and without boxing one. *)
val put_f64s : enc -> float array -> unit

val put_bool : enc -> bool -> unit
val put_string : enc -> string -> unit
val put_int_list : enc -> int list -> unit
val put_list : enc -> (enc -> 'a -> unit) -> 'a list -> unit
val put_array : enc -> (enc -> 'a -> unit) -> 'a array -> unit
val put_lgraph : enc -> Lgraph.t -> unit

(** [section name enc] packages an encoder's contents as a section. *)
val section : string -> enc -> section

type dec

(** [decoder ?name payload] — [name] is quoted in error messages. *)
val decoder : ?name:string -> string -> dec

val get_i64 : dec -> int

(** A length or count: a [get_i64] that must be non-negative. *)
val get_nat : dec -> int

val get_i32 : dec -> int32
val get_f64 : dec -> float
val get_bool : dec -> bool
val get_string : dec -> string
val get_int_list : dec -> int list
val get_list : dec -> (dec -> 'a) -> 'a list
val get_array : dec -> (dec -> 'a) -> 'a array
val get_lgraph : dec -> Lgraph.t

(** [expect_end d] — {!Store_error} unless the payload was fully consumed. *)
val expect_end : dec -> unit

(** [decode_section sections name f] finds the section, decodes it with [f]
    and checks the payload was fully consumed. *)
val decode_section : section list -> string -> (dec -> 'a) -> 'a

(** Unsigned LEB128 varint (7 bits per byte, high bit = continuation) —
    the delta coding of the flat postings sections (DESIGN.md §15), which
    {!Pmi} decodes straight off the mapping. *)
val put_varint : enc -> int -> unit

(** {1 Memory-mapped zero-copy access (DESIGN.md §15)}

    The flat index image stores fixed-width payloads (IEEE-754 bounds)
    that query-time code reads directly out of a memory-mapped store file
    through typed {!Bigarray} views, skipping the eager decode entirely. *)

(** [align_payloads ~targets sections] inserts, immediately before every
    section named in [targets], a zero-filled padding section (named
    ["pad." ^ name]) sized so that the target's payload starts at a file
    offset that is a multiple of 8 — the alignment {!mapped_f64}
    requires. Pads carry their own CRC like any section and
    are simply ignored by readers. Writers of flat images call this once,
    on the final section list, just before {!write_file}. *)
val align_payloads : targets:string list -> section list -> section list

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A memory-mapped store file: the raw bytes plus the parsed section
    table. Opening one verifies the header CRC and the whole section
    framing (names, lengths, no duplicates, no trailing garbage) but
    {e defers payload checksums}: open stays O(header + directory) no
    matter how large the file is — the point of the flat image is a cold
    start independent of database size. Payloads are then verified where
    they are consumed: {!mapped_section_string} and {!mapped_bytes} check
    the stored CRC before handing bytes out, while the typed
    {!mapped_f64} views and lazily-decoded payloads are
    validated structurally by their consumers (and exhaustively by the
    eager loader, which remains the integrity baseline). There is no
    salvage variant — salvage rebuilds the index from the decoded graphs,
    which is what mmap loading exists to avoid; callers fall back to the eager salvage
    path instead. *)
type mapped

(** [map_file ?verify path ~kind] maps [path] read-only and validates
    header, kind, framing and orphaned [.tmp] cleanup (payload CRCs are
    deferred to the accessors — see {!mapped}). [~verify:true] also
    checks every section's stored CRC at open, one pass over the image,
    for a caller that copies unverified views ({!mapped_f64},
    {!mapped_bytes_unverified}) into a new file: the copy would carry
    damaged bytes under fresh, valid CRCs. Fault site ["store.map"] supports
    [Fail] and [Delay] ([Bitflip]/[Partial_io] escalate to [Fail]: a
    shared read-only mapping cannot be damaged without copying). *)
val map_file : ?verify:bool -> string -> kind:kind -> mapped

val mapped_has : mapped -> string -> bool

(** [mapped_section_string m name] verifies the section's stored CRC and
    copies its payload out as a string — for small sections (directories,
    configs) that are decoded eagerly with the ordinary {!dec} codecs.
    {!Store_error} when absent or corrupted. *)
val mapped_section_string : mapped -> string -> string

(** [mapped_bytes m name] — zero-copy [char] view of the payload, after
    verifying its stored CRC (one streaming pass, no allocation). *)
val mapped_bytes : mapped -> string -> bigbytes

(** [mapped_bytes_unverified m name] — zero-copy view {e without} the
    checksum pass, for bulk payloads whose consumers validate lazily
    (per-record decoders, per-lookup range checks). A flipped byte in
    such a section surfaces as a {!Store_error} at access time — or, for
    raw numeric payloads, as a changed value the eager loader would have
    rejected; pick this accessor only when that trade is documented. *)
val mapped_bytes_unverified : mapped -> string -> bigbytes

(** [mapped_payload_crc m name] — CRC-32 of the raw payload bytes with a
    zero seed, equal to [Psst_util.Crc32.digest] of the payload string:
    lets callers compare a section against a fingerprint computed over
    encoded data (e.g. {!Pgraph_io.db_fingerprint}) without decoding or
    copying it. It never checks the stored CRC. One streaming O(payload)
    pass per section and mapping: the value is kept, and the checksum of
    {!mapped_bytes} and {!mapped_section_string} is combined from it, so
    a section is read once for both. *)
val mapped_payload_crc : mapped -> string -> int32

(** [mapped_f64 m name] — zero-copy IEEE-754 float64 view of the payload.
    {!Store_error} if the payload's length is not a multiple of 8 or its
    file offset is not 8-byte aligned (see {!align_payloads}). Must be
    created before {!mapped_release}. *)
val mapped_f64 : mapped -> string -> floats

(** [mapped_release m] closes the underlying file descriptor. The mapping
    itself survives (it is unmapped when the views are garbage-collected),
    but further {!mapped_f64} calls fail. Call it once all
    typed views are in hand, so long-lived servers do not pin an fd per
    shard. *)
val mapped_release : mapped -> unit
