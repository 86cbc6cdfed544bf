(** (De)serialisation of probabilistic graphs: a stable textual format and a
    checksummed binary codec for the {!Psst_store} container.

    Textual line-oriented format:

    {v
pgraph
v <vertex label>            (one line per vertex)
e <u> <v> <edge label>      (one line per edge, ids in order)
factor <v1,v2,...> <p0> <p1> ... <p_{2^k-1}>
end
    v}

    Factors are written in their chain order, so a parsed graph passes the
    same chain-consistency validation as a constructed one. Blank lines
    and [#]-comments are ignored.

    Both parsers additionally reject factors with a conditional row whose
    probabilities sum to more than [1 + eps] (eps = 1e-9), with a
    diagnostic naming the factor and the row. Such rows used to slip through
    {!Pgraph.make}'s coarser chain-consistency tolerance and only surfaced
    later as silently-too-large probabilities in [Exact]. *)

val to_string : Pgraph.t -> string

(** Raises [Invalid_argument] on malformed input or on factor lists that
    fail {!Pgraph.make} validation. *)
val of_string : string -> Pgraph.t

(** Multi-graph archives: graphs concatenated, each terminated by its
    [end] line. *)

val save : string -> Pgraph.t array -> unit
val load : string -> Pgraph.t array

(** {1 Binary codec}

    The binary format stores float tables bit-exactly (IEEE-754 bits), so a
    loaded graph is indistinguishable from the saved one — sampling, bounds
    and verification all produce bit-identical results. *)

(** [encode_binary e g] appends one graph to a section payload. *)
val encode_binary : Psst_store.enc -> Pgraph.t -> unit

(** [decode_binary d] — raises [Psst_store.Store_error] on any malformed or
    semantically invalid data (including over-unity JPT rows). *)
val decode_binary : Psst_store.dec -> Pgraph.t

(** [save_binary path graphs] writes a [Pgdb]-kind store file. *)
val save_binary : string -> Pgraph.t array -> unit

(** [load_binary path] — raises [Psst_store.Store_error] on corruption,
    truncation, version or kind mismatch. *)
val load_binary : string -> Pgraph.t array

(** A [Pgdb] store file read and checked without decoding a graph:
    [count] is the graph count of its ["meta"] section, equal to the
    count prefix of its ["graphs"] payload; [fingerprint] is the CRC of
    that payload, the canonical encoding {!db_fingerprint} is defined
    over, so it is the graphs' fingerprint; [graphs] decodes them on
    first force (raising [Psst_store.Store_error] on malformed graphs). *)
type binary = { count : int; fingerprint : int32; graphs : Pgraph.t array Lazy.t }

(** [read_binary path] — raises [Psst_store.Store_error] on corruption
    (any frame CRC), truncation, version or kind mismatch, and a graph
    count that differs between ["meta"] and the payload. The file is
    mapped ([Psst_store.map_file ~verify:true]) and read once: the frame
    checks keep the payload's CRC, which is the fingerprint, and
    [graphs] decodes from the same mapping. *)
val read_binary : string -> binary

(** [load_auto path] sniffs the store magic and dispatches to
    {!load_binary} or the textual {!load}. *)
val load_auto : string -> Pgraph.t array

(** [db_fingerprint graphs] — CRC-32 over the canonical binary encoding of
    the whole database; indexes persist it so a stale index is rejected
    instead of silently producing bounds for different graphs. *)
val db_fingerprint : Pgraph.t array -> int32
