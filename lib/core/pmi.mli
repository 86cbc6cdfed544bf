(** The Probabilistic Matrix Index (paper §3.1, Fig 4).

    Rows are mined features, columns are the probabilistic graphs of the
    database. Entry (f, g) holds the SIP bound pair for [f] against [g]
    when [f ⊆iso gc], and is empty otherwise (the paper's ⟨0⟩). The
    postings of the filled entries are therefore each feature's support,
    and they are the only record of it: the features themselves are
    patterns ({!Selection.feature}).

    An index is always held as the flat image of DESIGN.md §15 — per
    feature delta-coded postings of the graphs it occurs in, and their
    bound records in one fixed-width float array — whether it was built,
    loaded eagerly or mapped zero-copy: every operation runs the same code
    on all three. *)

type entry = Bounds.t

type t

(** [build ?config ?domains db mined] computes every matrix entry: one for
    each graph of a mined feature's support, which must be strictly
    increasing ids of [db]'s graphs, as {!Selection.select} makes them
    ([Invalid_argument] otherwise). The supports become the postings and
    are not kept otherwise. [domains > 1] distributes the
    per-graph columns over a {!Psst_util.Pool} of that many OCaml 5
    domains (the computation is embarrassingly parallel per graph and the
    result is identical to the sequential build). *)
val build :
  ?config:Bounds.config ->
  ?domains:int ->
  Pgraph.t array ->
  Selection.mined list ->
  t

(** [add_graphs t gs] appends the columns of new database graphs,
    computing bounds for every feature occurring in their skeletons
    ([Vf2.exists], exactly what the miner's supports hold). The feature
    set is not re-mined. The existing entries are
    not decoded: their postings are re-encoded from the graph ids and each
    feature's bound records are copied as one block, so a batch costs one
    pass over the image whatever its size. *)
val add_graphs : t -> Pgraph.t array -> t

(** [sub t ~base ~len] — the PMI of the graph range [base .. base+len-1]
    viewed as a database of its own: postings are sliced and rebased to
    local ids, the features shared. Nothing is recomputed, so the
    shard's bounds are bit-identical to the monolithic ones
    ([Invalid_argument] when the range is out of bounds). *)
val sub : t -> base:int -> len:int -> t

(** [concat parts] reassembles consecutive {!sub} slices (in order) into
    the monolithic PMI: postings are concatenated and un-rebased.
    [concat] of the {!sub} pieces of a PMI round-trips it bit-exactly
    (modulo [build_seconds], which becomes the max over the parts).
    [Invalid_argument] when the parts disagree on bound config or feature
    set. *)
val concat : t list -> t

val config : t -> Bounds.config
val features : t -> Selection.feature array
val num_features : t -> int
val num_graphs : t -> int

(** [lookup t ~feature ~graph] — [None] when the feature does not occur in
    the graph's skeleton. *)
val lookup : t -> feature:int -> graph:int -> entry option

(** Number of non-empty entries — the "index size" series of Fig 12(d). *)
val filled_entries : t -> int

(** Wall-clock seconds spent computing the entries (Fig 12(c)). *)
val build_seconds : t -> float

(** [structural t] — the structural filter's index as a view over the
    image: a feature's postings, each with the embedding count its bound
    record carries, capped at [(config t).emb_cap]. It copies nothing and
    does no per-entry work until a query walks a feature; on a mapped
    image each count is range-checked as it is read, like {!lookup}. *)
val structural : t -> Structural.t

(** {1 Persistence (DESIGN.md §9, §15)}

    The PMI is the expensive offline artifact of the pipeline. It is
    stored bit-exactly inside a {!Query.save_database} image, as the flat
    image: per-feature delta-coded postings and a fixed-width IEEE-754
    bounds array, beside the shared metadata sections. Queries on a loaded
    index are bit-identical — same answers, same pruning counters — to
    queries on a freshly built one. *)

(** [to_sections ~ng ~fingerprint t] — the PMI sections of a database
    image over [ng] graphs whose {!Corpus.fingerprint} is [fingerprint]:
    ["pmi.config"], ["pmi.db"] (that count and fingerprint),
    ["pmi.patterns"] (each
    feature's pattern and canonical code),
    ["pmi.flat.dir"], ["pmi.flat.postings"], ["pmi.flat.bounds"] and
    ["pmi.meta"]. Callers must run {!Psst_store.align_payloads} with target
    ["pmi.flat.bounds"] on the final section list before writing, or the
    mmap loader will reject the unaligned bounds payload. *)
val to_sections :
  ng:int -> fingerprint:int32 -> t -> Psst_store.section list

(** [of_sections ~db ~fingerprint sections] copies the image out of
    CRC-checked sections. It validates the format, walks every posting,
    range-checks every bound count field, and checks that the stored
    fingerprint equals [fingerprint], the caller's fingerprint of [db],
    before any entry is reused; it raises
    [Psst_store.Store_error] otherwise: a stale or foreign index is
    rejected, never silently reused. An image written before
    ["pmi.patterns"] existed carries ["pmi.features"] instead, whose
    support lists are parsed and dropped; both loaders accept it.

    [~salvage:true] (pass the [intact] list of
    {!Psst_store.read_file_salvage}) turns a damaged or missing
    ["pmi.flat.*"] section into self-healing instead of rejection
    (DESIGN.md §12): every column is rebuilt with the deterministic
    builder of {!build}, at each feature's occurrences in the graphs'
    skeletons ([Vf2.exists], as {!add_graphs} finds them), so the result
    is bit-identical. The rebuilt
    columns count into ["store.salvaged_columns"] and the load emits one
    ["store.salvaged"] warning event. The metadata sections (config,
    database fingerprint, patterns) cannot be salvaged: if one of those
    is damaged the load still raises [Store_error]. *)
val of_sections :
  ?salvage:bool ->
  db:Pgraph.t array ->
  fingerprint:int32 ->
  Psst_store.section list ->
  t

(** [of_mapped_lazy m ~ng] wraps the image inside an already-mapped
    database store, whose graphs live (lazily decoded) in the same
    container. It runs the same metadata, directory and postings
    validation as {!of_sections}; only the graph count is cross-checked
    against the graphs, because the index and the graphs were written in
    one atomic store file, making re-fingerprinting — which would force
    the full decode the mapping exists to avoid — redundant for identity.
    Bound count fields are checked as lookups read them instead of at
    open, so attach time does not scale with the bounds payload.
    {!Query.load_database}'s [~mmap] path uses this. *)
val of_mapped_lazy : Psst_store.mapped -> ng:int -> t
