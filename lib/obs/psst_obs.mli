(** Pipeline observability (DESIGN.md §10).

    A process-wide metrics registry — atomic counters, float accumulators
    and fixed-bucket log-scale histograms — plus span-style phase timing,
    a structured warning-event channel, and per-query traces.

    Hot-path operations ({!incr}, {!add}, {!record}, {!observe}) are
    lock-free: one fetch-and-add or CAS loop, so they are safe from every
    domain of a [Psst_util.Pool] and never serialise the pipeline.
    Interning a metric name takes the registry lock, so instrumented
    modules bind their metrics once at module initialisation.

    Metrics never influence results: no pipeline decision reads one. *)

(** {1 Counters} *)

type counter

(** [counter name] interns (or retrieves) the counter [name]. Raises
    [Invalid_argument] when [name] is already registered as a different
    metric type. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Float accumulators} *)

type accumulator

val accumulator : string -> accumulator

(** [record a x] adds [x] to the running sum and bumps the sample count
    (lock-free CAS). *)
val record : accumulator -> float -> unit

val acc_sum : accumulator -> float
val acc_count : accumulator -> int

(** Mean of the recorded samples, [0.] when none. *)
val acc_mean : accumulator -> float

(** {1 Histograms} *)

type histogram

(** [histogram ?per_decade ?lo ?hi name] interns a log-scale histogram
    with [per_decade] buckets per decade spanning [lo .. hi] (defaults:
    4 buckets/decade over [1e-9 .. 1e3] — microsecond-to-minutes spans
    and ratios both land comfortably). Values at or below [lo] fall into
    the first bucket, values above [hi] into the overflow bucket. When
    [name] already exists the existing histogram is returned and the
    shape arguments are ignored. *)
val histogram :
  ?per_decade:int -> ?lo:float -> ?hi:float -> string -> histogram

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** Finite buckets as [(upper_bound, count)] pairs, ascending. *)
val histogram_buckets : histogram -> (float * int) array

val histogram_overflow : histogram -> int

(** [span h f] runs [f ()] and records its wall-clock duration in [h]
    (also on exception). When the layer is disabled no clock is read. *)
val span : histogram -> (unit -> 'a) -> 'a

(** {1 Warning events}

    Structured degradation signals (e.g. a truncated relaxed set turning
    answers into under-approximations). Every [warn] bumps the auto
    counter ["warn.<code>"]; the event log keeps the first 512 events and
    counts the overflow, so a pathological workload cannot exhaust
    memory. *)

type warning = { code : string; message : string }

val warn : code:string -> string -> unit

(** Chronological event log (oldest first). *)
val warnings : unit -> warning list

(** Returns the log and clears it (the per-code counters are not reset). *)
val drain_warnings : unit -> warning list

val warnings_dropped : unit -> int

(** {1 Registry} *)

(** Zero every registered metric and clear the warning log. Metrics stay
    registered (the same values keep working). *)
val reset : unit -> unit

(** Machine-readable dump of the whole registry:
    [{"counters": {..}, "accumulators": {..}, "histograms": {..},
    "warnings": [..], "warnings_dropped": n}]. Histogram buckets with a
    zero count are omitted. Deterministically sorted by metric name. *)
val to_json : Buffer.t -> unit

val to_json_string : unit -> string

(** {1 Per-query traces} *)

module Trace : sig
  (** An end-to-end record of one query: named phase durations, counters
      and flags in insertion order. A trace belongs to the single task
      that builds it and is not thread-safe — the pipeline creates one
      trace per query and hands it out read-only in the outcome. *)
  type t

  val create : string -> t
  val label : t -> string

  (** [set_time t name seconds] records an already-measured duration. *)
  val set_time : t -> string -> float -> unit

  val set_count : t -> string -> int -> unit
  val set_flag : t -> string -> bool -> unit

  (** [span t name f] runs [f ()] and records its duration (also on
      exception). Unlike the registry primitives this always times —
      traces are explicit, not ambient. *)
  val span : t -> string -> (unit -> 'a) -> 'a

  val times : t -> (string * float) list
  val counts : t -> (string * int) list
  val flags : t -> (string * bool) list

  (** [{"label": .., "times_s": {..}, "counts": {..}, "flags": {..}}] *)
  val to_json : Buffer.t -> t -> unit
end
