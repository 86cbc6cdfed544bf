(** A fixed pool of OCaml 5 domains with chunked work distribution.

    One pool serves the whole query stack: the PMI build distributes its
    per-graph columns over it, [Query.run] fans verification out over the
    surviving candidates, and the query server runs whole jobs
    concurrently, one task per job. Tasks are claimed from a shared atomic counter in fixed
    chunks, results land at their input index, so the output of
    {!map_array} is identical to the sequential [Array.map] no matter how
    the chunks were scheduled.

    The calling domain always participates in the work, so a pool created
    with [domains = n] uses exactly [n] domains ([n - 1] spawned workers
    plus the caller) and a pool with [domains <= 1] degrades to plain
    sequential iteration with no spawning, no locking and no atomics on
    the work path.

    Calls may be nested (a task running on the pool may itself call
    {!iter_range} / {!map_array} on the same pool): the inner call's
    caller executes chunks itself whenever no worker is free, so progress
    is always guaranteed. *)

type t

(** [create ~domains ()] spawns [max 0 (domains - 1)] worker domains.
    The pool must be released with {!shutdown} (or use {!with_pool}). *)
val create : ?domains:int -> unit -> t

(** Total parallelism of the pool (spawned workers + the caller), [>= 1]. *)
val size : t -> int

(** [Domain.recommended_domain_count ()] — a sensible default for
    [domains] on the current machine. *)
val default_domains : unit -> int

(** [iter_range pool ?chunk n f] runs [f i] for every [i] in [0 .. n-1],
    distributing chunks of [chunk] consecutive indices (default:
    [n / (4 * size)], at least 1) over the pool. Returns when every index
    has been processed. If any [f i] raises, the first exception observed
    is re-raised in the caller after all chunks have drained. *)
val iter_range : t -> ?chunk:int -> int -> (int -> unit) -> unit

(** [map_array pool ?chunk f a] is [Array.map f a] computed on the pool.
    Result ordering is deterministic: slot [i] holds [f a.(i)]. *)
val map_array : t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** Terminates the worker domains after the queued work drains. Idempotent.
    Submitting work to a shut-down pool runs it sequentially in the
    caller. *)
val shutdown : t -> unit

(** [with_pool ?domains f] — [create], run [f], [shutdown] (also on
    exception). *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
