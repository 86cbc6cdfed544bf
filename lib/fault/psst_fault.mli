(** Deterministic, seed-driven fault injection (DESIGN.md §12).

    Modules that want chaos coverage register named {e sites} (e.g.
    ["store.write"], ["proto.read"], ["server.batch"], ["verify.sample"])
    once at module initialisation and consult them on the hot path. A
    test or operator then {e arms} a plan mapping site names to an
    {!action} and a firing probability; every armed site draws from its
    own PRNG stream — derived from the global seed and the site name
    alone — so whether the [k]-th consultation of a site fires is a pure
    function of [(seed, site, k)], independent of what every other site
    does and of the order sites are created in.

    When no plan is armed (the default, and the production state) a site
    consultation is one atomic load and a branch — no allocation, no
    lock, no clock — so instrumented code pays nothing.

    Every firing bumps the auto counter ["fault.<site>"] in the shared
    {!Psst_obs} registry, making chaos runs auditable from
    [--stats-json]. *)

(** What an armed site does when it fires. [Fail] raises {!Injected};
    [Delay s] sleeps [s] seconds; [Partial_io] and [Bitflip] are
    interpreted by IO sites (short reads/writes, a corrupted byte) and
    degrade to [Fail] at sites with no byte stream to damage. *)
type action = Fail | Delay of float | Partial_io | Bitflip

exception Injected of string

type site

(** [site name] interns (or retrieves) the site [name]. Cheap, but takes
    the registry lock — bind sites once at module initialisation, like
    {!Psst_obs} metrics. *)
val site : string -> site

val site_name : site -> string

(** Registered site names, sorted — the fault-site catalogue. *)
val sites : unit -> string list

(** Whether a plan is armed. *)
val enabled : unit -> bool

(** [arm ?seed plan] arms [plan] (site name, action, probability in
    [0..1]) and re-seeds every site's PRNG stream; sites absent from the
    plan never fire. Arming a name with no registered site is allowed —
    the entry takes effect if the site is created later. Raises
    [Invalid_argument] on a probability outside [0..1] or a duplicate
    site name. *)
val arm : ?seed:int -> (string * action * float) list -> unit

(** Disarm everything: every site back to the zero-cost no-op. *)
val disarm : unit -> unit

(** [fire s] consults the site: [None] when disarmed, unarmed, or the
    PRNG schedule says not this time; [Some action] (and a
    ["fault.<site>"] bump) when it fires. IO sites use this to interpret
    [Partial_io]/[Bitflip] against their own byte streams. *)
val fire : site -> action option

(** [inject s] is [fire] plus the default interpretation: [Delay]
    sleeps, anything else raises {!Injected} naming the site. For sites
    with no IO stream of their own. *)
val inject : site -> unit

(** [draw_int s n] — a deterministic value in [0..n-1] from the site's
    PRNG stream (advances it). IO sites use it to pick which byte to
    corrupt or where to cut a write, keeping the damage itself on the
    seeded schedule. *)
val draw_int : site -> int -> int

(** [flip_bit s data] — a copy of [data] with one bit inverted, the
    byte position and then the bit drawn from [s]'s stream by
    {!draw_int}: the one [Bitflip] every IO site applies, so a seeded
    plan replays the same damage. [data] comes back unchanged, with no
    draw, when it is empty. *)
val flip_bit : site -> string -> string

(** [parse_plan spec] parses the [PSST_FAULTS] syntax:
    [site=kind[:arg][@prob]] entries separated by commas, where [kind]
    is [fail], [delay] (arg = milliseconds, default 10), [partial] or
    [bitflip], and [prob] defaults to [1]. Example:
    ["proto.read=partial@0.5,store.write=bitflip@0.1,server.batch=delay:25"].
    Raises [Failure] with a readable message on a syntax error. *)
val parse_plan : string -> (string * action * float) list

(** Arm from the [PSST_FAULTS] / [PSST_FAULT_SEED] environment
    variables; returns [true] when a plan was armed, [false] when
    [PSST_FAULTS] is unset or empty. Raises [Failure] on a malformed
    spec. *)
val arm_from_env : unit -> bool
