(** Wall-clock timing for the experiment harness. *)

(** [time f] runs [f ()] and returns its result with elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [time_only f] runs [f ()] for its effects and returns elapsed seconds. *)
val time_only : (unit -> unit) -> float
