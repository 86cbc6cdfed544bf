(** Factors over binary variables, the building block of the paper's joint
    probability tables (JPTs, Def 2).

    A factor holds a non-negative table indexed by assignments to a sorted
    scope of integer variables (edge ids in this library). Assignments are
    encoded as bit masks local to the factor: bit [i] is the value of
    [vars.(i)]. Scopes are limited to {!max_vars} variables. *)

(** The scope and the table, readable so that inner loops such as
    {!Velim}'s kernel index them without copies. Both arrays are shared:
    never mutate them. *)
type t = private { vars : int array; data : float array }

(** Hard cap on scope size (table is [2^|vars|] floats). *)
val max_vars : int

(** [create vars data] with [vars] sorted and distinct,
    [Array.length data = 2 ^ Array.length vars], all entries [>= 0].
    Raises [Invalid_argument] otherwise. *)
val create : int array -> float array -> t

(** [of_fun vars f] tabulates [f] over local assignment masks. *)
val of_fun : int array -> (int -> float) -> t

(** Constant factor over the empty scope. *)
val scalar : float -> t

val vars : t -> int array

(** [value t mask] is the entry for local assignment [mask]. *)
val value : t -> int -> float

(** [value_of t assign] looks each scope variable up in the global
    assignment function. *)
val value_of : t -> (int -> bool) -> float

(** Pointwise product; scopes are merged. *)
val multiply : t -> t -> t

val multiply_all : t list -> t

(** [sum_out t v] eliminates variable [v] by summation. No-op if [v] is not
    in scope. *)
val sum_out : t -> int -> t

(** [marginal_onto t keep] sums out every variable not in [keep]. *)
val marginal_onto : t -> int list -> t

(** [condition t v b] restricts to [v = b], removing [v] from the scope.
    No-op if [v] is not in scope. *)
val condition : t -> int -> bool -> t

(** Total mass (sum of all entries). *)
val total : t -> float

(** [normalize t] scales entries to sum to 1. Raises [Invalid_argument] on
    zero total. *)
val normalize : t -> t

(** [sample rng t] draws a full assignment of the scope proportionally to
    the table; returns [(var, value)] pairs. *)
val sample : Psst_util.Prng.t -> t -> (int * bool) list

(** [iter_assignments t f] calls [f mask value] for every entry. *)
val iter_assignments : t -> (int -> float -> unit) -> unit

(** [equal_approx ~eps a b] compares scopes and tables entrywise. *)
val equal_approx : eps:float -> t -> t -> bool
