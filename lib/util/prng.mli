(** Deterministic pseudo-random helpers on top of [Random.State].

    All randomized algorithms in the library thread an explicit state so that
    experiments and property tests are reproducible. *)

type t = Random.State.t

(** [make seed] is a fresh state derived from [seed]. *)
val make : int -> t

(** [stream ~seed i] is the [i]-th member of a family of statistically
    independent states derived from [seed] alone. It does not advance
    any parent state, so stream [i] is the same no matter how
    many other streams were drawn, in which order, or on which domain —
    the property that makes parallel query execution bit-identical to
    sequential (see DESIGN.md §8). *)
val stream : seed:int -> int -> t

val int : t -> int -> int
val float : t -> float -> float

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [categorical t weights] samples an index proportionally to [weights].
    Raises [Invalid_argument] when all weights are [<= 0]. *)
val categorical : t -> float array -> int

(** [choice t arr] is a uniformly random element of [arr]. *)
val choice : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [sample_without_replacement t k n] draws [k] distinct ints from
    [0..n-1], in random order. *)
val sample_without_replacement : t -> int -> int -> int list

(** [beta t ~a ~b] samples a Beta(a,b) variate (Johnk/gamma method). *)
val beta : t -> a:float -> b:float -> float

(** [gaussian t ~mu ~sigma] samples a normal variate (Box-Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float
