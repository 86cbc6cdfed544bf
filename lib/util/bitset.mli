(** Fixed-capacity bitsets over [0 .. capacity-1], backed by an int array.

    Used throughout the library for edge masks (possible worlds), vertex
    sets during isomorphism search, and clique search candidate sets. *)

type t

(** [create n] is an empty bitset able to hold elements [0 .. n-1]. *)
val create : int -> t

(** Capacity the set was created with. *)
val capacity : t -> int

(** [full n] is the bitset containing all of [0 .. n-1]. *)
val full : int -> t

val copy : t -> t

(** [mem t i] tests membership. Raises [Invalid_argument] out of range. *)
val mem : t -> int -> bool

val add : t -> int -> unit
val remove : t -> int -> unit

val is_empty : t -> bool
val cardinal : t -> int

(** In-place operations; the first argument is mutated. *)

val union_into : t -> t -> unit
val inter_into : t -> t -> unit
val diff_into : t -> t -> unit

(** Pure variants allocating a fresh set. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [subset a b] is true when every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is true when [a] and [b] share no element. *)
val disjoint : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t

val clear : t -> unit

(** Hash suitable for [Hashtbl]. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit
