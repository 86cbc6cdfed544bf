(** The tightest-Lsim optimisation (paper Def 11, Eq 9).

    Instance: a universe [0..universe-1] of relaxed queries and sets
    [s_i ⊆ U] with pair weights [(wL_i, wU_i)]. The integer program picks a
    cover [C] maximising

      sum_{i in C} wL_i  -  (sum_{i in C} wU_i)^2

    (the paper's double sum over ordered pairs is the square of the wU
    total). The relaxation [x in [0,1]^n] is a concave QP — the quadratic
    form is rank one — solved here by feasibility-preserving coordinate
    ascent with exact 1-D updates, from several feasible starts (the paper
    cites a polynomial interior-point method [23]; any convex-QP solver
    fits). *)

type instance = {
  universe : int;
  sets : (Psst_util.Bitset.t * float * float) array;
      (** members, wL (LowerB), wU (UpperB) per set *)
}

type solution = {
  x : float array;  (** fractional selection *)
  objective : float;  (** relaxed objective at [x] *)
  feasible : bool;  (** coverage constraints met within tolerance *)
}

(** Relaxed objective [wL·x - (wU·x)^2]. *)
val objective : instance -> float array -> float

(** Integer objective of an explicit selection. *)
val integer_objective : instance -> chosen:int list -> float

(** A sound variant of the integer objective replacing the paper's
    product cross-term by [min(wU_i, wU_j)] over unordered pairs, which
    dominates [Pr(Bi ∧ Bj)] unconditionally (see DESIGN.md §3):

      sum wL_i - sum_{i<j} min(wU_i, wU_j). *)
val integer_objective_safe : instance -> chosen:int list -> float

(** [coverage ~eps inst x] — all constraints satisfied within [eps]. *)
val coverage : ?eps:float -> instance -> float array -> bool

(** [solve inst] — coordinate-ascent solution of the relaxed QP, run to
    convergence. Deterministic. *)
val solve : instance -> solution
