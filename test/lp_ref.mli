(** Exact rational arithmetic and a two-phase primal simplex with
    branch & bound — the reference solver for the IPET path analysis
    and the OMT search, which the tests compare against. Rationals
    are normalized fractions of native 63-bit integers with explicit
    overflow checks; the IPET programs are small, so exact arithmetic
    is affordable and removes floating-point soundness worries. *)

exception Overflow
exception Infeasible
exception Unbounded

module Q : sig
  type t = private {
    num : int;
    den : int; (** > 0, normalized *)
  }

  val make : int -> int -> t
  val zero : t
  val one : t
  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val sign : t -> int
  val is_zero : t -> bool
  val is_integer : t -> bool
  val floor : t -> int
  val ceil : t -> int
  val to_float : t -> float
  val to_string : t -> string
end

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  cs_coeffs : (int * Q.t) list; (** variable index, coefficient *)
  cs_rel : relation;
  cs_rhs : Q.t;
}

type problem = {
  pb_nvars : int;
  pb_objective : Q.t array; (** maximize c.x, all variables >= 0 *)
  pb_constraints : constr list;
}

type solution = {
  sol_objective : Q.t;
  sol_values : Q.t array;
}

val solve : ?fuel:int -> problem -> solution
(** Two-phase simplex with Bland's anti-cycling fallback. [fuel]
    bounds the pivots of each phase (default
    [Wcet.Fuel.default.fl_simplex]).
    @raise Infeasible / @raise Unbounded / @raise Overflow
    @raise Wcet.Fuel.Exhausted when the pivot budget runs out. *)

type int_solution = {
  is_objective_bound : int;
      (** sound upper bound on the integral optimum; the LP relaxation
          value when the branch & bound budget runs out *)
  is_exact : bool;
}

val solve_integer : ?fuel:int -> ?max_nodes:int -> problem -> int_solution
(** [fuel] is {!solve}'s pivot budget; [max_nodes] bounds the branch &
    bound tree (default [Wcet.Fuel.default.fl_bb_nodes]) — running out of
    nodes degrades to the (sound) LP relaxation bound, it never
    raises. *)
