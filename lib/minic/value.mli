(** Runtime values and the arithmetic shared by the reference
    interpreter, the constant folders of both compilers, and the
    simulator. Integer arithmetic is 32-bit two's complement; float
    arithmetic is IEEE-754 double. *)

type t =
  | Vint of int32
  | Vfloat of float
  | Vbool of bool

exception Type_error of string

val as_int : t -> int32
(** @raise Type_error when the value is not an integer. *)

val as_float : t -> float
val as_bool : t -> bool

val zero_of_typ : Ast.typ -> t

val equal : t -> t -> bool
(** Bit equality on floats: NaN = NaN, [-0.0 <> 0.0]. Trace comparison
    must be exact, not numerical. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val int32_of_float_trunc : float -> int32
(** Truncation toward zero, saturating, NaN to 0 — PowerPC fctiwz. *)

val eval_comparison : Ast.comparison -> int -> bool
(** Interpret a comparison over the result of [compare]. *)

val eval_fcomparison : Ast.comparison -> float -> float -> bool
(** IEEE semantics: ordered comparisons are false on NaN, [Cne] true. *)

val div32 : int32 -> int32 -> int32
(** Total signed division, rounding toward zero; [x/0 = 0] and
    [INT_MIN / -1 = 0], matching the target's divw as defined by the
    simulator. *)

val rem32 : int32 -> int32 -> int32
(** [x - (div32 x y) * y]: exactly what the compiled divw/mullw/subf
    expansion computes ([x rem 0 = x], [INT_MIN rem -1 = INT_MIN]). *)

val shift_amount : int32 -> int
(** Shift amounts are masked to 5 bits, like the target's slw/sraw. *)

val eval_unop : Ast.unop -> t -> t
val eval_binop : Ast.binop -> t -> t -> t
