(** Integer interval domain over 32-bit two's-complement values; any
    operation whose exact result range leaves the int32 range returns
    {!top} — a sound model of wrap-around. Bounds live in native
    (63-bit) integers, so intermediate arithmetic cannot overflow. *)

type t = {
  lo : int;
  hi : int;
}

val int32_min : int
val int32_max : int

val top : t
val is_top : t -> bool

val make : int -> int -> t
(** Clamps to {!top} outside the int32 range.
    @raise Invalid_argument when [lo > hi]. *)

val of_const : int32 -> t
val of_int_const : int -> t
val is_const : t -> int option
val equal : t -> t -> bool
val contains : t -> int -> bool

val leq : t -> t -> bool
(** [leq a b]: [b] contains [a]. *)

val join : t -> t -> t
(** Returns [a] itself when it contains [b], and [b] when it contains
    [a]. *)

val meet : t -> t -> t option
(** [None] on empty intersection (unreachable state). *)

val widen : t -> t -> t
(** Standard widening: unstable bounds jump to the type extremes.
    Returns the old interval itself when it contains the new one. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val shift_left_const : t -> int -> t

val refine_cmp : Minic.Ast.comparison -> t -> t -> t option
(** Refine the left operand assuming "left CMP right" holds; [None]
    when the comparison cannot hold. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val in_range : int -> bool
(** Does the value fit in the int32 range? *)
