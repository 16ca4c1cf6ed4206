(** Linearization of allocated RTL into target assembly: reverse-
    postorder layout with fall-through edges, spill reloads through
    reserved scratch registers, NaN-correct float-comparison branch
    emission, parallel entry moves, and the register-allocation
    validator run on every function. *)

exception Error of string

val translate_func : Rtl.func -> Target.Asm.func
(** Allocates, validates the allocation and lays out [f], all from one
    liveness of [f] computed here, which they only read.
    @raise Error when the register-allocation validator rejects. *)

val translate_program : Rtl.program -> Target.Asm.program
