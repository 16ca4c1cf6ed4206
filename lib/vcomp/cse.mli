(** Common subexpression elimination by local value numbering (basic-
    block scope, as in CompCert's CSE restricted to blocks), keyed by
    {!Term}. Loads are memoized under a memory epoch advanced by every
    store; volatile acquisitions are never memoized; duplicate float
    constants are value-numbered away. *)

val transform_func : Rtl.func -> unit
val transform : Rtl.program -> Rtl.program
