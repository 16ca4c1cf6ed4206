(** Dead-code elimination: pure instructions whose destination is dead
    become no-ops; sweeps until nothing more is removed, so chains of
    dead computations vanish (the pattern left behind by CSE, GVN and
    LICM rewriting to moves). One liveness analysis per function serves
    every sweep, brought up to date after each. [fuel] (default 50)
    bounds the number of sweeps. *)

val eliminate_once : Rtl.func -> Liveness.t -> bool
(** One sweep over [f] with [lv], its liveness, which the sweep keeps
    equal to [Liveness.analyze f]. Whether anything was removed. *)

val transform_func : ?fuel:int -> Rtl.func -> unit
val transform : ?fuel:int -> Rtl.program -> Rtl.program
