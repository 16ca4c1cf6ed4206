(** Global CSE by value numbering over the whole RTL CFG (Monniaux &
    Six style): pure operations whose hash-consed symbolic {!Term} is
    already held by another register become moves; operations whose
    destination already holds the term become no-ops. Loads are left to
    the local, epoch-aware [Cse]. The fixpoint runs under a fuel
    budget; exhaustion skips the function — the pass never rewrites
    from an unconverged analysis. *)

val transform_func : fuel:int -> Rtl.func -> bool
(** In place. [false] when the fuel ran out and the function was left
    as it was. *)

val transform : ?fuel:int -> Rtl.program -> Rtl.program
(** [fuel] (default 200_000) is a per-function worklist-step budget. *)
