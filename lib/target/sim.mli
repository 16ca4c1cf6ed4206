(** Executable simulator: concrete registers, memory laid out by
    {!Layout}, a concrete LRU data cache, and the shared {!Timing} cost
    model. Produces the interpreter's observable-trace type plus
    performance counters, so one harness checks semantic preservation
    (traces equal) and another timing soundness (analyzer WCET >=
    [rr_stats.cycles]). The instruction cache is not simulated: the
    analyzer charges fetch misses it cannot exclude, keeping its bound
    sound without a concrete fetch model. *)

type stats = {
  mutable cycles : int;
  mutable dcache_reads : int;
  mutable dcache_writes : int;
}

type run_result = {
  rr_result : Minic.Interp.result;
  rr_stats : stats;
}

type image
(** A compiled program loaded for simulation: its entry point's code,
    per-instruction costs from {!Timing.static_costs}, resolved branch
    targets, symbol addresses and volatile types, and the sorted global
    addresses the result reads. Built once per node by {!load} and run
    once per world by {!exec}. An image has no mutable state and no run
    writes to it, so several runs, in any order and on any domain, may
    share one. *)

val load : source:Minic.Ast.program -> Asm.program -> Layout.t -> image
(** Load the entry point of the compiled program. Undefined labels,
    symbols and volatiles are not errors here: each raises only if its
    instruction executes.
    @raise Minic.Interp.Runtime_error when the entry point has no
    compiled or no source function. *)

val exec :
  ?cycles:int -> ?fuel:int -> image -> Minic.Interp.world ->
  Minic.Value.t list -> run_result
(** Run the loaded entry point on a fresh machine: once with the given
    argument values, or — with [?cycles] — that many consecutive
    control cycles of a nullary entry point, with memory, cache and
    volatile read counters persisting (the machine-level mirror of
    [Minic.Interp.run_cycles]).
    @raise Minic.Interp.Runtime_error on undefined names, bad arity or a
    memory access (annotation stack slots included) out of range;
    @raise Minic.Interp.Out_of_fuel when the step budget runs out. *)

val run :
  ?cycles:int -> ?fuel:int -> source:Minic.Ast.program -> Asm.program ->
  Layout.t -> Minic.Interp.world -> Minic.Value.t list -> run_result
(** [run ~source asm lay] is [exec (load ~source asm lay)]: one run. *)
