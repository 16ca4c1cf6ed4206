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

val run :
  ?cycles:int -> ?fuel:int -> source:Minic.Ast.program -> Asm.program ->
  Layout.t -> Minic.Interp.world -> Minic.Value.t list -> run_result
(** Run the entry point of the compiled program: once with the given
    argument values, or — with [?cycles] — that many consecutive
    control cycles of a nullary entry point, with memory, cache and
    volatile read counters persisting (the machine-level mirror of
    [Minic.Interp.run_cycles]).
    @raise Minic.Interp.Runtime_error on undefined names, bad arity or a
    memory access (annotation stack slots included) out of range;
    @raise Minic.Interp.Out_of_fuel when the step budget runs out. *)
