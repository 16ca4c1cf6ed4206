(** Path analysis by implicit path enumeration: maximize cycle flow
    over the CFG under flow conservation and loop bounds (edge-count
    variables; block costs charged on outgoing edges). On the reducible
    CFGs the analyzer accepts, this integer linear program is solved
    exactly by one longest-path pass over the loop nest
    ({!flow_bound}): its LP optimum is integral and equals the costliest
    acyclic entry-to-exit path that adds, at every loop header it
    enters, the loop's bound times its costliest cycle. No simplex runs;
    the tests keep one as the pass's oracle.

    The pass is also exposed as a reusable {!sweep}, so the OMT engine
    ({!Smt}) searches the {e same} paths for the same objective, merely
    with some edges forbidden ({!resweep}) — making [omt <= ipet] a
    per-cycle-comparable invariant. *)

exception Analysis_failed of string

type result = {
  ipet_wcet : int;        (** cycles, including the first-miss budget *)
  ipet_exact : bool;      (** the integral optimum; always [true] *)
  ipet_flow_cycles : int; (** objective without the first-miss budget *)
}

type sweep
(** One function's loop tables — each loop's bound times its costliest
    cycle, computed once — with the costliest way from every block to an
    exit found by the last top-level sweep. *)

val sweep :
  ?fuel:Fuel.t -> Cfg.t -> Pipeline.t -> Loops.t ->
  Boundanalysis.loop_bound list -> sweep
(** The longest-path pass: each loop's body, innermost first, then every
    reachable block. Costs one unit of [fuel.fl_simplex] and one
    {!Fuel.tick} per block visited.
    @raise Analysis_failed ["no edges (missing blr?)"], ["loop at B%d
    has no bound"] (the first such loop in {!Loops} order) or ["LP
    arithmetic overflow"] (a value past the native integer range).
    @raise Fuel.Exhausted when the budget runs out. *)

val resweep : ?fuel:Fuel.t -> sweep -> int * Cfg.edge_kind -> sweep
(** [resweep t e] re-runs only the top-level sweep of [t], skipping the
    edge [e] (named by its source block and direction) as well as every
    edge [t] already skips. No such edge may lie inside a loop body,
    whose tables are reused. Costs a fresh [fuel.fl_simplex] budget, one
    unit per reachable block.
    @raise Analysis_failed ["LP arithmetic overflow"].
    @raise Fuel.Exhausted when the budget runs out. *)

val value : sweep -> int option
(** Flow cycles of the costliest entry-to-exit path the sweep allows;
    [None] when it allows none. *)

val flow : sweep -> int
(** {!value}, or the refusal when there is no path.
    @raise Analysis_failed ["IPET infeasible"]. *)

val path : sweep -> (int * Cfg.edge_kind) list
(** The CFG edges of one path attaining {!value}, from the entry; loop
    cycles and the virtual exit edge are not listed. [[]] when {!value}
    is [None]. *)

val flow_bound :
  ?fuel:Fuel.t -> Cfg.t -> Pipeline.t -> Loops.t ->
  Boundanalysis.loop_bound list -> int
(** {!flow} of {!sweep}: the optimum of the flow program, for any
    integer costs and non-negative bounds.
    @raise Analysis_failed as {!sweep}, or ["IPET infeasible"] when no
    exit is reachable.
    @raise Fuel.Exhausted as {!sweep}. *)

val with_first_miss : Cacheanalysis.t -> int -> result
(** The exact result for [flow] cycles plus the cache first-miss
    budget.
    @raise Analysis_failed ["LP arithmetic overflow"]. *)

val compute :
  ?fuel:Fuel.t -> Cfg.t -> Pipeline.t -> Cacheanalysis.t -> Loops.t ->
  Boundanalysis.loop_bound list -> result
(** {!flow_bound} plus the cache first-miss budget.
    @raise Analysis_failed as {!flow_bound}.
    @raise Fuel.Exhausted as {!flow_bound}. *)
