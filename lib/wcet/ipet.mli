(** Path analysis by implicit path enumeration: maximize cycle flow
    over the CFG under flow conservation and loop bounds (edge-count
    variables; block costs charged on outgoing edges). On the reducible
    CFGs the analyzer accepts, this integer linear program is solved
    exactly by one longest-path pass over the loop nest
    ({!flow_bound}): its LP optimum is integral and equals the costliest
    acyclic entry-to-exit path that adds, at every loop header it
    enters, the loop's bound times its costliest cycle. No simplex runs.

    The flow system is also exposed as an explicit program
    ({!build_system}/{!solve_system}) so the OMT engine ({!Smt})
    optimizes the {e same} objective over the same edge variables,
    merely under extra infeasible-path cut constraints — making
    [omt <= ipet] a per-cycle-comparable invariant. *)

exception Analysis_failed of string

type edge = {
  e_src : int;
  e_dst : int option;  (** [None]: virtual exit edge *)
  e_kind : Cfg.edge_kind;
}

type system = {
  sys_edges : edge array;       (** LP variable [j] counts edge [j] *)
  sys_objective : Lp.Q.t array; (** cycles charged per edge traversal *)
  sys_constraints : Lp.constr list;
      (** flow conservation + loop bounds *)
}

type result = {
  ipet_wcet : int;        (** cycles, including the first-miss budget *)
  ipet_exact : bool;      (** the integral optimum; always [true] *)
  ipet_flow_cycles : int; (** objective without the first-miss budget *)
}

val flow_bound :
  ?fuel:Fuel.t -> Cfg.t -> Pipeline.t -> Loops.t ->
  Boundanalysis.loop_bound list -> int
(** The optimum of {!build_system}'s program, for any integer costs and
    non-negative bounds, by the longest-path pass: flow cycles only.
    Costs one unit of [fuel.fl_simplex] and one {!Fuel.tick} per block
    visited (each loop's body, then every reachable block).
    @raise Analysis_failed ["no edges (missing blr?)"], ["loop at B%d
    has no bound"] (the first such loop in {!Loops} order), ["IPET
    infeasible"] (no exit reachable) or ["LP arithmetic overflow"]
    (a value past the native integer range).
    @raise Fuel.Exhausted when the budget runs out. *)

val build_system :
  Cfg.t -> Pipeline.t -> Loops.t -> Boundanalysis.loop_bound list -> system
(** The structural ILP over edge-count variables.
    @raise Analysis_failed on a missing loop bound, an edgeless CFG, or
    a cost or bound past {!Lp.Q}'s range ("LP arithmetic overflow"). *)

val solve_system :
  ?fuel:Fuel.t -> ?extra:Lp.constr list -> system -> Lp.int_solution
(** Maximize the system's objective under its constraints plus [extra]
    (the OMT cuts) with the exact simplex and branch & bound; flow
    cycles only — the caller adds the cache first-miss budget.
    [fuel.fl_simplex] bounds the pivots per phase and
    [fuel.fl_bb_nodes] the branch & bound nodes (running out of nodes
    degrades to the sound LP relaxation bound, [is_exact = false]).
    @raise Analysis_failed on infeasibility or arithmetic overflow.
    @raise Fuel.Exhausted when the pivot budget runs out. *)

val compute :
  ?fuel:Fuel.t -> Cfg.t -> Pipeline.t -> Cacheanalysis.t -> Loops.t ->
  Boundanalysis.loop_bound list -> result
(** {!flow_bound} plus the cache first-miss budget.
    @raise Analysis_failed as {!flow_bound}.
    @raise Fuel.Exhausted as {!flow_bound}. *)
