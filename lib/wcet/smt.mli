(** Optimization-modulo-theory WCET engine (Henry–Asavoae–Monniaux–
    Maïza style): the IPET flow system of {!Ipet.build_system} plus
    semantic infeasible-path cuts [x_e1 + x_e2 <= 1] over conflicting
    branch edges, optimized by binary search over exact-rational LP
    feasibility queries ({!Lp.solve} — no external solver). The base
    bound, without cuts, is {!Ipet.compute}'s longest-path pass; the
    simplex runs only when there are cuts.

    Cuts are derived from branch conditions whose compare operands
    trace to constants or to provably stable memory locations, with
    both branches (and all traced loads) outside every loop body; the
    full side-conditions are documented in the implementation. Cuts
    only remove flows no real execution produces, so the bound stays
    sound; and the cut system's feasible set is contained in the IPET
    system's, so [smt_wcet <= smt_ipet_wcet] holds by construction —
    the invariant the [Both] engine's differential oracle checks. *)

type result = {
  smt_wcet : int;        (** OMT bound, incl. cache first-miss budget *)
  smt_ipet_wcet : int;   (** base IPET bound (same system, no cuts) *)
  smt_exact : bool;      (** an integral optimum, not a relaxation *)
  smt_flow_cycles : int; (** OMT bound without the first-miss budget *)
  smt_cuts : int;        (** conflict cuts in the encoding *)
  smt_queries : int;     (** fueled solver calls spent by the search *)
}

val compute :
  ?fuel:Fuel.t -> Cfg.t -> Dom.t -> Pipeline.t -> Cacheanalysis.t ->
  Loops.t -> Boundanalysis.loop_bound list -> result
(** [fuel.fl_omt] budgets the bound search (one unit per solver call);
    running out {e is} a refusal — an unfinished search has proved
    nothing. [fl_simplex] budgets the base pass as in {!Ipet.compute}
    and, with [fl_bb_nodes], the cut system's solves as in
    {!Ipet.solve_system}.
    @raise Ipet.Analysis_failed as {!Ipet.compute} and
    {!Ipet.build_system} (missing bounds, infeasibility, arithmetic
    overflow).
    @raise Fuel.Exhausted with site ["omt"] when the search budget is
    spent, or the simplex site when a pivot budget runs out. *)
