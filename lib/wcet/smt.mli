(** Optimization-modulo-theory WCET engine (Henry–Asavoae–Monniaux–
    Maïza style): the IPET engine's paths ({!Ipet.sweep}) under
    semantic infeasible-path cuts — pairs of branch edges that no
    execution takes both of — searched by branch & bound over the
    longest-path pass (no external solver, no simplex). The root of the
    search is {!Ipet.compute}'s own pass, so a cut-free function costs
    no more than IPET.

    Cuts are derived from branch conditions whose compare operands
    trace to constants or to provably stable memory locations, with
    both branches (and all traced loads) outside every loop body; the
    full side-conditions are documented in the implementation. Cuts
    only remove paths no real execution takes, so the bound stays
    sound; and every path the search admits is one IPET admits, so
    [smt_wcet <= smt_ipet_wcet] holds by construction — the invariant
    the [Both] engine's differential oracle checks. *)

type result = {
  smt_wcet : int;        (** OMT bound, incl. cache first-miss budget *)
  smt_ipet_wcet : int;   (** base IPET bound (same paths, no cuts) *)
  smt_exact : bool;      (** the optimum, not a fallback bound *)
  smt_flow_cycles : int; (** OMT bound without the first-miss budget *)
  smt_cuts : int;        (** conflict cuts derived *)
  smt_queries : int;     (** search nodes swept after the root *)
}

type cut = (int * Cfg.edge_kind) * (int * Cfg.edge_kind)
(** Two CFG edges, each named by its source block and direction, that
    no execution takes both of. Both lie outside every loop body. *)

type bound = {
  flow : int;   (** flow cycles *)
  exact : bool; (** the optimum; [false] when the node budget ran out *)
  nodes : int;  (** nodes swept after the root *)
}

val search : ?fuel:Fuel.t -> Ipet.sweep -> cut list -> bound
(** The costliest path of the root sweep that takes no two edges of one
    cut, by best-first branch & bound: a node whose argmax path takes
    both edges of a cut branches into two re-sweeps ({!Ipet.resweep}),
    one forbidding each edge. Each re-sweep costs one unit of
    [fuel.fl_bb_nodes] (and its own [fl_simplex] budget). When fewer
    than two units are left at a branching, the search stops with the
    costliest open node's value: sound, at most the root's, and
    [exact = false].
    @raise Ipet.Analysis_failed ["IPET infeasible"] when every path
    breaks a cut (or the root has none), or as {!Ipet.resweep}.
    @raise Fuel.Exhausted as {!Ipet.resweep}. *)

val compute :
  ?fuel:Fuel.t -> Cfg.t -> Dom.t -> Pipeline.t -> Cacheanalysis.t ->
  Loops.t -> Boundanalysis.loop_bound list -> result
(** {!Ipet.sweep} as the root, then {!search} over the function's
    conflict cuts when there are any. [fuel.fl_simplex] budgets every
    sweep as in {!Ipet.compute}; [fuel.fl_bb_nodes] the search.
    @raise Ipet.Analysis_failed as {!Ipet.compute} and {!search}.
    @raise Fuel.Exhausted when a sweep's budget runs out. *)
