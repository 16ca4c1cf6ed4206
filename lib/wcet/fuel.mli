(** Fuel budgets for every iterative analysis in [lib/wcet]: no
    fixpoint or solver loop may run unboundedly. Exhaustion raises
    {!Exhausted}, which {!Driver} converts into an analysis *refusal*
    ([Driver.Error] — "analysis diverged"), never a wrong bound and
    never a hang. Defaults reproduce the previously hard-coded
    constants, so default-fuel analyses are bit-identical to the
    pre-fuel analyzer.

    The triple is part of the {!Memo} content key: a budget change can
    flip success into refusal (or an exact bound into a fallback
    bound), so analyses under different budgets never share a cache
    entry. *)

type t = {
  fl_widen : int;
      (** iterations of the reverse-postorder worklist
          {!Cfg.fixpoint} shared by the value-analysis and must-cache
          fixpoints (one per processed block). The must-cache fixpoint
          is order-free (no widening); the value analysis widens, and
          its reports are pinned by digest in the test suite *)
  fl_simplex : int;
      (** path analysis: blocks visited by one run of the longest-path
          pass — {!Ipet.flow_bound}'s (each loop's body, then every
          reachable block), and each re-sweep of the OMT search
          ({!Ipet.resweep}) *)
  fl_bb_nodes : int;
      (** branch & bound nodes of the OMT search ({!Smt.search}), one
          per re-sweep after the root; exhaustion here is not a
          refusal — the costliest open node's value is still a sound
          bound, at most the IPET bound ([smt_exact = false]) *)
}

val default : t
(** [{ fl_widen = 1_000_000; fl_simplex = 20_000; fl_bb_nodes = 200 }]. *)

val starved : t
(** All budgets zero: every guarded loop refuses immediately. The chaos
    harness injects this to prove exhaustion is contained. *)

exception Exhausted of string
(** [Exhausted what]: iteration site [what] ran out of budget. *)

val exhaust : string -> 'a
(** [exhaust what] raises [Exhausted what]. *)

(** {1 Cooperative cancellation}

    The fuel-guarded loops double as cancellation points: a caller
    (the compilation service, enforcing a request deadline) installs a
    check with {!with_deadline}, and every guarded loop polls it via
    {!tick}. {!Expired} is deliberately distinct from {!Exhausted}:
    exhaustion is a property of the request ("this analysis diverges",
    a cacheable refusal), expiry is a property of the moment ("this
    caller stopped waiting") — it must escape the driver's exhaustion
    handler, skip every cache, and surface as a deadline refusal. *)

exception Expired
(** The installed deadline check returned [true] at a cancellation
    point. *)

val with_deadline : (unit -> bool) -> (unit -> 'a) -> 'a
(** [with_deadline check f] runs [f] with [check] installed in this
    domain (restoring the previous check on exit, exceptional or not).
    Domain-local: worker domains and concurrent sessions are
    unaffected. *)

val tick : unit -> unit
(** Poll the installed check; raises {!Expired} when it fires. No-op
    (one ref read) when no deadline is installed. *)
