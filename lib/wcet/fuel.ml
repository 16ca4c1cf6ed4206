(* Fuel budgets for every iterative analysis in this library.

   The analyzer's fixpoints and the path search are all proved (or
   argued) terminating, but a certification pipeline cannot afford
   "argued": a pathological program, a bug in a transfer function or a
   search that keeps branching must yield a *refusal* in bounded time,
   never a hang and never an unsound number. Every unbounded iteration
   site — the longest-path sweeps, the OMT branch & bound, the
   value-analysis widening loop, the must-cache ageing fixpoint —
   therefore counts against an explicit budget from this record;
   exhaustion raises [Exhausted], which [Driver] turns into an analysis
   refusal ([Driver.Error]).

   The defaults reproduce the constants that were previously hard-coded
   at each site, so default-fuel analyses are bit-identical to the
   pre-fuel analyzer. The fuel triple is part of the [Memo] content key:
   changing a budget can turn a success into a refusal (or, for the
   branch & bound budget, an exact bound into a fallback bound), so
   analyses under different budgets must never share a cache entry. *)

type t = {
  fl_widen : int;
    (* iterations of the reverse-postorder worklist [Cfg.fixpoint]
       that the value-analysis and must-cache fixpoints share (each
       processed block counts one). The order is safe for both: the
       must-cache fixpoint has no widening and so does not depend on
       it, and the value analysis's reports are pinned by digest in
       the test suite *)
  fl_simplex : int;
    (* blocks visited by one run of the IPET longest-path pass, and by
       each re-sweep of the OMT search *)
  fl_bb_nodes : int;
    (* branch & bound nodes of the OMT search, one per re-sweep after
       the root; exhaustion here is NOT a refusal — the costliest open
       node's value is still a sound bound, returned with
       [smt_exact = false] *)
}

let default : t = { fl_widen = 1_000_000; fl_simplex = 20_000; fl_bb_nodes = 200 }

(* A starved budget: every guarded loop refuses on its first iteration.
   The chaos harness injects this to prove exhaustion is contained. *)
let starved : t = { fl_widen = 0; fl_simplex = 0; fl_bb_nodes = 0 }

exception Exhausted of string
(* [Exhausted what]: the iteration site [what] ran out of budget. *)

let exhaust (what : string) : 'a = raise (Exhausted what)

(* ---- cooperative cancellation ---------------------------------------- *)

(* The same sites that count fuel are the only places an analysis can
   spend unbounded time, so they double as cancellation points: the
   service installs a deadline check here and every fuel-guarded loop
   polls it ([tick]). [Expired] is deliberately NOT [Exhausted] — fuel
   exhaustion means "this analysis diverges" (a property of the
   request, cacheable as a refusal by the driver's handler), while
   expiry means "this caller stopped waiting" (a property of the
   moment, so it must escape the driver's handler, skip the cache, and
   reach the service layer as a Deadline refusal).

   The slot is domain-local: concurrent sessions in one process (tests
   run several) must not see each other's deadlines, and the Par
   worker domains of an in-process batch run inherit nothing — batch
   runs have no deadline by construction. *)

exception Expired

let deadline_slot : (unit -> bool) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_deadline (check : unit -> bool) (f : unit -> 'a) : 'a =
  let slot = Domain.DLS.get deadline_slot in
  let saved = !slot in
  slot := Some check;
  Fun.protect ~finally:(fun () -> slot := saved) f

let tick () : unit =
  match !(Domain.DLS.get deadline_slot) with
  | None -> ()
  | Some check -> if check () then raise Expired
