(** Analyzer driver: the full aiT-like phase sequence — decode/CFG
    reconstruction, dominators and natural loops, interval value
    analysis, loop bounds (automatic counter analysis + annotations),
    cache analysis (capacity persistence refined by the must-cache
    ageing analysis), pipeline analysis sharing the simulator's timing
    model, and path analysis by the selected engine (structural IPET,
    the OMT engine {!Smt}, or both cross-checked).

    Every entry point takes an optional content-addressed {!Memo.t}
    cache. Caching is observationally invisible: a hit returns exactly
    the report (and annotation fragment) the analysis would recompute,
    with the function name re-stamped (the name is not part of the
    content key — see [lib/wcet/README.md]). Only successful analyses
    are cached; refusals ([Error]) re-run every time. *)

exception Error of string

val analyze :
  ?cache:Memo.t -> ?fuel:Fuel.t -> ?spec:string ->
  ?engine:Report.engine -> ?fname:string ->
  Target.Asm.program -> Target.Layout.t -> Report.t
(** Analyze one entry point. [fuel] budgets every iterative phase
    (default {!Fuel.default}, bit-identical to the unbudgeted
    analyzer); the budgets are part of the cache key, and a refusal —
    fuel exhaustion included — is never cached. [spec] names the
    toolchain pipeline that produced the assembly
    ({!Fcstack.Chain.pipeline_spec}); it widens the cache key so
    different optimization selections never share an entry.

    [engine] (default [Ipet], byte-identical output to the pre-engine
    analyzer) selects the path analysis: [Omt] bounds by the
    {!Smt} optimization-modulo-theory engine; [Both] runs OMT (whose
    base bound is the IPET bound over the identical flow system) and
    refuses unless the differential oracle [omt <= ipet] holds. The
    engine is part of the cache key: engines never share entries.
    @raise Error when no sound bound can be produced (irreducible
    control flow, a loop without derivable bound or annotation, an
    infeasible path program, an exhausted fuel budget — "analysis
    diverged" — or an engine-divergence oracle violation) — the
    analyzer refuses rather than under-estimate. *)

val analyze_full :
  ?cache:Memo.t -> ?fuel:Fuel.t -> ?spec:string ->
  ?engine:Report.engine -> ?fname:string ->
  Target.Asm.program -> Target.Layout.t -> Report.t * Annotfile.entry list
(** [analyze] plus the function's annotation-file fragment, served from
    the cache on a hit without re-scanning the instruction stream. *)

val analyze_program :
  ?cache:Memo.t -> ?fuel:Fuel.t -> ?spec:string ->
  ?engine:Report.engine -> Target.Asm.program ->
  Target.Layout.t -> (string * Report.t) list
(** Per-function analysis (the per-node WCET of the paper's Figure 2).
    Iterates the program's functions directly — one pass, no repeated
    [Asm.find_func] linear scans. *)

val annotations :
  ?cache:Memo.t -> ?fuel:Fuel.t -> ?spec:string ->
  ?engine:Report.engine -> Target.Asm.program ->
  Target.Layout.t -> Annotfile.entry list
(** The whole program's annotation entries, taking each function's
    fragment from the cache when its analysis is already there
    (without disturbing the hit/miss accounting). *)
