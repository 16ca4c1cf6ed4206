(** The timing model (DESIGN section 5), shared verbatim by the
    executable simulator and the WCET analyzer's pipeline phase: both
    take their costs from {!static_costs}. Overlap windows reset at
    labels and branches, so per-block costs compose exactly with the
    simulator's costs over a whole function body — the analyzer's only
    over-approximations are cache classification and worst-path
    selection. *)

val cache_miss_penalty : int
(** Extra cycles per missed cache line. *)

val branch_cost : taken:bool -> int
(** Cost of the control transfer itself, charged per executed edge. *)

(** Cost constants, exposed for reporting; prefer {!static_costs} over
    summing these by hand. *)

val cost_mullw : int
val cost_divw : int
val cost_fdiv : int
val cost_fpu : int
val cost_fpu_overlap : int
val cost_load : int
val load_use_stall : int
val cost_acquisition : int
val cost_actuator : int

val static_costs : Asm.instr array -> int array
(** Per-instruction costs of an instruction sequence (a basic block, or
    a whole function body), from a fresh pipeline-overlap window
    (dual-issue pairing, FPU overlap, load-to-use forwarding) that
    resets at labels and branches. Branch direction costs and
    cache-miss penalties are NOT included. *)
