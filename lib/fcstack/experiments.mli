(** Reproduction drivers for the paper's evaluation artifacts (see the
    per-experiment index in DESIGN.md). Printers emit the same
    rows/series the paper reports; `bench/main.exe` drives them. *)

type per_compiler = {
  pc_compiler : Chain.compiler;
  pc_wcet : int;
  pc_size : int;
  pc_reads : int;   (** executed data-cache reads, one control cycle *)
  pc_writes : int;
}

type node_result = {
  nr_name : string;
  nr_per : per_compiler list;
}

type workload_results = {
  wr_nodes : node_result list;   (** successfully measured nodes *)
  wr_diags : Diag.t list;        (** one per failed node, input order *)
  wr_pass_stats : Vcomp.Pass.pass_stats list;
      (** vcomp middle-end stats aggregated over the nodes, wall times
          zeroed so sequential and parallel runs compare equal *)
}

val find_pc : node_result -> Chain.compiler -> per_compiler

(** Build and measure every node under every configuration.
    [config.jobs > 1] fans the per-node work out over that many domains
    ({!Par}); results are merged by node index and identical to the
    sequential run. [config.cache] shares WCET analyses across nodes,
    configurations and (when persistent) process runs ({!Wcet.Memo});
    it changes wall clock, never results. [config.compiler] is ignored:
    the workload measures all four.

    A failing node becomes a {!Diag.t} in [wr_diags] and is dropped
    from [wr_nodes]; the surviving rows are identical to a run without
    the faulty node. *)
val run_workload :
  ?nodes:int -> ?seed:int -> ?config:Toolchain.config -> unit ->
  workload_results
val total : workload_results -> Chain.compiler -> (per_compiler -> int) -> int

val print_table1 : Format.formatter -> workload_results -> unit
(** Paper Table 1: code size and cache accesses vs non-optimized. *)

val print_figure2 : Format.formatter -> workload_results -> unit
(** Paper Figure 2: per-node WCET + mean variations. *)

val listing_node : Scade.Symbol.node
val print_listings : Format.formatter -> unit
(** Paper Listings 1 and 2. *)

type annot_demo = {
  ad_wcet_with : int;
  ad_annot_comment : string;
  ad_failure_without : string;
}

val run_annot_demo : unit -> annot_demo
val print_annot_demo : Format.formatter -> unit
(** Paper section 3.4 end to end. *)

val print_ablation :
  Format.formatter -> ?nodes:int -> ?seed:int -> ?config:Toolchain.config ->
  unit -> unit
val print_overestimation :
  Format.formatter -> ?nodes:int -> ?seed:int -> ?config:Toolchain.config ->
  unit -> unit
(** Both tables contain per-node failures like {!run_workload}: failed
    nodes drop out of the rows/sums and are summarized on stderr. The
    ablation table includes GVN-CSE and LICM rows with code-size
    columns; every variant analyzes under its own pipeline spec.

    Under [config.engine = Both] the overestimation table additionally
    prints a per-row omt/ipet bound ratio column and an engines
    aggregate (total IPET vs OMT cycles, strictly-tighter count) —
    the driver has cross-checked omt <= ipet on every analysis. *)

val print_gvn_licm_json :
  Format.formatter -> ?nodes:int -> ?seed:int -> ?config:Toolchain.config ->
  unit -> unit
(** Machine-readable GVN/LICM deltas (code size + total WCET bound for
    the local-CSE pipeline, +GVN, +GVN+LICM) as pure JSON — the
    published BENCH_gvn_licm.json. *)

val map_workload :
  config:Toolchain.config -> nodes:int -> seed:int ->
  (Scade.Symbol.node * Minic.Ast.program -> 'a) -> 'a list
(** The one workload traversal behind every measurement driver: [f]
    over each generated node, results in node order. The workload is
    pulled shard by shard through {!Par.run_stream} with generation
    inside the producer; [config.stream] picks the shard size, and
    without it the whole workload is one shard.
    Results are identical across shapes. *)

val print_engines_json :
  Format.formatter -> ?nodes:int -> ?seed:int -> ?config:Toolchain.config ->
  unit -> unit
(** Machine-readable engine comparison: per compiler configuration,
    summed IPET vs OMT bounds over the workload, strictly-tighter node
    count, and the largest per-node saving. Forces [engine = Both], so
    the driver checks the differential oracle omt <= ipet on every
    analysis (a violation is a refusal, summarized on stderr — never
    in the JSON). Pure JSON — the published BENCH_engines.json. *)

(** {1 Scale legs ([bench -e scale-leg])} *)

type scale_leg = {
  sc_nodes : int;
  sc_failures : int;      (** contained per-node failures *)
  sc_wcet_total : int;    (** determinism witness: equal across every
                              leg of one (nodes, seed, compiler) point,
                              whatever the jobs/cache/shape *)
  sc_wall_s : float;
  sc_peak_rss_kb : int;   (** the process's VmHWM after the leg
                              (0: no procfs) *)
  sc_throughput : float;  (** nodes per second *)
  sc_stats : Wcet.Report.analysis_stats option;  (** [None]: no cache *)
}

val run_scale_leg :
  ?nodes:int -> ?seed:int -> ?config:Toolchain.config -> unit -> scale_leg
(** One scale leg: compile + analyze the whole workload
    in the execution shape the config picks (batch or [config.stream],
    [config.jobs] domains, [config.cache]), then read the process's
    peak RSS (VmHWM) from [/proc/self/status]: run one leg per process.
    No simulation or validation — this measures the service-shaped hot
    path. Defaults: 2500 nodes, seed 2026. *)

val scale_leg_json :
  config:Toolchain.config -> scale_leg -> string
(** The leg as one JSON object (no trailing newline). *)
