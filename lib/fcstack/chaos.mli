(** Deterministic chaos harness: seeded fault injection against the
    per-node containment contract.

    The harness runs a fault-free reference, injects a seeded set of
    per-node faults (corrupted source, analyzer refusal, starved
    analysis fuel), re-runs the chain under every leg of the matrix,
    and checks that: survivors are byte-identical to the reference,
    the diagnostics name exactly the victims at the expected stages,
    the exit code classifies the run, store corruption causes zero
    failures, and a daemon exits 0 after every hostile episode.
    [test/test_chaos.ml] and [bench --chaos] both drive {!run}. *)

type fault =
  | Fcorrupt_source  (** undeclared-variable write: fails typecheck *)
  | Frefusal         (** unbounded volatile-driven loop: analyzer refuses *)
  | Ffuel            (** starved analysis fuel: "analysis diverged" *)

val fault_name : fault -> string
val expected_stage : fault -> Diag.stage

type plan = (int * fault) list

val make_plan : seed:int -> nodes:int -> victims:int -> plan
(** Victim indices and faults, a pure function of [seed]. *)

val apply_fault : fault -> Minic.Ast.program -> Minic.Ast.program
(** Source-level injection ({!Ffuel} leaves the source untouched — it
    is injected through the per-node config instead). *)

val render_result : Par.node_result -> string
(** Canonical byte rendering of one node's chain output; the
    containment contract is string equality of these. *)

type report = {
  ch_nodes : int;
  ch_victims : (string * fault) list;
  ch_legs : string list;
  ch_problems : string list;  (** empty = every containment check held *)
}

val run :
  ?seed:int -> ?nodes:int -> ?victims:int -> ?engine:Wcet.Report.engine ->
  ?fcd_exe:string -> unit -> report
(** Run the whole matrix (defaults: seed 20260806, 14 nodes, 3
    victims, engine [Ipet]). Deterministic for a given seed. [engine]
    applies to the reference and to every leg, so containment is
    exercised per engine (survivor byte-identity is well-defined
    within one engine).

    The legs are the rows of one table in [chaos.ml], run in table
    order; [ch_legs] names the rows that ran and [ch_problems] is
    their violations, concatenated in the same order. The in-process
    rows always run: the faulted workload per (jobs x cache x shape),
    plus two fault-free store rows (read corruption and write failure
    must both be silent misses). [fcd_exe] adds the daemon rows, each
    against a real fcd child: kill/restart mid-stream, hostile frames,
    a stalled sender, a SIGSTOP'd daemon under a client deadline, and
    shedding plus a SIGKILL under load. A daemon that cannot be
    spawned is a problem of its row, never an exception. *)

val print_report : Format.formatter -> report -> unit
