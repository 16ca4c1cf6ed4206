(** Deterministic parallel work queue over OCaml 5 Domains.

    Nodes of a flight-control workload are independent, so the per-node
    chain (ACG → compile → link → WCET analysis → differential
    validation) fans out across domains. Results are merged by task
    index, never by completion order: a parallel run is observably
    identical to the sequential one regardless of scheduling. *)

val shape : int option -> n:int -> int
(** [shape stream ~n] is the shard size for [n] tasks: [stream] when
    set, otherwise [n] (one shard); at least 1 either way. *)

val fold :
  jobs:int -> ?stream:int -> (unit -> 'a) array ->
  consumer:('acc -> int -> 'a -> 'acc) -> init:'acc -> 'acc
(** [fold ~jobs ~stream tasks ~consumer ~init] cuts [tasks] into shards
    of {!shape}[ stream] tasks, runs them through {!run_stream} on up to
    [jobs] domains (never more than one per task) and folds
    [consumer acc index result] in task order. The only place a task
    array is sliced into shards; failures follow {!run_stream}'s rule. *)

val run_stream :
  jobs:int ->
  producer:(int -> (unit -> 'a) array option) ->
  consumer:('acc -> int -> 'a -> 'acc) -> init:'acc -> unit -> 'acc
(** Bounded-buffer streaming: pull task shards lazily from
    [producer 0, producer 1, ...] ([None] ends the stream), evaluate
    every task on [jobs] domains (the calling one included; [jobs <= 1]
    spawns none), and fold results into
    [consumer acc global_index result] in global task order. At most
    [jobs + 1] shards are resident at any instant, so memory is flat in
    the stream length; the fold observes exactly what the sequential
    run would, byte for byte.

    [producer] is called one shard at a time, in order, from worker
    domains outside the stream lock (generation overlaps evaluation);
    [consumer] always runs under the lock, never concurrently with
    itself, and reaches index [i] only after every task at or below [i]
    has finished.

    Failures: a raising task fails at its index, a raising producer at
    the first index of the shard it did not produce, and a raising
    consumer at the index it was handed. The smallest failing index
    wins. Once it has failed, no task above it is claimed and no shard
    is produced (tasks already running finish); every result below it
    reaches [consumer] and none at or beyond it does.
    Its exception is re-raised in the caller, with its backtrace, after
    all domains wind down. *)

type node_result = {
  pn_name : string;
  pn_asm : Target.Asm.program;
  pn_wcet : int;
  pn_validation : (unit, string) Result.t;
}
(** Per-node toolchain output: assembly, WCET bound, whole-chain
    differential-validation verdict. Structural — compare runs with [=]. *)

val chain_node :
  config:Toolchain.config -> ?exact:bool -> ?cycles:int ->
  string -> Minic.Ast.program -> (node_result, Diag.t) Result.t
(** One node's chain (compile/link → WCET → validation) with per-stage
    failure containment: any failure becomes a {!Diag.t} naming the
    node and the stage; exceptions never escape. The compiler
    typechecks on entry, so an ill-typed node is one [Typecheck]
    diagnostic ({!Diag.of_exn}).
    This is the per-node body of {!run_chain_nodes}; the chaos harness
    drives it directly with per-node configs. *)

val run_chain_nodes :
  ?config:Toolchain.config -> ?exact:bool -> ?cycles:int ->
  Scade.Symbol.node list -> (node_result, Diag.t) Result.t list
(** Full per-node chain over SCADE nodes under one {!Toolchain.config}:
    the ACG (an ACG failure is a Compile-stage diagnostic), then
    {!chain_node}, {!fold}ed over [config.jobs] domains, analyses
    shared through [config.cache] (safely: sharded, mutex-per-shard;
    results are unchanged by hits), validation battery from
    [config.worlds]. [exact]/[cycles] remain per-call semantic
    knobs. Default config: sequential, cacheless, vcomp.

    Per-node failure containment: a failing node yields [Error diag];
    all other nodes complete and merge by index, their results
    byte-identical to a fault-free run restricted to them. *)
