(** Deterministic parallel work queue over OCaml 5 Domains.

    Nodes of a flight-control workload are independent, so the per-node
    chain (ACG → compile → link → WCET analysis → differential
    validation) fans out across domains. Results are merged by task
    index, never by completion order: a parallel run is observably
    identical to the sequential one regardless of scheduling. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] evaluates every task on up to [jobs] domains and
    returns results in task order: {!run_stream} over one shard, so
    one job or at most one task runs sequentially in the calling
    domain. If tasks raise, the exception of the smallest-indexed
    raising task is re-raised in the caller. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. *)

val shape : Toolchain.stream_opts option -> n:int -> int * int
(** [shape stream ~n] is the [(shard_size, lookahead)] that
    {!run_stream} uses for [n] tasks: from [stream] when set (shard size
    at least 1), otherwise one shard of [max 1 n] tasks and lookahead
    1. Every fcstack stream takes its shape from here. *)

val run_stream :
  ?jobs:int -> ?lookahead:int ->
  producer:(int -> (unit -> 'a) array option) ->
  consumer:('acc -> int -> 'a -> 'acc) -> init:'acc -> unit -> 'acc
(** Bounded-buffer streaming: pull task shards lazily from
    [producer 0, producer 1, ...] ([None] ends the stream), evaluate
    every task on up to [jobs] domains, and fold results into
    [consumer acc global_index result] in global task order. At most
    [jobs + lookahead] (default 1) shards are resident at any instant,
    so memory is
    flat in the stream length; the fold observes exactly what the
    sequential run would, byte for byte.

    [producer] is called one shard at a time, in order, from worker
    domains outside the stream lock (generation overlaps evaluation);
    [consumer] always runs under the lock, never concurrently with
    itself. If a task or the producer raises, the stream stops claiming
    work, no result at or beyond the first raising global index reaches
    [consumer], and that exception is re-raised in the caller after all
    domains wind down: the smallest-indexed exception wins.
    [jobs <= 1] runs everything in the calling domain, one shard
    resident at a time. *)

type node_result = {
  pn_name : string;
  pn_asm : Target.Asm.program;
  pn_wcet : int;
  pn_validation : (unit, string) Result.t;
}
(** Per-node toolchain output: assembly, WCET bound, whole-chain
    differential-validation verdict. Structural — compare runs with [=]. *)

val chain_node :
  config:Toolchain.config -> ?exact:bool -> ?validate:bool -> ?cycles:int ->
  string -> Minic.Ast.program -> (node_result, Diag.t) Result.t
(** One node's chain (typecheck → compile/link → WCET → validation)
    with per-stage failure containment: any failure becomes a
    {!Diag.t} naming the node and the stage; exceptions never escape.
    This is the per-node body of {!run_chain}; the chaos harness drives
    it directly with per-node configs. *)

val run_chain :
  ?config:Toolchain.config -> ?exact:bool -> ?validate:bool -> ?cycles:int ->
  (string * Minic.Ast.program) list -> (node_result, Diag.t) Result.t list
(** Full per-node chain over named mini-C programs under one
    {!Toolchain.config}: compiled with [config.compiler],
    [config.jobs]-parallel, analyses shared through [config.cache]
    (safely: sharded, mutex-per-shard; results are unchanged by hits),
    validation battery from [config.worlds]. [exact]/[validate]/
    [cycles] remain per-call semantic knobs. Default config:
    sequential, memory-only cacheless, vcomp.

    Per-node failure containment: a failing node yields [Error diag]
    and is skipped; all other nodes complete and merge by index, their
    results byte-identical to a fault-free run restricted to them. *)

val run_chain_nodes :
  ?config:Toolchain.config -> ?exact:bool -> ?validate:bool -> ?cycles:int ->
  Scade.Symbol.node list -> (node_result, Diag.t) Result.t list
(** Same, from SCADE nodes: the ACG also runs inside the workers (an
    ACG failure is a Compile-stage diagnostic). *)

val run_chain_stream :
  ?config:Toolchain.config -> ?exact:bool -> ?validate:bool -> ?cycles:int ->
  producer:(int -> (string * Minic.Ast.program) array option) ->
  consumer:('acc -> int -> (node_result, Diag.t) Result.t -> 'acc) ->
  init:'acc -> unit -> 'acc
(** {!run_chain} in streaming shape: named mini-C programs arrive shard
    by shard from [producer], per-node outcomes fold into [consumer] in
    global input order, and only [jobs + lookahead] shards stay
    resident (lookahead from [config.stream] when set). The outcome for
    every node is identical to {!run_chain} over the concatenated
    shards. *)
