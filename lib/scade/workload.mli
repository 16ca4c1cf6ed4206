(** Synthetic flight-control workload generator: seeded, deterministic
    stand-in for the paper's ~2500 proprietary generated files (see
    DESIGN.md section 2). Generation is linear in the node size (array
    wire pools, no per-symbol list scans) and shardable: the workload
    can be produced slice by slice for the streaming pipeline, with
    every shard reproducible in isolation. *)

type profile = {
  pf_symbols : int;       (** generated value symbols *)
  pf_acquisitions : int;  (** volatile inputs, >= 1 *)
  pf_outputs : int;       (** actuator outputs, >= 1 *)
  pf_loopy : bool;        (** allow lookup/movavg/modalsum symbols *)
}

val small_node : profile
val medium_node : profile
val large_node : profile

val io_node : profile
(** Acquisition-dominated: lots of I/O, little computation — the
    paper's nodes "with strong performance bottlenecks" whose WCET
    barely improves under any compiler. *)

val generate_node : ?profile:profile -> seed:int -> string -> Symbol.node
(** Deterministic in the seed; every computed signal is consumed
    (compilers cannot win by deleting dead subgraphs). *)

val node_at : seed:int -> int -> Symbol.node
(** Node [i] of the flight program: the 3 io / 2 small / 4 medium /
    1 large size mix with per-node seed [seed + 7919 * i]. The per-node
    seed depends only on the global index, never on shard boundaries. *)

(** {1 Sharded generation}

    A {!plan} cuts the [nodes]-node workload into fixed-size shards;
    {!generate_shard} produces shard [k] alone — reproducible in
    isolation and byte-identical to the corresponding slice of
    {!flight_program} at every shard size. This is the producer side of
    the streaming pipeline ([Fcstack.Par.run_stream]): resident memory
    is one shard, not the workload. *)

type plan = {
  sp_nodes : int;       (** workload size *)
  sp_seed : int;        (** workload seed *)
  sp_shard_size : int;  (** nodes per shard, >= 1 *)
}

val default_shard_size : int
(** 256 nodes per shard. *)

val shard_plan : ?shard_size:int -> nodes:int -> seed:int -> unit -> plan

val shard_count : plan -> int

val shard_bounds : plan -> int -> int * int
(** [shard_bounds plan k] is the global node-index range [\[lo, hi)] of
    shard [k] (empty once [k >= shard_count plan]). *)

val generate_shard : plan -> int -> (Symbol.node * Minic.Ast.program) array
(** Shard [k]: nodes [lo..hi-1] of the plan with their generated
    mini-C. Pure in [(plan, k)]; concatenating all shards equals
    [flight_program ~nodes ~seed]. *)

val flight_program :
  nodes:int -> seed:int -> (Symbol.node * Minic.Ast.program) list
(** A whole program: [nodes] nodes of mixed profiles with their
    generated mini-C — the eager concatenation of every shard of the
    default plan. *)
