(** Control-flow reconstruction from binary-level assembly — the decode
    phase of the aiT-style analyzer. Blocks split at labels and after
    branches; edges carry the branch direction the pipeline analysis
    charges per edge. *)

type edge_kind =
  | Etaken
  | Efall

type block = {
  b_id : int;
  b_instrs : Target.Asm.instr array; (** without the leading label *)
  b_addr : int;
  b_size : int;                      (** bytes *)
  b_succs : (int * edge_kind) list;
  b_is_exit : bool;                  (** ends in blr *)
}

type t = {
  c_blocks : block array;
  c_entry : int;
  c_fname : string;
}

exception Decode_error of string

val build : string -> int -> Target.Asm.instr list -> t
(** [build fname base_addr code].
    @raise Decode_error on undefined labels or empty functions. *)

val block : t -> int -> block
val num_blocks : t -> int
val successors : t -> int -> (int * edge_kind) list
val predecessors : t -> int list array

val graph : t -> edge_kind Flow.graph
(** The blocks' successor lists, as the {!Flow} toolkit's graph. *)

val reverse_postorder : t -> int list
(** Reachable blocks, successors walked in list order. *)

val fixpoint :
  fuel:int -> what:string -> t -> 'a ->
  step:(int -> 'a -> (int * 'a) list) ->
  merge:(int -> 'a -> 'a -> 'a option) -> 'a option array
(** [fixpoint ~fuel ~what cfg init ~step ~merge] computes entry states
    per block ([None] = unreachable), starting from [init] at the entry
    block. [step b st] is the state flowing along each successor edge
    of [b] entered in [st]; [merge s old incoming] is the new entry
    state of [s], or [None] when [incoming] adds nothing to [old].
    Pending blocks are processed in reverse postorder; each one costs
    one {!Fuel.tick} and one unit of [fuel].
    @raise Fuel.Exhausted [what] when the budget runs out. *)
