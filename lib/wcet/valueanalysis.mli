(** Value analysis: interval-based abstract interpretation of the
    machine code, at basic-block granularity with branch refinement and
    widening at join points (aiT's "value analysis" phase). It delivers
    the register and stack-slot contents used by the loop-bound analysis
    and the access addresses used by the data-cache analyses. *)

type absval =
  | Vint of Interval.t            (** plain 32-bit data *)
  | Vsym of string * Interval.t   (** address of symbol + offset *)
  | Vsp of Interval.t             (** stack pointer + offset (from entry sp) *)
  | Vtop                          (** anything, including unknown addresses *)

val absval_equal : absval -> absval -> bool

type state
(** Integer registers and stack slots (keyed by offset from the entry
    stack pointer). A register never written is [Vtop]; a slot never
    stored reads as [Vint Interval.top]. *)

val init_state : state
(** The entry state: [sp] at offset 0, [r0] an integer. *)

val get_reg : state -> Target.Asm.ireg -> absval
val set_reg : state -> Target.Asm.ireg -> absval -> state

val find_slot : state -> int -> absval option
(** The slot at an offset from the entry stack pointer, [None] when
    nothing is known of it. *)

val state_equal : state -> state -> bool

val join_state : state -> state -> state
(** Pointwise join; a slot only one side knows becomes [Vtop]. Returns
    its first argument itself when the result equals it. *)

val widen_state : state -> state -> state
(** [widen_state old_s new_s], pointwise as [join_state]. *)

val state_leq : state -> state -> bool
(** [state_leq a b]: [join_state a b] equals [b], without building it. *)

val slot_key : state -> Target.Asm.address -> int option
(** The exact stack-slot key of an address, if statically known. *)

(** Resolved memory region of an access. *)
type region =
  | Rslot of int                       (** exact stack slot (sp0-relative) *)
  | Rstack of Interval.t               (** imprecise stack range *)
  | Rsym of string * Interval.t        (** symbol + byte-offset interval *)
  | Rpool of float                     (** constant pool entry *)
  | Runknown

val region_of_address : state -> Target.Asm.address -> region

val as_int_itv : absval -> Interval.t
(** The integer interval of a value; [Interval.top] for an address. *)

val transfer : state -> Target.Asm.instr -> state
(** The transfer function of one instruction. *)

val transfer_block : Cfg.block -> state -> state

(** The right operand of the comparison guarding a block's exit. *)
type cmp_operand =
  | CmpReg of Target.Asm.ireg
  | CmpImm of int32

val block_compare : Cfg.block -> (Target.Asm.ireg * cmp_operand) option
(** The comparison feeding the block's final conditional branch. *)

val block_branch_cond : Cfg.block -> Target.Asm.branch_cond option

val comparison_of_cond : Target.Asm.branch_cond -> Minic.Ast.comparison
(** The comparison that holds on the taken edge. *)

val edge_state : Cfg.block -> state -> Cfg.edge_kind -> state
(** The block's out-state along one of its edges, refined by the
    branch condition. *)

type result = {
  r_entry_states : state option array; (** per block; [None] = unreachable *)
  r_cfg : Cfg.t;
}

val analyze : ?widen_after:int -> ?fuel:int -> Cfg.t -> result
(** The fixpoint over the reverse-postorder worklist of [Cfg.fixpoint],
    widening after [widen_after] joins at a block. [fuel] bounds the
    worklist iterations (default [Fuel.default.fl_widen]).
    @raise Fuel.Exhausted when the budget runs out. *)

val iter_block : result -> int -> (int -> state -> Target.Asm.instr -> unit) -> unit
(** [iter_block res b f] calls [f idx st instr] for each instruction of
    block [b] in order, [st] being the state just before it. Nothing is
    called for an unreachable block. *)

val stable : Cfg.t -> result -> bool
(** Post-fixpoint check, independent of the iteration order, widening
    and visit counts: the entry block's state covers [init_state], and
    along every edge out of a reachable block the target's entry state
    is above the source's transfer by [state_leq]. Off the analysis
    path; the test suite runs it. *)
