(** Liveness analysis over RTL: backward dataflow computing, per node,
    the pseudo-registers live after the instruction. Used by dead-code
    elimination, LICM, the interference graph construction and the
    allocation validator. *)

type t
(** Live-after sets of every node of one function, with the reachable
    nodes and their instructions as the analysis saw them. *)

val analyze : Rtl.func -> t

val remove : t -> Rtl.node list -> unit
(** [remove lv nodes]: the instruction at each of [nodes] is a pure
    [Iop] or [Iload] whose destination is not live after it (by [lv]),
    and the function now has an [Inop] to the same successor there.
    Brings [lv] up to date: afterwards its instructions and rows are
    those [analyze] gives on the changed function. Only the registers
    the removed instructions read are solved again.
    @raise Invalid_argument if a node holds another instruction. *)

val reg_bound : t -> int
(** {!Rtl.reg_bound} of the function, as the analysis computed it. *)

val words : t -> int
(** Words per row: register [r] is bit [r mod 63] of word [r / 63]. *)

val word : t -> Rtl.node -> int -> int
(** [word lv n w]: word [w] of the live-after row of [n] (0 past the
    rows). Reading a row never changes it. *)

val instr : t -> Rtl.node -> Rtl.instruction
(** The instruction at a reachable node, as the analysis saw it. *)

val iter_nodes : t -> (Rtl.node -> Rtl.instruction -> unit) -> unit
(** The reachable nodes with their instructions, in the order of
    {!Rtl.reverse_postorder}. *)

val is_live_after : t -> Rtl.node -> Rtl.reg -> bool

val iter_live_after : t -> Rtl.node -> (Rtl.reg -> unit) -> unit
(** In ascending register order. *)

val set_bit : int array -> int -> Rtl.reg -> unit
val clear_bit : int array -> int -> Rtl.reg -> unit
val has_bit : int array -> int -> Rtl.reg -> bool
val bit : int -> Rtl.reg -> int
val lowest : int -> int -> Rtl.reg
val iter_bits : int -> int -> (Rtl.reg -> unit) -> unit
(** Rows of register bits in the layout of {!word}: [set_bit a base r]
    sets the bit of [r] in the row that starts at [a.(base)]. For word
    [w] of a row, [bit w r] is the bit of [r] in it (0 if [r] lies in
    another word), [lowest w x] the register of the lowest set bit of
    [x <> 0], and [iter_bits w x k] calls [k r] for every register set
    in [x], ascending. *)

val popcount : int -> int
