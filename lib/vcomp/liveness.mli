(** Liveness analysis over RTL: backward dataflow computing, per node,
    the pseudo-registers live after the instruction. Used by dead-code
    elimination, LICM, the interference graph construction and the
    allocation validator. *)

module RegSet : Set.S with type elt = int

type t
(** Live-after sets of every node of one function, with the reachable
    nodes and their instructions as the analysis saw them. *)

val live_before : Rtl.instruction -> RegSet.t -> RegSet.t
val analyze : Rtl.func -> t

val reg_bound : t -> int
(** {!Rtl.reg_bound} of the function, as the analysis computed it. *)

val iter_nodes : t -> (Rtl.node -> Rtl.instruction -> unit) -> unit
(** The reachable nodes with their instructions, in the order of
    {!Rtl.reverse_postorder}. *)

val is_live_after : t -> Rtl.node -> Rtl.reg -> bool

val iter_live_after : t -> Rtl.node -> (Rtl.reg -> unit) -> unit
(** In ascending register order. *)

val live_after : t -> Rtl.node -> RegSet.t
(** The row as a set, for tests and reference checkers. *)

val analyze_naive : Rtl.func -> t
(** Global fixpoint over register sets, without a worklist; property
    tests compare it with {!analyze}. *)
