(** Liveness analysis over RTL: backward dataflow computing, per node,
    the pseudo-registers live after the instruction. Used by dead-code
    elimination, LICM and the interference graph construction. *)

module RegSet : Set.S with type elt = int

type t
(** Live-after sets of every node of one function. *)

val live_before : Rtl.instruction -> RegSet.t -> RegSet.t
val analyze : Rtl.func -> t

val live_after : t -> Rtl.node -> RegSet.t
val is_live_after : t -> Rtl.node -> Rtl.reg -> bool

val iter_live_after : t -> Rtl.node -> (Rtl.reg -> unit) -> unit
(** In ascending register order. *)

val analyze_naive : Rtl.func -> t
(** Global fixpoint over register sets, without a worklist; property
    tests compare it with {!analyze}. *)
