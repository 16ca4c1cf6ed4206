(** Dominators of a reconstructed CFG (Cooper–Harvey–Kennedy, via
    {!Flow}), prerequisite of natural-loop detection. Unreachable blocks
    dominate nothing and are dominated by nothing. *)

type t = Cfg.edge_kind Flow.t

val compute : Cfg.t -> t
val dominates : t -> int -> int -> bool
