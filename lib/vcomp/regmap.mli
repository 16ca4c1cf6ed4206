(** Maps from pseudo-registers, for the environments of the forward
    dataflow analyses, and the worklist fixpoint over them. The maps are
    Patricia trees, canonical in shape, that share every subtree an
    operation leaves unchanged, so that a meet or an equality test of
    two environments that differ in a few bindings skips the rest. *)

type 'a t

val empty : 'a t
val find : Rtl.reg -> 'a t -> 'a option

val binds : ('a -> 'a -> bool) -> Rtl.reg -> 'a -> 'a t -> bool
(** [binds eq r v e]: [e] binds [r] to a value [eq] to [v]. *)

val add : Rtl.reg -> 'a -> 'a t -> 'a t
(** Returns [e] itself when [r] is already bound to [v] physically. *)

val remove : Rtl.reg -> 'a t -> 'a t

val filter : ('a -> bool) -> 'a t -> 'a t
(** The bindings whose value the predicate accepts. *)

val forward :
  eq:('a -> 'a -> bool) -> fuel:int -> entry:Rtl.node -> entry_env:'a t ->
  transfer:(Rtl.node -> Rtl.instruction -> 'a t -> 'a t) -> Rtl.walk ->
  'a t array option
(** The forward dataflow fixpoint of [Constprop] and [Gvn]: the
    in-environment of every node, by node ([empty] where unreachable),
    or [None] when [fuel] worklist steps did not reach it. The worklist
    is FIFO and seeded with the walk's reverse postorder; each step
    costs one unit of fuel. At a merge point the environment keeps the
    bindings on which every reached predecessor's out-environment
    agrees by [eq]; a node no reached predecessor leads to gets
    [empty], and the entry always gets [entry_env]. *)
