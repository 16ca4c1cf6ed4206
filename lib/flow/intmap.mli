(** Int-keyed maps for the states of the dataflow analyses, in the
    compiler and in the WCET analyzer. The maps are Patricia trees,
    canonical in shape for their bindings, that share every subtree an
    operation leaves unchanged. The binary operations return at once on
    two physically equal arguments and skip every subtree both sides
    share, so that joining, comparing or ordering two states that differ
    in a few bindings costs only those. When the result of [merge],
    [inter] or [filter_map] has the bindings of its first argument, with
    the same values physically, it is that argument itself; it is the
    second argument when it has that one's bindings and the two share
    the subtrees on which they agree. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val find_opt : int -> 'a t -> 'a option

val binds : ('a -> 'a -> bool) -> int -> 'a -> 'a t -> bool
(** [binds eq k v m]: [m] binds [k] to a value [eq] to [v]. *)

val add : int -> 'a -> 'a t -> 'a t
(** Returns the map itself when [k] is already bound to [v]
    physically. *)

val remove : int -> 'a t -> 'a t

val filter_map : (int -> 'a -> 'a option) -> 'a t -> 'a t
(** Keeps the subtrees in which [f] returns every value physically. *)

val filter : ('a -> bool) -> 'a t -> 'a t
(** The bindings whose value the predicate accepts. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In an order fixed by the keys (not their numeric order). *)

(** The binary operations below take their function at every key bound
    on either side (or on both, for [inter]), with the absent side as
    [None]. They trust it to be the identity on a key both sides bind
    to the same value: [f k (Some v) (Some v)] is [Some v] for
    [merge], [f k v v] is [Some v] for [inter], [eq v v] and
    [f k (Some v) (Some v)] hold for [equal] and [leq]. *)

val merge : (int -> 'a option -> 'a option -> 'a option) -> 'a t -> 'a t -> 'a t
(** As [Map.S.merge]. *)

val inter : (int -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t
(** The keys bound on both sides, to what [f] returns ([None] drops
    the key). *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val leq : (int -> 'a option -> 'a option -> bool) -> 'a t -> 'a t -> bool
(** [leq f a b]: [f k (find_opt k a) (find_opt k b)] holds at every key
    bound in [a] or [b]: the pointwise order that [f] defines, with
    absence as whatever [f] reads it as. *)
