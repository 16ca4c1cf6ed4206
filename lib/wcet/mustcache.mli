(** Ferdinand-style must-cache abstract interpretation for the data
    cache: upper bounds on LRU ages per line; bounded age proves
    ALWAYS-HIT. Joins intersect with maximal ages; imprecise accesses
    age every line of the sets they may touch. Refines the capacity
    classification of {!Cacheanalysis} via {!Cacheanalysis.refine}. *)

type acache
(** Per touched cache set, an upper bound on the age of each line it
    holds, on shared Patricia maps: states that differ in a few sets
    share the rest. *)

val empty : acache
val equal : acache -> acache -> bool

val join : acache -> acache -> acache
(** The lines both sides hold, at the larger age bound. *)

val leq : acache -> acache -> bool
(** [leq a b]: [join a b] equals [b], without building it. *)

val access_line : acache -> int -> acache
(** A precise access to one line, which becomes the youngest. *)

val blur_sets : acache -> int list -> acache
(** An imprecise access that may touch any line of the given sets. *)

val age : acache -> int -> int option
(** The age bound of a line; [None] when it may have been evicted. *)

val must_hit : acache -> int -> bool

type result

val analyze :
  ?fuel:int -> Cfg.t -> Valueanalysis.result -> Target.Layout.t -> result
(** [fuel] bounds the worklist iterations (default
    [Fuel.default.fl_widen]).
    @raise Fuel.Exhausted when the budget runs out. *)

val stable : Cfg.t -> result -> bool
(** Post-fixpoint check, independent of the iteration order: the entry
    state covers the empty cache, and for every edge out of a reachable
    block, the source's transfer is below the target's entry state by
    [leq]. Off the analysis path; the test suite runs it. *)

val block_hits : result -> int -> bool list
(** One boolean per data access of the block, in order: true when the
    access is guaranteed to hit. *)
