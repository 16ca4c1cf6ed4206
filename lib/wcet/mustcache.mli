(** Ferdinand-style must-cache abstract interpretation for the data
    cache: upper bounds on LRU ages per line; bounded age proves
    ALWAYS-HIT. Joins intersect with maximal ages; imprecise accesses
    age every line of the sets they may touch. Refines the capacity
    classification of {!Cacheanalysis} via {!Cacheanalysis.refine}. *)

type acache

val empty : acache
val join : acache -> acache -> acache
val access_line : acache -> int -> acache
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
    block, joining the source's transfer into the target's entry state
    leaves that state unchanged. Off the analysis path; the test suite
    runs it. *)

val block_hits : result -> int -> bool list
(** One boolean per data access of the block, in order: true when the
    access is guaranteed to hit. *)
