(** Cache analysis for the split L1 caches: a conflict-capacity
    persistence classification (a set whose distinct-line footprint
    fits the associativity can never evict under LRU, so each of its
    lines misses at most once), refinable by the must-cache ageing
    analysis of {!Mustcache}. *)

type t = {
  ca_dextra : int array;   (** per-block per-execution data-miss cycles *)
  ca_iextra : int array;   (** per-block per-execution fetch-miss cycles *)
  ca_first_miss : int;     (** one-time cycles: persistent line fills *)
  ca_imprecise : bool;     (** an unresolved access degraded the analysis *)
  ca_dlines : int;
  ca_ilines : int;
  ca_daccesses : int list list array;
      (** per block, per data access in order: lines it may touch
          ([[]] = unresolved) *)
  ca_dpersistent : int -> bool;
}

val line_size : int
val nsets : int
val assoc : int
(** The geometry of both L1 caches (the MPC755's), which {!Mustcache}
    analyzes too. *)

val set_of : int -> int
(** The cache set of a memory line (address / [line_size]). *)

exception Not_resolved

val data_access :
  Target.Layout.t -> Valueanalysis.state -> Target.Asm.instr ->
  (int * int) option
(** Byte range of the instruction's data access, resolved through the
    value analysis; [None] when the instruction accesses no data.
    @raise Not_resolved on statically unknown addresses. *)

val analyze : Cfg.t -> Valueanalysis.result -> Target.Layout.t -> t

val refine : t -> (int -> bool list) -> t
(** Drop the per-access penalty of accesses the given per-block
    ALWAYS-HIT classification proves to be hits. *)
