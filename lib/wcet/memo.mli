(** Content-addressed, Domain-safe cache of per-function WCET analysis.

    The key is a canonical, injective encoding of everything the
    analysis consumes — the instruction stream (without the
    analysis-irrelevant volatile signal names), the entry address, the
    layout slice of symbols/constants the code touches, the fuel, the
    pipeline spec and the engine — and its MD5 digest. It is a function
    of content only: how the [Asm.func] was built (which strings are
    physically shared) never changes it. See [lib/wcet/README.md] for
    the exact contract.
    The value is the finished {!Report.t} plus the function's
    annotation-file fragment. The function {e name} is not part of the
    key (it only reaches the output), so structurally identical nodes
    share one entry; {!Driver} re-stamps names on hits.

    The table is sharded by digest with one [Mutex] per shard:
    [Fcstack.Par] workers on different Domains share one [t] without
    serializing. A hit returns the same value a miss would compute, so
    caching never changes results (qcheck-enforced).

    With [create ?dir] the cache gains a persistent on-disk half
    ({!Store}): memory misses probe the store, finished analyses are
    written through with crash-safe tmp+fsync+rename publication, and
    a corrupted, truncated or version-mismatched entry is silently a
    miss — never an error, never a wrong report.

    This is the only shared mutable state in the libraries; it exists
    solely as an explicit record threaded through
    [Driver.analyze ?cache] — never a module-level global. *)

type t

type value = {
  cv_report : Report.t;
  cv_annots : Annotfile.entry list;
      (** the function's annotation entries, with final argument
          locations substituted — the exchangeable aiT artifact *)
}

type key

val key :
  ?fuel:Fuel.t -> ?spec:string -> ?engine:Report.engine ->
  Target.Layout.t -> base:int -> Target.Asm.func -> key
(** Canonical content key of analyzing [func] placed at [base] under
    the given layout with the given fuel budgets (default
    {!Fuel.default}). The budgets are part of the key: analyses
    under different budgets never share an entry (a budget change can
    flip success into refusal or exact into relaxation bound). [spec]
    (default [""]) is the producing toolchain's canonical pipeline
    spec ({!Fcstack.Chain.pipeline_spec}); it widens the key the same
    way, so two optimization selections never share an entry. So does
    [engine] (default [Ipet]): the engines bound the same code
    differently by design, so their analyses must never share an
    entry either. *)

val digest : key -> string
(** The key's MD5 digest (16 raw bytes), for logging/tests. *)

val create : ?dir:string -> ?gc_mb:int -> unit -> t
(** Fresh cache of 16 mutex-protected shards.

    [dir] attaches the persistent on-disk half ({!Store}): memory
    misses probe [dir], and finished analyses are written through, so
    analyses survive across process runs and may be shared by
    concurrent processes pointing at one directory. An unusable [dir]
    silently degrades to a memory-only cache. [gc_mb] is the size
    budget {!gc} enforces. *)

val store_dir : t -> string option
(** The attached store's directory, when the cache is persistent. *)

val gc : ?max_bytes:int -> t -> unit
(** Evict least-recently-used store entries until the on-disk size fits
    the budget ([max_bytes], defaulting to [create]'s [gc_mb]); no-op
    for a memory-only cache or when no budget was configured. Callers
    run this once at the end of a process run. *)

val find : t -> key -> value option
(** Lookup; counts a memory hit, a disk hit or a miss. A digest
    collision with a different payload is reported as a miss, never as
    the colliding entry; so is a corrupted or version-mismatched disk
    entry (the store re-verifies both stamps on every load). *)

val peek : t -> key -> value option
(** Like {!find} but leaves the hit/miss counters untouched — for
    secondary consumers (annotation-file assembly). *)

val add : t -> key -> value -> unit

val length : t -> int
(** Number of cached analyses. *)

type phase = Pdecode | Pvalue | Pbounds | Pcache | Ppipeline | Pipet | Pomt

val count_phase : t option -> phase -> unit
(** Record one run of an analysis phase ([None]: no accounting).
    {!Driver} calls this as phases actually execute, so failed analyses
    show partial phase counts. *)

val stats : t -> Report.analysis_stats
(** Snapshot of hit/miss/entry counts and phase-run counters. *)
