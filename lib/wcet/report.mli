(** WCET analysis report: the bound together with the evidence a
    certification-minded user inspects. *)

(** The path-analysis engine behind the bound. [Ipet] (the default) is
    the structural ILP of the original analyzer; [Omt] is the
    optimization-modulo-theory engine ({!Smt}: the same flow system
    plus semantic infeasible-path cuts, optimized by binary search over
    LP feasibility queries); [Both] runs the two and refuses unless
    [omt <= ipet] holds — the differential oracle. The engine selection
    is part of the {!Memo} content key. *)
type engine = Ipet | Omt | Both

val engine_name : engine -> string
(** ["ipet"] / ["omt"] / ["both"] — the CLI spelling. *)

val engine_of_string : string -> (engine, string) Result.t
(** Parse the CLI spelling; [Error] carries the usage message. *)

type loop_info = {
  li_header : int;
  li_bound : int;
  li_from_annotation : bool;
}

type t = {
  rp_function : string;
  rp_wcet : int;               (** cycles; the selected engine's bound
                                   (OMT under [Omt] and [Both]) *)
  rp_exact_ilp : bool;         (** false: LP-relaxation bound (still sound) *)
  rp_blocks : int;
  rp_code_bytes : int;
  rp_loops : loop_info list;
  rp_cache_first_miss : int;   (** one-time line-fill cycles in the bound *)
  rp_cache_imprecise : bool;
  rp_code_lines : int;
  rp_data_lines : int;
  rp_engine : engine;
  rp_wcet_ipet : int option;   (** IPET bound, when [Both] computed it *)
  rp_wcet_omt : int option;    (** OMT bound, under [Omt] or [Both] *)
  rp_omt_cuts : int;           (** infeasible-path cuts in the encoding *)
}

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Accounting for a batch of analyses run against a {!Memo} cache:
    hit/miss/entry counts plus how often each analysis phase actually
    ran (a hit runs none). Snapshots come from [Memo.stats]. *)
type analysis_stats = {
  st_hits : int;       (** served from the in-memory table *)
  st_disk_hits : int;  (** served from the persistent on-disk store *)
  st_misses : int;
  st_writes : int;     (** entries persisted to the store this run *)
  st_entries : int;    (** distinct cached analyses (in memory) *)
  st_decode : int;     (** CFG reconstructions run *)
  st_value : int;
  st_bounds : int;
  st_cache : int;
  st_pipeline : int;
  st_ipet : int;
  st_omt : int;      (** OMT path analyses run ([Omt]/[Both] engines) *)
}

val hit_rate : analysis_stats -> float
(** Percentage of lookups served from cache — memory or disk (0 when
    no lookups). *)

val pp_stats : Format.formatter -> analysis_stats -> unit
val stats_to_string : analysis_stats -> string

val stats_json : analysis_stats -> string
(** Hit/miss/entry accounting as one flat JSON object (no trailing
    newline) — embedded in each [bench -e scale-leg] JSON line. *)
