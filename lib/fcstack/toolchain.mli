(** The unified toolchain configuration: one record carrying the knobs
    that used to be scattered [?cache]/[?jobs]/[?worlds] optionals
    across {!Chain}, {!Par} and {!Experiments}, plus the compiler
    configuration. Build it once (typically from CLI flags) and thread
    it as a single [?config].

    Invariant for future PRs: anything process-wide a chain entry point
    needs belongs in this record — never a new scattered optional, and
    never a module-level global (the cache handle in particular lives
    only here and in the explicit [Wcet.Memo.t] the caller created). *)

type compiler =
  | Cdefault_o0  (** COTS baseline, certified pattern configuration *)
  | Cdefault_o1  (** COTS baseline, optimized without register allocation *)
  | Cdefault_o2  (** COTS baseline, fully optimized (FMA contraction on) *)
  | Cvcomp       (** verified-style optimizing compiler *)
(** Defined here (not in {!Chain}) so [config] can carry it; {!Chain}
    re-exports the constructors, so [Chain.Cvcomp] remains valid. *)

type config = {
  jobs : int;                  (** Domains for per-node fan-out (≥ 1) *)
  cache : Wcet.Memo.t option;  (** shared WCET-analysis cache, possibly
                                   persistent ([Wcet.Memo.create ?dir]) *)
  worlds : int option;         (** validation battery size (None: default
                                   seeds of {!Chain.validate_chain}) *)
  compiler : compiler;
  sim_fuel : int option;       (** simulator step budget per run (None:
                                   [Target.Sim]'s default) *)
  analysis_fuel : Wcet.Fuel.t; (** fixpoint/solver iteration budgets;
                                   part of the analysis-cache key *)
  passes : Vcomp.Pass.options; (** vcomp middle-end pass selection
                                   ([-O]/[--passes]); its canonical
                                   spec string joins the analysis-cache
                                   key *)
  engine : Wcet.Report.engine; (** WCET path-analysis engine
                                   ([--engine]): IPET (default), OMT,
                                   or both cross-checked ([Both]
                                   refuses unless omt <= ipet); part
                                   of the analysis-cache key *)
  stream : int option;         (** streaming shard size ([--stream]):
                                   the workload is pulled shard by
                                   shard, at most [jobs + 1] resident;
                                   [None] = batch, i.e. the whole
                                   workload as one shard. Never
                                   changes output bytes. *)
}

val default : config
(** Sequential, memory-only, verified-style, batch, default fuel. *)

(** {2 Session vs request (the service split)}

    A persistent server ({!Service}) holds one [session] for its whole
    lifetime — the warm {!Wcet.Memo}, the Domain pool width, the
    execution shape — and combines it with a fresh [request_opts] per
    request. Everything that changes what a single answer *means*
    (compiler, passes, engine, worlds, fuel budgets — all the
    analysis-cache key material) is request-scoped, so the server
    cannot accidentally share per-request state: the split is a type,
    not a convention. *)

type session = {
  ss_jobs : int;                   (** Domains for per-node fan-out (≥ 1) *)
  ss_cache : Wcet.Memo.t option;   (** ONE warm cache for the session *)
  ss_stream : int option;         (** shard size; [None] = one shard *)
}

type request_opts = {
  ro_compiler : compiler;
  ro_worlds : int option;          (** validation battery size *)
  ro_sim_fuel : int option;        (** simulator step budget *)
  ro_analysis_fuel : Wcet.Fuel.t;  (** part of the analysis-cache key *)
  ro_passes : Vcomp.Pass.options;  (** part of the analysis-cache key *)
  ro_engine : Wcet.Report.engine;  (** part of the analysis-cache key *)
}

val default_session : session
(** Sequential, memory-only cacheless, batch. *)

val default_request : request_opts
(** Verified-style compiler, default fuel/passes, IPET engine. *)

val session :
  ?jobs:int -> ?cache:Wcet.Memo.t -> ?stream:int -> unit ->
  session
(** Build session-scoped state; omitted fields take
    {!default_session}'s. *)

val request_opts :
  ?compiler:compiler -> ?worlds:int -> ?sim_fuel:int ->
  ?analysis_fuel:Wcet.Fuel.t -> ?passes:Vcomp.Pass.options ->
  ?engine:Wcet.Report.engine -> unit -> request_opts
(** Build request-scoped options; omitted fields take
    {!default_request}'s. *)

val of_session_request : session -> request_opts -> config
(** The one remaining constructor of the combined record: combine
    session state with one request's options. [Chain]/[Par]/
    [Experiments] still consume the combined [config]; the service
    layer builds one per request through this function. *)
