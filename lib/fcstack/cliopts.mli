(** The one flag surface and the one client of the toolchain CLIs.

    bench, fcc, aitw and fcd splice the same Cmdliner terms: the cache
    trio [--no-cache]/[--cache-dir]/[--cache-gc-mb] (with
    [FCSTACK_CACHE_DIR] as the [--cache-dir] default), [-j], [-O]/
    [--passes], [--engine] and the streaming pair. The flags fcc and
    aitw share fold into one record ({!term}), and {!run_client} is
    their one client: in-process or served execution, retry, local
    fallback, [--fail-fast], the failure summary and the exit code. *)

type cache_opts = {
  co_no_cache : bool;        (** [--no-cache]: no cache at all *)
  co_dir : string option;    (** [--cache-dir]/[FCSTACK_CACHE_DIR] *)
  co_gc_mb : int option;     (** [--cache-gc-mb] size budget *)
}

val cache_term : cache_opts Cmdliner.Term.t
(** The cache flag trio, identical in every CLI. *)

val jobs_term : doc:string -> int Cmdliner.Term.t
(** [-j]/[--jobs N] (default 1); [doc] describes the tool's fan-out. *)

val passes_term : Vcomp.Pass.options Cmdliner.Term.t
(** The optimization-selection pair [-O N] (default 2) and
    [--passes LIST]; [--passes] overrides [-O]. A bad pass list is a
    Cmdliner parse error (exit 124) before any work runs. *)

val engine_term : Wcet.Report.engine Cmdliner.Term.t
(** [--engine ipet|omt|both] (default [ipet]): the WCET path-analysis
    engine. [both] runs IPET and OMT and refuses unless [omt <= ipet]
    holds per node. A bad engine name is a Cmdliner parse error
    (exit 124) before any work runs. *)

val stream_term : int option Cmdliner.Term.t
(** The streaming pair [--stream] and [--shard-size N] (default
    [Scade.Workload.default_shard_size]); [--shard-size] implies
    [--stream]. The value is the shard size, [None] = batch. Streaming
    never changes output bytes — it bounds resident memory at
    [jobs + 1] shards. *)

(** The flags fcc and aitw share. *)
type t = {
  cl_opts : Toolchain.request_opts;
  (** [-c]/[--compiler] (default [vcomp], parsed through
      {!Request.compiler_of_string}), [-O]/[--passes] and [--engine].
      A bad name is a Cmdliner parse error (exit 124). *)
  cl_jobs : int;            (** [-j] *)
  cl_fail_fast : bool;
  (** [--fail-fast]: client-side; the first failing input (input
      order) is the last one emitted, no input after it runs, and the
      run exits 2. *)
  cl_connect : string option;
  (** [--connect SOCKET]: run as a client of an [fcd] daemon;
      [None] = in-process. *)
  cl_deadline_ms : int option;
  (** [--deadline-ms MS]: per-request deadline; expiry is a refusal
      with a [Deadline] diag, never a late answer, never cached. *)
  cl_retry : Retry.policy;
  (** [--retries], [--retry-base-ms], [--retry-seed] (attempts clamped
      to [>= 1]); only transport/busy failures are retried. *)
  cl_fallback_local : bool;
  (** [--fallback-local]: with [--connect], degrade to in-process
      execution when the daemon cannot answer. *)
  cl_cache : cache_opts;
  (** The cache trio. A [--connect] run creates no local session, and
      so no cache directory, unless it falls back. *)
}

val term : jobs_doc:string -> t Cmdliner.Term.t
(** All of {!t}'s flags; [jobs_doc] is the tool's [-j] doc string. *)

val run_client :
  tool:string -> t -> stream:int option ->
  request:(string -> string -> Request.t) ->
  emit:(Response.t -> unit) ->
  finish:(Service.session option -> (unit -> int) -> int) ->
  string list -> int
(** [run_client ~tool o ~stream ~request ~emit ~finish files] is the
    whole run of fcc or aitw; it returns the exit code.

    Each file is read and turned into [request file source]; a read
    failure is a [Parse] refusal naming the file. Both transports run
    the files through one {!Par.fold} in shards of [stream] files (all
    files as one shard when it is [None]). Without [--connect], the
    requests run on one in-process {!Service} session across [-j]
    domains. With [--connect], they go to the daemon in input order
    (one job) over one lazily opened connection, each under
    {!Retry.run}; a retryable status drops the connection, and with
    [--fallback-local] a request that still fails runs on a lazily
    created local session (one stderr note each). An unreachable
    daemon without [--fallback-local] prints the connect error and
    returns 2.

    Responses go to [emit] in input order, each as soon as its turn
    comes; under [--fail-fast] the first failing one is the last, and
    no file after it is run or sent. Then [finish session summarize]
    runs, with the local session ([None] over [--connect]); it must
    call [summarize], which prints the diagnostics and the failure
    summary to stderr and returns the exit code (0 all ok, 1 partial,
    2 total or fail-fast), and returns the run's exit code. A local
    run then applies the [--cache-gc-mb] budget; a served run reports
    its retries on stderr
    (["<tool>: retried R request(s) (E extra attempt(s))"], only when
    a retry happened). *)

val session_of_opts :
  ?jobs:int -> ?stream:int -> cache_opts -> Toolchain.session
(** The session-scoped state the flags ask for: no cache under
    [--no-cache], a persistent one when a directory is configured,
    memory-only otherwise. *)

val config_of_opts :
  ?jobs:int -> ?compiler:Toolchain.compiler -> ?passes:Vcomp.Pass.options ->
  ?engine:Wcet.Report.engine -> ?stream:int -> cache_opts ->
  Toolchain.config
(** One config from the parsed flags (cache as in {!session_of_opts}). *)

val finalize : Toolchain.config -> unit
(** End of a bench run: print the cache accounting
    ([Report.pp_stats]) to stderr when a cache is on, then apply the
    [--cache-gc-mb] LRU budget to a persistent cache. Never touches
    stdout. *)

val report_session_stats : Service.session -> unit
(** A session's cache accounting on stderr, for a persistent cache
    only. *)
