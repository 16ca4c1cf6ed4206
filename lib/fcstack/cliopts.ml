(* The one flag surface and the one client of the toolchain CLIs.
   bench, fcc, aitw and fcd splice the same Cmdliner terms, so the
   surfaces cannot drift; fcc and aitw also share one record of their
   common flags ([term]) and one client loop ([run_client]): local or
   served execution, retry, fallback, --fail-fast, the failure summary
   and the exit code. *)

open Cmdliner

type cache_opts = {
  co_no_cache : bool;
  co_dir : string option;
  co_gc_mb : int option;
}

let no_cache_arg : bool Term.t =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the shared WCET-analysis cache (memory and disk). \
           Results are byte-identical with and without it; this only \
           trades wall clock for memory.")

let cache_dir_arg : string option Term.t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "FCSTACK_CACHE_DIR")
        ~doc:
          "Persist the WCET-analysis cache under $(docv), shared across \
           runs and across concurrent processes (crash-safe writes; \
           corrupted or stale entries silently re-analyze). Results are \
           byte-identical with and without it.")

let cache_gc_mb_arg : int option Term.t =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-gc-mb" ] ~docv:"MB"
        ~doc:
          "Bound the on-disk cache to $(docv) MiB: least-recently-used \
           entries are evicted at the end of the run. Requires \
           $(b,--cache-dir).")

let cache_term : cache_opts Term.t =
  Term.(
    const (fun co_no_cache co_dir co_gc_mb -> { co_no_cache; co_dir; co_gc_mb })
    $ no_cache_arg $ cache_dir_arg $ cache_gc_mb_arg)

let jobs_term ~(doc : string) : int Term.t =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let fail_fast_term : bool Term.t =
  Arg.(
    value & flag
    & info [ "fail-fast" ]
        ~doc:
          "Stop at the first failing input (in input order): it is the \
           last one emitted, no later input is run, and the run exits \
           2. Without this flag a failure is contained to its input and \
           the rest complete. Inputs before the failure produce \
           byte-identical output either way.")

(* ---- optimization pipeline selection (-O / --passes) ---- *)

(* [--passes] parses through [Vcomp.Pass.of_spec], so an unknown pass
   name is a Cmdliner parse error (exit 124) before any work runs —
   the CLIs never fall back to a different pipeline silently. *)
let passes_conv : Vcomp.Pass.options Cmdliner.Arg.conv =
  let parse (s : string) =
    match Vcomp.Pass.of_spec s with
    | Ok o -> Ok o
    | Error e -> Error (`Msg e)
  in
  let print fmt (o : Vcomp.Pass.options) =
    Format.pp_print_string fmt (Vcomp.Pass.spec o)
  in
  Arg.conv (parse, print)

let opt_level_arg : int Term.t =
  Arg.(
    value
    & opt int 2
    & info [ "O"; "opt-level" ] ~docv:"N"
        ~doc:
          "vcomp middle-end optimization level: 0 turns every pass \
           off, 1 is the paper's CompCert 1.7 pipeline (constant \
           propagation, local CSE, dead-code elimination), 2 (the \
           default) adds global value numbering and loop-invariant \
           code motion. Each enabled pass is checked by its \
           translation validator only under fcc's --validate. Only the \
           vcomp configuration consults this.")

let passes_arg : Vcomp.Pass.options option Term.t =
  Arg.(
    value
    & opt (some passes_conv) None
    & info [ "passes" ] ~docv:"LIST"
        ~doc:
          "Exact vcomp pass selection as a comma-separated list drawn \
           from constprop, cse, gvn, licm, deadcode — or $(b,none). \
           Overrides $(b,-O). An optional $(i,#FUEL) suffix bounds the \
           analysis work per pass (exhaustion skips the pass, never \
           miscompiles).")

let passes_term : Vcomp.Pass.options Term.t =
  Term.(
    const (fun level passes ->
        match passes with
        | Some o -> o
        | None -> Vcomp.Pass.level level)
    $ opt_level_arg $ passes_arg)

(* ---- streaming execution shape (--stream / --shard-size) ---- *)

let stream_arg : bool Term.t =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Stream the workload shard by shard through the Domain pool \
           (bounded resident shards, flat memory in the workload size) \
           instead of materializing it up front. Output is \
           byte-identical to the batch path on every jobs/cache/engine \
           combination; this only picks an execution shape.")

let shard_size_arg : int option Term.t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-size" ] ~docv:"N"
        ~doc:
          "Nodes per streamed shard (default 256). Implies \
           $(b,--stream). Any positive value produces the same output \
           bytes; smaller shards lower peak memory, larger shards \
           amortize scheduling.")

let stream_term : int option Term.t =
  Term.(
    const (fun stream shard_size ->
        if (not stream) && shard_size = None then None
        else
          Some
            (max 1
               (Option.value shard_size
                  ~default:Scade.Workload.default_shard_size)))
    $ stream_arg $ shard_size_arg)

(* ---- WCET path-engine selection (--engine) ---- *)

(* [--engine] parses through [Request.engine_of_string] (the request
   surface's name map), so an unknown engine name is a Cmdliner parse
   error (exit 124) before any work runs — never a silent fallback to
   a different engine. *)
let engine_conv : Wcet.Report.engine Cmdliner.Arg.conv =
  let parse (s : string) =
    match Request.engine_of_string s with
    | Ok e -> Ok e
    | Error e -> Error (`Msg e)
  in
  let print fmt (e : Wcet.Report.engine) =
    Format.pp_print_string fmt (Request.engine_to_string e)
  in
  Arg.conv (parse, print)

let engine_term : Wcet.Report.engine Term.t =
  Arg.(
    value
    & opt engine_conv Wcet.Report.Ipet
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "WCET path-analysis engine: $(b,ipet) (the default \
           structural ILP), $(b,omt) (optimization-modulo-theory: the \
           same flow system plus semantic infeasible-path cuts, never \
           looser than ipet), or $(b,both) (run both and refuse \
           unless omt <= ipet holds on every node — the differential \
           oracle). The engine is part of the analysis-cache key, so \
           engines never share cache entries.")

(* [-c] parses through [Request.compiler_of_string]: an unknown
   configuration name is a Cmdliner parse error (exit 124) before any
   work runs, same contract as --passes and --engine — the CLIs used
   to parse this by hand and exit 2 after argument parsing. *)
let compiler_conv : Toolchain.compiler Cmdliner.Arg.conv =
  let parse (s : string) =
    match Request.compiler_of_string s with
    | Ok c -> Ok c
    | Error e -> Error (`Msg e)
  in
  let print fmt (c : Toolchain.compiler) =
    Format.pp_print_string fmt (Request.compiler_to_string c)
  in
  Arg.conv (parse, print)

let compiler_term : Toolchain.compiler Term.t =
  Arg.(
    value
    & opt compiler_conv Toolchain.Cvcomp
    & info [ "c"; "compiler" ] ~docv:"COMPILER"
        ~doc:"Configuration: $(b,o0), $(b,o1), $(b,o2) or $(b,vcomp).")

let connect_term : string option Term.t =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Send the work to a running $(b,fcd) daemon at $(docv) \
           instead of compiling in-process. Output bytes are identical \
           to the in-process run; the daemon's warm analysis cache \
           only changes wall clock. A transport failure is reported \
           per input file and never mistaken for an answer.")

(* ---- resilience flags (deadline, retry, local fallback) ---- *)

let deadline_ms_term : int option Term.t =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request wall-clock deadline. A request the server (or \
           the in-process session) cannot answer within $(docv) \
           milliseconds is refused with a deadline diagnostic — never \
           a partial or late answer, and never cached. Clients also \
           bound their wait on the daemon accordingly.")

let retries_arg : int Term.t =
  Arg.(
    value
    & opt int Retry.default.Retry.r_attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts per request over $(b,--connect) (default 3). \
           Only transport failures and busy-shed requests are retried \
           — a refusal is the answer and is never re-issued. Safe \
           because requests are pure functions of request + store.")

let retry_base_ms_arg : int Term.t =
  Arg.(
    value
    & opt int Retry.default.Retry.r_base_ms
    & info [ "retry-base-ms" ] ~docv:"MS"
        ~doc:
          "Backoff before the second attempt (default 100); doubles \
           per attempt with seeded jitter, capped.")

let retry_seed_arg : int Term.t =
  Arg.(
    value
    & opt int Retry.default.Retry.r_seed
    & info [ "retry-seed" ] ~docv:"SEED"
        ~doc:
          "Jitter seed for the retry backoff schedule (default 0). \
           The schedule is a pure function of the policy, so a seed \
           pins it exactly.")

let retry_term : Retry.policy Term.t =
  Term.(
    const (fun attempts base seed ->
        { Retry.default with
          Retry.r_attempts = max 1 attempts;
          r_base_ms = max 0 base;
          r_seed = seed })
    $ retries_arg $ retry_base_ms_arg $ retry_seed_arg)

let fallback_local_term : bool Term.t =
  Arg.(
    value & flag
    & info [ "fallback-local" ]
        ~doc:
          "With $(b,--connect): if the daemon is unreachable (connect \
           failure, or a request still failing on transport/busy after \
           its retries), degrade to in-process execution instead of \
           reporting a transport failure. Output bytes are identical \
           to a pure $(b,--connect) or pure in-process run; a stderr \
           note records each degradation.")

(* ---- the common flags of fcc and aitw, as one record ---- *)

type t = {
  cl_opts : Toolchain.request_opts;
  cl_jobs : int;
  cl_fail_fast : bool;
  cl_connect : string option;
  cl_deadline_ms : int option;
  cl_retry : Retry.policy;
  cl_fallback_local : bool;
  cl_cache : cache_opts;
}

let term ~(jobs_doc : string) : t Term.t =
  Term.(
    const
      (fun compiler passes engine cl_jobs cl_fail_fast cl_connect
        cl_deadline_ms cl_retry cl_fallback_local cl_cache ->
        { cl_opts = Toolchain.request_opts ~compiler ~passes ~engine ();
          cl_jobs; cl_fail_fast; cl_connect; cl_deadline_ms; cl_retry;
          cl_fallback_local; cl_cache })
    $ compiler_term $ passes_term $ engine_term $ jobs_term ~doc:jobs_doc
    $ fail_fast_term $ connect_term $ deadline_ms_term $ retry_term
    $ fallback_local_term $ cache_term)

let memo_of_opts (o : cache_opts) : Wcet.Memo.t option =
  if o.co_no_cache then None
  else Some (Wcet.Memo.create ?dir:o.co_dir ?gc_mb:o.co_gc_mb ())

let session_of_opts ?jobs ?stream (o : cache_opts) : Toolchain.session =
  Toolchain.session ?jobs ?cache:(memo_of_opts o) ?stream ()

let config_of_opts ?jobs ?compiler ?passes ?engine ?stream (o : cache_opts) :
  Toolchain.config =
  Toolchain.of_session_request
    (session_of_opts ?jobs ?stream o)
    (Toolchain.request_opts ?compiler ?passes ?engine ())

(* Cache accounting on stderr whenever a cache is on, then the GC
   budget. The GC is deliberately last: the LRU index then reflects
   this run's hits, and a kill -9 before this point only leaves the
   store oversized until the next completed run. stdout never sees
   any of this. *)
let finalize (config : Toolchain.config) : unit =
  Option.iter
    (fun m ->
       Format.eprintf "%a@." Wcet.Report.pp_stats (Wcet.Memo.stats m);
       Wcet.Memo.gc m)
    config.Toolchain.cache

(* A service session's cache accounting, printed only for a persistent
   cache (opting into --cache-dir opts into the stats line). *)
let report_session_stats (s : Service.session) : unit =
  match Service.stats s with
  | Some st when Service.store_dir s <> None ->
    Format.eprintf "%a@." Wcet.Report.pp_stats st
  | Some _ | None -> ()

(* ---- the client of fcc and aitw ---- *)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_client ~(tool : string) (o : t) ~(stream : int option)
    ~(request : string -> string -> Request.t)
    ~(emit : Response.t -> unit)
    ~(finish : Service.session option -> (unit -> int) -> int)
    (files : string list) : int =
  let new_session () =
    Service.create
      ~state:(session_of_opts ~jobs:o.cl_jobs o.cl_cache)
      ()
  in
  (* One file -> one request -> one response, through [exec]. A
     file-read failure never reaches the service: it is a refusal right
     here, naming the file and the Parse stage. *)
  let run_file (exec : Request.t -> Response.t) (file : string) : Response.t =
    match
      Diag.capture ~node:file ~stage:Diag.Parse (fun () -> read_file file)
    with
    | Error d -> Response.refused [ d ]
    | Ok source -> exec (request file source)
  in
  let diags = ref [] and emitted = ref 0 in
  (* diagnostics and the failure summary are stderr-only: stdout is
     byte-identical across cache/jobs/stream configurations. The
     summary counts the responses emitted: with --fail-fast, the files
     after the first failure never ran. *)
  let summarize () : int =
    let diags = List.rev !diags and total = !emitted in
    Diag.print_summary ~total diags;
    if o.cl_fail_fast && diags <> [] then 2
    else Diag.exit_code ~total ~failed:(List.length diags)
  in
  (* The one traversal of both transports: every file is a task of one
     [Par.fold], and emission is strictly in input order, so output is
     byte-identical across -j, --stream and transports. With
     --fail-fast, a failing file lowers [first_failure] to its index;
     a file above it is never run, and nothing above it is emitted. *)
  let first_failure = Atomic.make max_int in
  let rec lower (i : int) : unit =
    let m = Atomic.get first_failure in
    if i < m && not (Atomic.compare_and_set first_failure m i) then lower i
  in
  let traverse ~jobs (exec : Request.t -> Response.t) : unit =
    let task i file () =
      if i > Atomic.get first_failure then None
      else begin
        let r = run_file exec file in
        if o.cl_fail_fast && r.Response.rs_status <> Response.Sok then lower i;
        Some r
      end
    in
    Par.fold ~jobs ?stream
      (Array.of_list (List.mapi task files))
      ~consumer:(fun () i r ->
          match r with
          | Some r when i <= Atomic.get first_failure ->
            emit r;
            incr emitted;
            diags := List.rev_append r.Response.rs_diags !diags
          | Some _ | None -> ())
      ~init:()
  in
  match o.cl_connect with
  | None ->
    let session = new_session () in
    traverse ~jobs:(Service.jobs session) (Service.run_request session);
    let code = finish (Some session) summarize in
    Service.gc session;
    code
  | Some socket ->
    (* Client of a running daemon: one connection, so one job and
       requests in input order (the protocol is serial per connection).
       Each request runs under the retry policy — transport/busy
       failures reconnect and re-issue (sound: requests are pure
       functions of request + store), refusals are final. With
       --fallback-local, a request that exhausts its retries (or a
       daemon that can't be reached at all) degrades to in-process
       execution of the SAME request, so stdout stays byte-identical. *)
    let retried = ref 0 and extra = ref 0 in
    (* client-side wait bound: the server enforces the deadline, the
       grace covers transit and the compile path's entry-only check *)
    let timeout_s =
      Option.map (fun ms -> (float_of_int ms /. 1000.0) +. 2.0)
        o.cl_deadline_ms
    in
    let conn = ref None in
    let get_conn () =
      match !conn with
      | Some c -> Ok c
      | None ->
        Result.map
          (fun c ->
             conn := Some c;
             c)
          (Service.Client.connect socket)
    in
    let drop_conn () =
      Option.iter Service.Client.close !conn;
      conn := None
    in
    let local_session = lazy (new_session ()) in
    let exec (rq : Request.t) : Response.t =
      let r, attempts =
        Retry.run ~policy:o.cl_retry (fun ~attempt:_ ->
            match get_conn () with
            | Error msg -> Response.transport ~node:rq.Request.rq_name msg
            | Ok c ->
              let r = Service.Client.request ?timeout_s c rq in
              (* a poisoned/berserk connection must not leak into the
                 next attempt or the next file *)
              if Retry.should_retry r.Response.rs_status then drop_conn ();
              r)
      in
      if attempts > 1 then begin
        incr retried;
        extra := !extra + (attempts - 1)
      end;
      if o.cl_fallback_local && Retry.should_retry r.Response.rs_status
      then begin
        Printf.eprintf
          "%s: daemon unreachable for %s; falling back to local execution\n%!"
          tool rq.Request.rq_name;
        Service.run_request (Lazy.force local_session) rq
      end
      else r
    in
    (match get_conn () with
     | Error msg when not o.cl_fallback_local ->
       prerr_endline msg;
       2
     | Error _ | Ok _ ->
       (* a connect failure with --fallback-local just means the first
          request's attempts fail fast and degrade *)
       traverse ~jobs:1 exec;
       drop_conn ();
       let code = finish None summarize in
       (* cumulative retry accounting, stderr-only, printed only when
          a retry happened so retry-free runs keep a clean stderr *)
       if !retried > 0 then
         Printf.eprintf "%s: retried %d request(s) (%d extra attempt(s))\n%!"
           tool !retried !extra;
       code)
