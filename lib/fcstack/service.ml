(* The persistent compilation service: one warm session, many typed
   requests.

   [run_request] is THE entry point of the toolchain — the batch CLIs
   (fcc/aitw) are one-request in-process clients, the daemon (bin/fcd)
   is an accept loop feeding it, and bench's serve study drives it
   over a real socket. A [session] owns exactly the state that may
   outlive a request (the warm [Wcet.Memo] and the Domain pool width —
   [Toolchain.session]); everything request-scoped
   arrives inside the [Request.t], so requests cannot contaminate each
   other by construction.

   Containment carries over from the batch chain: every failure inside
   [run_request] becomes a [Diag.t] in a [Srefused] response —
   exceptions never cross the service boundary, divergence is refusal,
   never a wrong answer. A refused response still carries whatever
   bytes the batch CLI would have emitted before failing (e.g. the
   assembly of a chain whose differential validation failed), so
   serve == batch holds byte-for-byte on stdout even for victims.

   The session type is abstract in the .mli and the cache handle never
   appears in any response: the only way cached state can influence an
   answer is through the content-addressed [Wcet.Memo] lookup, whose
   key (code, layout, fuel, spec, engine) is unchanged by this layer —
   a warm server hits the very entries a cold batch run wrote. *)

type session = {
  sv_state : Toolchain.session;
  sv_served : int Atomic.t;  (* requests answered (all transports) *)
}

let create ?(state = Toolchain.default_session) () : session =
  { sv_state = state; sv_served = Atomic.make 0 }

let served (s : session) : int = Atomic.get s.sv_served

let jobs (s : session) : int = s.sv_state.Toolchain.ss_jobs

let stats (s : session) : Wcet.Report.analysis_stats option =
  Option.map Wcet.Memo.stats s.sv_state.Toolchain.ss_cache

let store_dir (s : session) : string option =
  Option.bind s.sv_state.Toolchain.ss_cache Wcet.Memo.store_dir

let gc (s : session) : unit =
  Option.iter (fun m -> Wcet.Memo.gc m) s.sv_state.Toolchain.ss_cache

(* ---- the request executor -------------------------------------------- *)

(* fcc's per-file body: parse / compile (which typechecks on entry)
   with per-stage containment, an optional dump of the RTL of that one
   compile (empty unless the compiler is vcomp), optional whole-chain
   differential validation. A request refused by validation keeps its
   partial artifacts: the RTL dump and the assembly. *)
let run_compile (config : Toolchain.config) ~(name : string)
    ~(dump_rtl : bool) ~(validate : bool) ~(exact : bool) (source : string) :
  Response.t =
  let rtl_dump = Buffer.create 64 and notes = Buffer.create 64 in
  let asm = ref "" and stats = ref [] in
  let ( let* ) = Result.bind in
  let outcome : (unit, Diag.t) Result.t =
    let* src =
      Diag.capture ~node:name ~stage:Diag.Parse (fun () ->
          Minic.Parser.parse_program source)
    in
    let* b =
      Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
          Chain.build ~exact
            ~validate:(validate && config.Toolchain.compiler = Toolchain.Cvcomp)
            ~passes:config.Toolchain.passes config.Toolchain.compiler src)
    in
    if dump_rtl then
      List.iter
        (fun f -> Buffer.add_string rtl_dump (Vcomp.Rtl.dump_func f))
        b.Chain.b_rtl;
    asm := Target.Emit.program_to_string b.Chain.b_asm;
    stats := b.Chain.b_pass_stats;
    if validate then
      let* verdict =
        Diag.capture ~node:name ~stage:Diag.Sim (fun () ->
            Chain.validate_chain ?worlds:config.Toolchain.worlds
              ?sim_fuel:config.Toolchain.sim_fuel b)
      in
      match verdict with
      | Ok () ->
        Buffer.add_string notes
          "validation: machine code matches source semantics\n";
        Ok ()
      | Error msg ->
        Error
          (Diag.make ~node:name ~stage:Diag.Sim ("validation FAILED: " ^ msg))
    else Ok ()
  in
  { Response.rs_status =
      (match outcome with Ok () -> Response.Sok | Error _ -> Response.Srefused);
    rs_rtl = Buffer.contents rtl_dump;
    rs_output = !asm;
    rs_notes = Buffer.contents notes;
    rs_annot = None;
    rs_pass_stats = !stats;
    rs_diags = (match outcome with Ok () -> [] | Error d -> [ d ]) }

(* Ported verbatim from aitw's per-file body. The annotation file
   comes back as response *content* ([rs_annot]) — the daemon never
   touches the client's filesystem; the quoted path in the report text
   is request data. *)
let run_analyze (config : Toolchain.config) ~(name : string)
    ~(compare_all : bool) ~(simulate : bool) ~(annot : string option)
    (source : string) : Response.t =
  let out = Buffer.create 1024 in
  let annot_content = ref None in
  let ( let* ) = Result.bind in
  let outcome : (unit, Diag.t) Result.t =
    let* src =
      Diag.capture ~node:name ~stage:Diag.Parse (fun () ->
          Minic.Parser.parse_program source)
    in
    Diag.capture ~node:name ~stage:Diag.Wcet (fun () ->
        let observed_max (b : Chain.built) (seeds : int list) : int =
          let image = Chain.sim_image b in
          List.fold_left
            (fun acc seed ->
               let w = Minic.Interp.seeded_world ~seed () in
               let rr =
                 Target.Sim.exec ?fuel:config.Toolchain.sim_fuel image w []
               in
               max acc rr.Target.Sim.rr_stats.Target.Sim.cycles)
            0 seeds
        in
        let analyze_one (comp : Toolchain.compiler) : unit =
          let b = Chain.build ~passes:config.Toolchain.passes comp src in
          (match annot with
           | Some path ->
             let entries =
               Wcet.Driver.annotations ?cache:config.Toolchain.cache
                 ~fuel:config.Toolchain.analysis_fuel
                 ~spec:b.Chain.b_spec ~engine:config.Toolchain.engine
                 b.Chain.b_asm b.Chain.b_layout
             in
             annot_content := Some (Wcet.Annotfile.render entries);
             Buffer.add_string out
               (Printf.sprintf "annotation file written to %s\n" path)
           | None -> ());
          let report = Chain.wcet ~config b in
          Buffer.add_string out
            (Printf.sprintf "--- %s ---\n" (Chain.compiler_description comp));
          Buffer.add_string out (Wcet.Report.to_string report);
          if simulate then begin
            let m = observed_max b [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
            Buffer.add_string out
              (Printf.sprintf
                 "  max observed      : %d cycles (8 random worlds)\n" m);
            Buffer.add_string out
              (Printf.sprintf "  overestimation    : %+.1f%%\n"
                 (100.0
                  *. (float_of_int report.Wcet.Report.rp_wcet /. float_of_int m
                      -. 1.0)))
          end;
          Buffer.add_char out '\n'
        in
        if compare_all then List.iter analyze_one Chain.all_compilers
        else analyze_one config.Toolchain.compiler)
  in
  { Response.rs_status =
      (match outcome with Ok () -> Response.Sok | Error _ -> Response.Srefused);
    rs_rtl = "";
    rs_output = Buffer.contents out;
    rs_notes = "";
    rs_annot = !annot_content;
    rs_pass_stats = [];
    rs_diags = (match outcome with Ok () -> [] | Error d -> [ d ]) }

(* The liveness probe's answer. Deliberately tiny and side-effect-free:
   supervisors poll it on a schedule, so it must not consume a request
   budget, perturb the served counter the accounting greps pin, or
   touch the toolchain at all. *)
let ping_output (s : session) : string =
  let cache =
    match s.sv_state.Toolchain.ss_cache with
    | None -> "none"
    | Some m ->
      (match Wcet.Memo.store_dir m with Some _ -> "disk" | None -> "memory")
  in
  Printf.sprintf "pong served=%d jobs=%d cache=%s\n" (served s) (jobs s) cache

let run_request (s : session) (rq : Request.t) : Response.t =
  match rq.rq_action with
  | Request.Ping -> Response.ok (ping_output s)
  | Request.Compile _ | Request.Analyze _ ->
    let config = Toolchain.of_session_request s.sv_state rq.rq_opts in
    let dispatch () : Response.t =
      match rq.rq_action with
      | Request.Compile { ac_dump_rtl } ->
        run_compile config ~name:rq.rq_name ~dump_rtl:ac_dump_rtl
          ~validate:rq.rq_validate ~exact:rq.rq_exact rq.rq_source
      | Request.Analyze { an_compare; an_simulate; an_annot } ->
        run_analyze config ~name:rq.rq_name ~compare_all:an_compare
          ~simulate:an_simulate ~annot:an_annot rq.rq_source
      | Request.Ping -> assert false
    in
    let resp =
      (* Deadline enforcement: the check rides the [Wcet.Fuel.tick]
         cancellation points, so expiry surfaces as [Fuel.Expired] —
         which [Diag.of_exn] renders as a Deadline refusal and which,
         by escaping the analysis BEFORE any memoization completes, is
         never cached (a deadline says when an answer stops being
         useful, not what it is). Compile-only requests have no
         fuel-guarded loops, so for them the deadline is checked on
         arrival — a bounded-latency promise for the analysis path,
         an admission check elsewhere. *)
      match rq.rq_deadline_ms with
      | None -> dispatch ()
      | Some ms when ms <= 0 ->
        Response.refused
          [ Diag.make ~node:rq.rq_name ~stage:Diag.Deadline
              "request deadline expired before work began (refusing to \
               answer late)" ]
      | Some ms ->
        let expiry = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
        Wcet.Fuel.with_deadline
          (fun () -> Unix.gettimeofday () > expiry)
          dispatch
    in
    Atomic.incr s.sv_served;
    resp

(* ---- the serve loops -------------------------------------------------- *)

let ignore_sigpipe () : unit =
  (* a peer that hangs up mid-write must surface as EPIPE (handled),
     not kill the process *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let action_name (rq : Request.t) : string =
  match rq.rq_action with
  | Request.Compile _ -> "compile"
  | Request.Analyze _ -> "analyze"
  | Request.Ping -> "ping"

(* Per-request accounting on stderr: the memory/disk/miss DELTA of this
   request, so "0 misses" on a repeat request is the warm-cache proof
   the acceptance criteria grep for. stdout never sees any of this. *)
let log_request (s : session) (rq : Request.t) (resp : Response.t)
    (before : Wcet.Report.analysis_stats option) : unit =
  let cache_note =
    match (before, stats s) with
    | Some b, Some a ->
      Printf.sprintf "%d memory hits, %d disk hits, %d misses"
        (a.Wcet.Report.st_hits - b.Wcet.Report.st_hits)
        (a.Wcet.Report.st_disk_hits - b.Wcet.Report.st_disk_hits)
        (a.Wcet.Report.st_misses - b.Wcet.Report.st_misses)
    | _ -> "no cache"
  in
  Printf.eprintf "fcd: req %d %s %s %s | %s\n%!" (served s) (action_name rq)
    rq.rq_name
    (Response.status_to_string resp.Response.rs_status)
    cache_note

type connection_end = Cend_eof | Cend_shutdown | Cend_budget

(* Serve one connection's frames until the peer says bye / hangs up,
   asks for daemon shutdown, or the request budget runs out. A
   malformed *frame* poisons the stream (err frame, hang up); a
   well-framed malformed *request* costs only that request (err frame,
   keep serving) — the service's containment contract at the protocol
   layer. Frames arrive through [rd] and answers go to [out]; the
   daemon's sockets and --stdio share this loop and this transport. *)
let serve_io ?max_requests ?(log = true) (s : session) (rd : Wire.fd_reader)
    (out : Unix.file_descr) : connection_end =
  let budget_left () =
    match max_requests with None -> true | Some m -> served s < m
  in
  let write ~kind payload = Wire.write_frame out ~kind payload in
  let rec loop () : connection_end =
    if not (budget_left ()) then Cend_budget
    else
      match Wire.read_frame rd with
      | Wire.Eof -> Cend_eof
      | Wire.Bad msg ->
        (try write ~kind:"err" msg with Unix.Unix_error _ -> ());
        Cend_eof
      | Wire.Frame ("bye", _) -> Cend_eof
      | Wire.Frame ("shutdown", _) -> Cend_shutdown
      | Wire.Frame ("req", payload) ->
        (match Request.of_wire payload with
         | Error e ->
           write ~kind:"err" e;
           loop ()
         | Ok rq ->
           let before = stats s in
           let resp = run_request s rq in
           write ~kind:"resp" (Response.to_wire resp);
           if log then log_request s rq resp before;
           loop ())
      | Wire.Frame (kind, _) ->
        write ~kind:"err" (Printf.sprintf "unknown frame kind %S" kind);
        loop ()
  in
  loop ()

let serve_connection ?max_requests ?(log = true) (s : session)
    (inp : Unix.file_descr) (out : Unix.file_descr) : connection_end =
  serve_io ?max_requests ~log s (Wire.fd_reader inp) out

(* Refuse to take over a socket path another live daemon is accepting
   on: a successful connect proves a peer is behind it, and unlinking
   would silently split the client population between two daemons with
   two caches. Anything else (ECONNREFUSED, ENOENT, ...) means the
   file is a stale leftover of a dead daemon — remove and rebind. *)
let claim_socket_path (path : string) : unit =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf
           "socket %s is in use by a live daemon (refusing to unlink it)"
           path);
    try Sys.remove path with Sys_error _ -> ()
  end

(* The daemon accept loop over a Unix-domain socket. [stop] is polled
   between connections and on EINTR, so a SIGTERM handler that sets a
   flag makes the loop wind down cleanly (close, unlink, cache GC at
   the caller). [max_requests] ends the loop after that many requests
   have been answered across all connections — how cram/CI get a
   deterministic daemon exit without PID gymnastics.

   Hardening (all per-connection, the daemon outlives everything):

   - per-connection isolation: ANY escape from a connection — protocol
     poison, a peer that died mid-write (EPIPE), an asynchronous
     exception landing mid-request — costs that connection only; the
     loop logs and keeps accepting.
   - per-read timeout ([read_timeout_ms]): a slow-loris peer that
     commits to a frame and then stalls is poisoned ([Bad]), it cannot
     park the daemon.
   - bounded pending budget: the listen socket is drained into a queue
     whenever it fires — including (via the reader's aux hook) while
     the daemon is blocked mid-read on another connection — and past
     [pending_budget] waiting connections, new arrivals are shed with
     a fast [busy] frame instead of queueing unboundedly. Shedding is
     load control as data: the client sees [Sbusy] and retries. *)
let serve_unix ?max_requests ?(log = true) ?(stop = fun () -> false)
    ?(pending_budget = 16) ?read_timeout_ms (s : session) (path : string) :
  unit =
  ignore_sigpipe ();
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* bind under a private name and rename it to [path] once listening,
     so a client that sees [path] can connect at once: bound directly,
     [path] would exist before [listen] and refuse connects *)
  let staging = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
  (try
     (try Sys.remove staging with Sys_error _ -> ());
     Unix.bind sock (Unix.ADDR_UNIX staging);
     Unix.listen sock (max 16 pending_budget);
     Unix.rename staging path
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (try Sys.remove staging with Sys_error _ -> ());
     raise e);
  Unix.set_nonblock sock;
  if log then Printf.eprintf "fcd: listening on %s\n%!" path;
  let budget_left () =
    match max_requests with None -> true | Some m -> served s < m
  in
  let pending : Unix.file_descr Queue.t = Queue.create () in
  let drain_accept () =
    let continue_ = ref true in
    while !continue_ do
      match Unix.accept sock with
      | fd, _ ->
        if Queue.length pending < pending_budget then Queue.add fd pending
        else begin
          (try
             Wire.write_frame fd ~kind:"busy"
               (Printf.sprintf "server saturated (%d pending connections)"
                  pending_budget)
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if log then
            Printf.eprintf "fcd: shed connection (pending budget %d)\n%!"
              pending_budget
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue_ := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let finished = ref false in
  while (not !finished) && (not (stop ())) && budget_left () do
    if Queue.is_empty pending then begin
      match Unix.select [ sock ] [] [] (-1.0) with
      | _ -> drain_accept ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* a signal landed (SIGTERM): re-check [stop] *)
        ()
    end;
    match Queue.take_opt pending with
    | None -> ()
    | Some fd ->
      let rd = Wire.fd_reader fd in
      Wire.set_read_timeout rd
        (Option.map (fun ms -> float_of_int ms /. 1000.0) read_timeout_ms);
      Wire.set_aux rd (Some (sock, drain_accept));
      let ended =
        try serve_io ?max_requests ~log s rd fd
        with e ->
          (* per-connection isolation: whatever escaped, only this
             connection pays — the daemon keeps serving *)
          if log then
            Printf.eprintf "fcd: connection failed: %s (daemon continues)\n%!"
              (Printexc.to_string e);
          Cend_eof
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match ended with
       | Cend_shutdown | Cend_budget -> finished := true
       | Cend_eof -> ())
  done;
  Queue.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    pending;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ())

(* One connection over stdin/stdout — the shape cram tests drive with
   printf-authored frames, no socket lifecycle involved. *)
let serve_stdio ?max_requests ?(log = true) (s : session) : unit =
  ignore_sigpipe ();
  ignore (serve_connection ?max_requests ~log s Unix.stdin Unix.stdout)

(* ---- the client ------------------------------------------------------- *)

module Client = struct
  type conn = {
    c_fd : Unix.file_descr;
    c_rd : Wire.fd_reader;
  }

  let connect (path : string) : (conn, string) Result.t =
    ignore_sigpipe ();
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with
    | fd -> Ok { c_fd = fd; c_rd = Wire.fd_reader fd }
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

  (* Every failure mode on the way to an answer — broken socket,
     refused frame, undecodable payload, a daemon that never answers
     within [timeout_s] — becomes an [Stransport] response naming the
     request's node: transport failure is data, never an exception,
     and never mistakable for an answer. A [busy] frame (the server
     shed us) becomes [Sbusy]: equally empty, equally retryable, but
     distinguishable — backoff policy may treat overload differently
     from a dead socket. *)
  let request ?timeout_s (c : conn) (rq : Request.t) : Response.t =
    let node = rq.Request.rq_name in
    Wire.set_read_timeout c.c_rd timeout_s;
    match
      Wire.write_frame c.c_fd ~kind:"req" (Request.to_wire rq);
      Wire.read_frame ~idle_timeout:true c.c_rd
    with
    | Wire.Frame ("resp", payload) ->
      (match Response.of_wire payload with
       | Ok r -> r
       | Error e ->
         Response.transport ~node ("undecodable response: " ^ e))
    | Wire.Frame ("busy", msg) ->
      Response.busy ~node ("daemon shed the connection: " ^ msg)
    | Wire.Frame ("err", msg) ->
      Response.transport ~node ("daemon refused the frame: " ^ msg)
    | Wire.Frame (kind, _) ->
      Response.transport ~node
        (Printf.sprintf "unexpected frame kind %S" kind)
    | Wire.Eof -> Response.transport ~node "connection closed by daemon"
    | Wire.Bad msg -> Response.transport ~node ("protocol error: " ^ msg)
    | exception Unix.Unix_error (e, _, _) ->
      Response.transport ~node (Unix.error_message e)

  let close (c : conn) : unit =
    (try Wire.write_frame c.c_fd ~kind:"bye" ""
     with Unix.Unix_error _ -> ());
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()

  let shutdown (c : conn) : unit =
    (try Wire.write_frame c.c_fd ~kind:"shutdown" ""
     with Unix.Unix_error _ -> ());
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
end

(* ---- child-process plumbing ------------------------------------------ *)

(* How the chaos harness and perfbench spawn a real [fcd] child. *)

let daemon_argv ~(exe : string) ~(socket : string) ?cache_dir ?gc_mb
    ?max_requests ?jobs ?pending_budget ?read_timeout_ms () : string list =
  (exe :: [ "--socket"; socket ])
  @ (match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [])
  @ (match gc_mb with Some m -> [ "--cache-gc-mb"; string_of_int m ] | None -> [])
  @ (match max_requests with
     | Some n -> [ "--max-requests"; string_of_int n ]
     | None -> [])
  @ (match jobs with Some j -> [ "-j"; string_of_int j ] | None -> [])
  @ (match pending_budget with
     | Some n -> [ "--pending-budget"; string_of_int n ]
     | None -> [])
  @ (match read_timeout_ms with
     | Some n -> [ "--read-timeout-ms"; string_of_int n ]
     | None -> [])

let spawn ?stderr_to (argv : string list) : int =
  let arr = Array.of_list argv in
  let stderr_fd = Option.value stderr_to ~default:Unix.stderr in
  Unix.create_process arr.(0) arr Unix.stdin Unix.stdout stderr_fd

let wait_for_path ?(timeout_s = 10.0) (path : string) : bool =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Sys.file_exists path then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* Locate a sibling binary (e.g. fcd) from inside the dune _build tree:
   test and bench executables live one directory over from bin/. *)
let sibling_exe (name : string) : string option =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir name;
      Filename.concat dir (Filename.concat ".." (Filename.concat "bin" name))
    ]
  in
  List.find_opt Sys.file_exists candidates
