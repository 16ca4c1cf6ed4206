(* Deterministic chaos harness for the fault-isolated pipeline.

   The harness takes a fault-free workload, injects a seeded, exactly
   reproducible set of per-node faults, and re-runs the chain under a
   matrix of legs: one table in [run], each row a name, a setup and
   the plan it is checked against. In-process rows vary the execution
   shape and the cache (sequential/parallel, batch/stream, cacheless/
   shared/corrupted persistent store); daemon rows drive a real fcd
   child through one harness. It then *proves* the containment
   contract rather than eyeballing it:

     - every non-victim node's result is byte-identical to the
       fault-free reference run;
     - the diagnostics name exactly the victim nodes, each at the
       expected stage;
     - the exit code classifies the run (0 all ok / 1 partial / 2
       total failure);
     - a truncated persistent store causes ZERO failures — store
       corruption is a cache miss, never an error.

   Faults are injected at the mini-C source level (so every chain
   stage downstream is exercised for real) or through the per-node
   config (starved analysis fuel). All randomness flows from one
   [Random.State] seeded by the caller: the same seed always picks the
   same victims with the same faults. *)

type fault =
  | Fcorrupt_source  (* undeclared-variable write: fails typecheck *)
  | Frefusal         (* unbounded volatile-driven loop: analyzer refuses *)
  | Ffuel            (* starved analysis fuel: "analysis diverged" refusal *)

let fault_name = function
  | Fcorrupt_source -> "corrupt-source"
  | Frefusal -> "refusal"
  | Ffuel -> "fuel-exhaustion"

(* The stage at which each fault must surface as a diagnostic. *)
let expected_stage = function
  | Fcorrupt_source -> Diag.Typecheck
  | Frefusal | Ffuel -> Diag.Wcet

type plan = (int * fault) list  (* victim node index -> injected fault *)

(* Pick [victims] distinct node indices and a fault for each, entirely
   determined by [seed]. Victims cycle through all three fault kinds so
   every run exercises every containment path. *)
let make_plan ~(seed : int) ~(nodes : int) ~(victims : int) : plan =
  let rng = Random.State.make [| seed; nodes; victims |] in
  let victims = min victims (max 0 (nodes - 1)) in
  let chosen = Hashtbl.create 8 in
  let rec pick () =
    let i = Random.State.int rng nodes in
    if Hashtbl.mem chosen i then pick () else (Hashtbl.add chosen i (); i)
  in
  List.init victims (fun k ->
      let kinds = [| Fcorrupt_source; Frefusal; Ffuel |] in
      (pick (), kinds.(k mod Array.length kinds)))
  |> List.sort compare

(* ---- source-level fault injectors ----------------------------------- *)

let map_main (src : Minic.Ast.program)
    (f : Minic.Ast.func -> Minic.Ast.func) : Minic.Ast.program =
  { src with
    Minic.Ast.prog_funcs =
      List.map
        (fun fn ->
           if fn.Minic.Ast.fn_name = src.Minic.Ast.prog_main then f fn else fn)
        src.Minic.Ast.prog_funcs }

(* A write to a variable no scope declares: the typechecker rejects the
   program, exercising the earliest containment stage. *)
let corrupt_source (src : Minic.Ast.program) : Minic.Ast.program =
  map_main src (fun fn ->
      { fn with
        Minic.Ast.fn_body =
          Minic.Ast.Sseq
            ( fn.Minic.Ast.fn_body,
              Minic.Ast.Sassign ("__chaos_undeclared", Minic.Ast.Econst_int 0l)
            ) })

(* A loop whose trip count depends on a volatile acquisition: the value
   analysis knows nothing about the signal, so the bound analysis finds
   no loop bound and the analyzer *refuses* — a genuine aiT-style
   analysis failure, not a crash. The program still typechecks. *)
let inject_refusal (src : Minic.Ast.program) : Minic.Ast.program =
  let open Minic.Ast in
  let src =
    { src with
      prog_volatiles = ("__chaos_sig", Tint, Vol_in) :: src.prog_volatiles }
  in
  map_main src (fun fn ->
      let loop =
        Sseq
          ( Sassign ("__chaos_i", Evolatile "__chaos_sig"),
            Swhile
              ( Ebinop (Ocmp Cgt, Evar "__chaos_i", Econst_int 0l),
                Sassign
                  ("__chaos_i", Ebinop (Oadd, Evar "__chaos_i", Econst_int 1l))
              ) )
      in
      { fn with
        fn_locals = ("__chaos_i", Tint) :: fn.fn_locals;
        fn_body = Sseq (loop, fn.fn_body) })

let apply_fault (f : fault) (src : Minic.Ast.program) : Minic.Ast.program =
  match f with
  | Fcorrupt_source -> corrupt_source src
  | Frefusal -> inject_refusal src
  | Ffuel -> src  (* injected through the per-node config, not the source *)

(* ---- result canonicalization ---------------------------------------- *)

(* Canonical byte rendering of one node's full chain output; the
   containment contract is stated as string equality of these. *)
let render_result (r : Par.node_result) : string =
  Printf.sprintf "node %s\nwcet %d\nvalidation %s\n%s" r.Par.pn_name
    r.Par.pn_wcet
    (match r.Par.pn_validation with
     | Ok () -> "ok"
     | Error m -> "FAIL " ^ m)
    (Target.Emit.program_to_string r.Par.pn_asm)

(* ---- the in-process runner ------------------------------------------ *)

(* Run the named workload with [plan]'s faults injected: source faults
   rewrite the victim's program, [Ffuel] starves its analysis budget.
   The leg's config picks the execution shape ([jobs] domains, one
   shard or shards of [config.stream] nodes): containment must be
   shape-blind, so a fault in the middle of a shard may not disturb
   any other node, in its shard or out of it. *)
let run_workload ~(plan : plan) ~(config : Toolchain.config)
    (named : (string * Minic.Ast.program) list) :
  (Par.node_result, Diag.t) Result.t list =
  let task i (name, src) () =
    match List.assoc_opt i plan with
    | None -> Par.chain_node ~config name src
    | Some fault ->
      let config =
        if fault = Ffuel then
          { config with Toolchain.analysis_fuel = Wcet.Fuel.starved }
        else config
      in
      Par.chain_node ~config name (apply_fault fault src)
  in
  List.rev
    (Par.fold ~jobs:config.Toolchain.jobs ?stream:config.Toolchain.stream
       (Array.of_list (List.mapi task named))
       ~consumer:(fun acc _ r -> r :: acc) ~init:[])

let has_sub (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Check one leg's outcomes against the reference renderings and the
   plan; returns the violations (empty = contract holds). *)
let check_leg ~(plan : plan) ~(reference : string array)
    (named : (string * Minic.Ast.program) list) (leg_name : string)
    (outcomes : (Par.node_result, Diag.t) Result.t list) : string list =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := (leg_name ^ ": " ^ s) :: !problems) fmt in
  List.iteri
    (fun i outcome ->
       let name = fst (List.nth named i) in
       match List.assoc_opt i plan, outcome with
       | None, Ok r ->
         if render_result r <> reference.(i) then
           bad "survivor %s diverged from the fault-free run" name
       | None, Error d ->
         bad "non-victim %s failed: %s" name (Diag.to_string d)
       | Some fault, Error d ->
         if d.Diag.d_node <> name then
           bad "diagnostic for %s names node %s" name d.Diag.d_node;
         if d.Diag.d_stage <> expected_stage fault then
           bad "%s fault on %s surfaced at stage %s, expected %s"
             (fault_name fault) name
             (Diag.stage_name d.Diag.d_stage)
             (Diag.stage_name (expected_stage fault));
         if fault = Ffuel && not (has_sub d.Diag.d_message "diverged") then
           bad "fuel exhaustion on %s not reported as divergence: %s" name
             d.Diag.d_message
       | Some fault, Ok _ ->
         bad "%s fault on %s went undetected" (fault_name fault) name)
    outcomes;
  let failed = List.length (Diag.errors_of outcomes) in
  let code = Diag.exit_code ~total:(List.length outcomes) ~failed in
  let expected_code = if plan = [] then 0 else 1 in
  if code <> expected_code then
    bad "exit code %d, expected %d (%d/%d failed)" code expected_code failed
      (List.length outcomes);
  List.rev !problems

(* Truncate every entry of a persistent store to half its size —
   simulating a crash mid-write or disk corruption. Recursive: store
   entries may live in subdirectories. *)
let rec truncate_store (dir : string) : unit =
  Array.iter
    (fun f ->
       let path = Filename.concat dir f in
       if Sys.is_directory path then truncate_store path
       else begin
         let ic = open_in_bin path in
         let len = in_channel_length ic in
         let keep = len / 2 in
         let buf = really_input_string ic keep in
         close_in ic;
         let oc = open_out_bin path in
         output_string oc buf;
         close_out oc
       end)
    (Sys.readdir dir)

(* Pre-create every 2-hex fan-out slot of a store directory as a
   regular FILE: every entry write then fails (ENOTDIR under the slot)
   and every load misses — a persistent-store write failure without
   filling a disk. *)
let clog_store (dir : string) : unit =
  let hex = "0123456789abcdef" in
  String.iter
    (fun a ->
       String.iter
         (fun b ->
            close_out (open_out (Filename.concat dir (Printf.sprintf "%c%c" a b))))
         hex)
    hex

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else Sys.remove path

(* Every leg runs in a fresh directory named by leg and pid, so two
   concurrent runs never share one; it is removed on every path out. *)
let with_temp_dir ~(leg : string) (f : string -> 'a) : 'a =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fcchaos-%s-%d"
         (String.map (function '/' -> '-' | c -> c) leg)
         (Unix.getpid ()))
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- the daemon harness --------------------------------------------- *)

(* A running fcd child as a daemon leg sees it. *)
type daemon = {
  socket : string;
  bad : string -> unit;     (* record a containment violation *)
  signal : int -> unit;     (* signal the running daemon *)
  kill : unit -> unit;      (* SIGKILL and reap it, clear its stale socket *)
  restart : unit -> unit;   (* [kill], then start a fresh daemon on the
                               same socket and store *)
}

(* Spawn a daemon in the leg's directory (with a disk store under it
   when [store]), run [body] against it, then shut it down and *check
   the exit status*: nothing a hostile peer did during the leg may leak
   into the daemon's exit — a daemon that dies nonzero from a contained
   connection failure is itself a containment violation. A daemon that
   cannot be spawned, a [body] that raises, and a daemon that ignores
   both the shutdown frame and SIGTERM for 10 s are reported as
   problems, never escape or hang the harness. *)
let with_fcd ~(fcd_exe : string) ?(store = false) ?pending_budget
    ?read_timeout_ms (body : daemon -> unit) ~(leg : string) ~(dir : string) :
  string list =
  (* raw hostile writes against a daemon that already hung up must
     surface as EPIPE, not kill the harness *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let problems = ref [] in
  let bad s = problems := (leg ^ ": " ^ s) :: !problems in
  let socket = Filename.concat dir "fcd.sock" in
  let cache_dir = if store then Some (Filename.concat dir "store") else None in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid = ref (-1) in
  let start () =
    pid :=
      Service.spawn ~stderr_to:devnull
        (Service.daemon_argv ~exe:fcd_exe ~socket ?cache_dir ?pending_budget
           ?read_timeout_ms ());
    if not (Service.wait_for_path socket) then
      bad "daemon socket never appeared"
  in
  let signal s =
    if !pid > 0 then try Unix.kill !pid s with Unix.Unix_error _ -> ()
  in
  let kill () =
    if !pid > 0 then begin
      signal Sys.sigkill;
      (try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ());
      pid := -1
    end;
    (* SIGKILL never unlinks the socket; clear it so a restart's
       [wait_for_path] waits for the NEW daemon's bind *)
    try Sys.remove socket with Sys_error _ -> ()
  in
  let d = { socket; bad; signal; kill; restart = (fun () -> kill (); start ()) } in
  (match start () with
   | exception e -> bad ("cannot start the daemon: " ^ Printexc.to_string e)
   | () ->
     (try body d with e -> bad ("leg raised: " ^ Printexc.to_string e));
     (* clean shutdown, and the daemon must exit 0 *)
     (match Service.Client.connect socket with
      | Ok c -> Service.Client.shutdown c
      | Error msg ->
        bad ("cannot connect for shutdown: " ^ msg);
        signal Sys.sigterm);
     if !pid > 0 then begin
       let deadline = Unix.gettimeofday () +. 10.0 in
       let rec reap () =
         match Unix.waitpid [ Unix.WNOHANG ] !pid with
         | 0, _ when Unix.gettimeofday () > deadline ->
           bad "daemon did not exit within 10s of shutdown; killed";
           kill ()
         | 0, _ ->
           Unix.sleepf 0.02;
           reap ()
         | _, Unix.WEXITED 0 -> ()
         | _, Unix.WEXITED n ->
           bad (Printf.sprintf "daemon exited %d after the leg" n)
         | _, _ -> bad "daemon died on a signal after the leg"
       in
       try reap () with Unix.Unix_error _ -> ()
     end);
  (try Unix.close devnull with Unix.Unix_error _ -> ());
  List.rev !problems

let raw_connect (socket : string) : Unix.file_descr option =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let raw_send (fd : Unix.file_descr) (s : string) : bool =
  let b = Bytes.of_string s in
  match
    let pos = ref 0 in
    while !pos < Bytes.length b do
      pos := !pos + Unix.write fd b !pos (Bytes.length b - !pos)
    done
  with
  | () -> true
  | exception Unix.Unix_error _ -> false

let raw_reader ?(timeout_s = 10.0) (fd : Unix.file_descr) : Wire.fd_reader =
  let rd = Wire.fd_reader fd in
  Wire.set_read_timeout rd (Some timeout_s);
  rd

let frame_desc : Wire.frame -> string = function
  | Wire.Frame (k, _) -> Printf.sprintf "a %S frame" k
  | Wire.Eof -> "EOF"
  | Wire.Bad m -> Printf.sprintf "protocol error %S" m

let raw_close (fd : Unix.file_descr) : unit =
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Hostile bytes on a raw connection: connect, send [payload], hand the
   socket and a reader to [k], close. *)
let raw (d : daemon) ~(what : string) ?timeout_s (payload : string)
    (k : Unix.file_descr -> Wire.fd_reader -> unit) : unit =
  match raw_connect d.socket with
  | None -> d.bad ("connect for " ^ what ^ " failed")
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> raw_close fd)
      (fun () ->
         if raw_send fd payload then k fd (raw_reader ?timeout_s fd)
         else d.bad ("could not send " ^ what))

(* The next frame must be an [err] frame whose message contains [sub]. *)
let expect_err (d : daemon) ~(what : string) ?(sub = "")
    (rd : Wire.fd_reader) : unit =
  match Wire.read_frame ~idle_timeout:true rd with
  | Wire.Frame ("err", msg) ->
    if not (has_sub msg sub) then
      d.bad (Printf.sprintf "%s refused with unexpected message: %s" what msg)
  | f ->
    d.bad
      (Printf.sprintf "%s answered with %s, expected an err frame" what
         (frame_desc f))

(* One (request, cold-batch expectation) the daemon legs replay to
   prove the daemon still answers correctly after the hostility. *)
type probe = { pr_name : string; pr_rq : Request.t; pr_expect : string }

(* Every node as an analyze request, with its answer from a cold
   in-process batch session. *)
let cold_probes ~(engine : Wcet.Report.engine)
    (named : (string * Minic.Ast.program) list) : probe list =
  let opts = Toolchain.request_opts ~engine () in
  let s = Service.create () in
  List.map
    (fun (name, src) ->
       let rq =
         Request.make ~name
           ~action:
             (Request.Analyze
                { an_compare = false; an_simulate = false; an_annot = None })
           ~opts
           (Minic.Pp.program_to_string src)
       in
       { pr_name = name;
         pr_rq = rq;
         pr_expect = (Service.run_request s rq).Response.rs_output })
    named

(* One request on a fresh connection; a failed connect is a transport
   failure, like any other. *)
let ask (d : daemon) (p : probe) : Response.t =
  match Service.Client.connect d.socket with
  | Error msg -> Response.transport ~node:p.pr_name msg
  | Ok c ->
    let r = Service.Client.request ~timeout_s:60.0 c p.pr_rq in
    Service.Client.close c;
    r

(* [r] must be an ok answer byte-identical to the cold batch run. *)
let expect_answer (d : daemon) ~(what : string) (p : probe)
    (r : Response.t) : unit =
  if r.Response.rs_status <> Response.Sok then
    d.bad
      (Printf.sprintf "%s %s not ok (%s)" what p.pr_name
         (Response.status_to_string r.Response.rs_status))
  else if r.Response.rs_output <> p.pr_expect then
    d.bad
      (Printf.sprintf "%s %s diverged from the cold batch reference" what
         p.pr_name)

(* ---- daemon legs ----------------------------------------------------- *)

(* The workload over one long-lived connection, SIGKILLing the daemon
   under two seeded requests: the in-flight request surfaces as a
   transport failure (never a wrong answer), the retry against a daemon
   restarted on the same socket and disk store succeeds, and every
   answer is byte-identical to the cold batch run — the store survives
   the kill uncorrupted. *)
let kill_restart ~(seed : int) (work : probe list) (d : daemon) : unit =
  let n = List.length work in
  let rng = Random.State.make [| seed; 0xfcd |] in
  let kill_at =
    if n < 2 then []
    else
      let a = Random.State.int rng n in
      [ a; (a + 1 + Random.State.int rng (n - 1)) mod n ]
  in
  let conn = ref (Service.Client.connect d.socket) in
  let request (p : probe) : Response.t =
    match !conn with
    | Error msg -> Response.transport ~node:p.pr_name msg
    | Ok c -> Service.Client.request c p.pr_rq
  in
  List.iteri
    (fun i p ->
       if List.mem i kill_at then begin
         d.kill ();
         let r = request p in
         if r.Response.rs_status <> Response.Stransport then
           d.bad
             (Printf.sprintf
                "request %s against a killed daemon returned %s, expected a \
                 transport failure"
                p.pr_name
                (Response.status_to_string r.Response.rs_status));
         d.restart ();
         Result.iter Service.Client.close !conn;
         conn := Service.Client.connect d.socket;
         expect_answer d ~what:"retry after restart of" p (request p)
       end
       else expect_answer d ~what:"request" p (request p))
    work;
  Result.iter Service.Client.close !conn

(* Hostile frames: an oversized length prefix must be refused before
   any allocation and poison the stream; a torn frame (header promises
   more payload than ever arrives) must cost only its own connection;
   well-framed garbage must cost only that request — and after all
   three the same daemon still serves a real request byte-identically. *)
let hostile_frames (p : probe) (d : daemon) : unit =
  raw d ~what:"the oversized prefix" "fcd1 req 999999999999\n" (fun _ rd ->
      expect_err d ~what:"oversized prefix" rd;
      match Wire.read_frame ~idle_timeout:true rd with
      | Wire.Eof -> ()
      | f ->
        d.bad
          (Printf.sprintf "stream not poisoned after an oversized prefix (%s)"
             (frame_desc f)));
  (* promise 100 payload bytes, send 10, hang up *)
  raw d ~what:"the torn frame" "fcd1 req 100\n0123456789" (fun fd rd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      expect_err d ~what:"torn frame" ~sub:"truncated" rd);
  (* the garbage costs the request, not the connection: the same
     connection then serves a real request *)
  raw d ~what:"the garbage frame" ~timeout_s:60.0 "fcd1 req 9\ngarbage!!"
    (fun fd rd ->
       expect_err d ~what:"garbage request" rd;
       match Wire.write_frame fd ~kind:"req" (Request.to_wire p.pr_rq) with
       | exception Unix.Unix_error _ ->
         d.bad "connection closed by well-framed garbage"
       | () ->
         (match Wire.read_frame ~idle_timeout:true rd with
          | Wire.Frame ("resp", payload) ->
            (match Response.of_wire payload with
             | Ok r -> expect_answer d ~what:"after garbage, request" p r
             | Error e -> d.bad ("undecodable response after garbage: " ^ e))
          | f ->
            d.bad
              (Printf.sprintf "connection poisoned by well-framed garbage (%s)"
                 (frame_desc f))));
  expect_answer d ~what:"after hostile frames, request" p (ask d p)

(* A peer that commits to a frame and then stalls past the daemon's
   read timeout is poisoned (err frame naming the timeout, hang up) —
   and the daemon immediately serves the next client. *)
let stalled_sender (p : probe) (d : daemon) : unit =
  (* half a header, then silence *)
  raw d ~what:"the partial header" "fcd1 re" (fun _ rd ->
      expect_err d ~what:"stalled sender" ~sub:"timed out" rd);
  expect_answer d ~what:"after the stalled sender, request" p (ask d p)

(* A SIGSTOP'd daemon: the client's deadline fires (a transport
   failure, never a hang, never a wrong answer); after SIGCONT the
   retry policy reconnects and succeeds byte-identically. *)
let stopped_daemon (p : probe) (d : daemon) : unit =
  match Service.Client.connect d.socket with
  | Error msg -> d.bad ("connect failed: " ^ msg)
  | Ok c ->
    d.signal Sys.sigstop;
    let r =
      Service.Client.request ~timeout_s:0.5 c
        { p.pr_rq with Request.rq_deadline_ms = Some 400 }
    in
    if r.Response.rs_status <> Response.Stransport then
      d.bad
        (Printf.sprintf
           "request against a stopped daemon returned %s, expected a \
            transport failure"
           (Response.status_to_string r.Response.rs_status));
    Service.Client.close c;
    d.signal Sys.sigcont;
    let r, _ =
      Retry.run
        ~policy:{ Retry.default with Retry.r_base_ms = 20; r_seed = 1 }
        (fun ~attempt:_ -> ask d p)
    in
    expect_answer d ~what:"retry after SIGCONT of" p r

(* Overload + crash: with a pending budget of 1, park one connection in
   service and one in the queue so the next arrival is shed with a fast
   busy frame; the shed request is retried to success once the load
   drains. Then SIGKILL the daemon and retry the next request through a
   restart. Every answered byte matches the cold batch reference. *)
let overload_and_kill (work : probe list) (d : daemon) : unit =
  let retry ~seed ~on_retry p =
    fst
      (Retry.run
         ~policy:
           { Retry.default with Retry.r_attempts = 5; r_base_ms = 20;
             r_seed = seed }
         ~on_retry:(fun ~attempt:_ ~backoff_ms:_ _ -> on_retry ())
         (fun ~attempt:_ -> ask d p))
  in
  match work with
  | [] -> ()
  | p0 :: rest ->
    (* phase 1: saturate. [load_a] is meant to be in service (blocked
       on its first header byte — idle is legal) while [load_b] fills
       the budget-1 pending queue. But if the daemon is still
       mid-startup both loads sit in the listen backlog and get drained
       in ONE accept batch, shedding [load_b] itself — a later arrival
       would then be queued, not shed. So saturation is OBSERVED, not
       assumed: probe with raw connections until one reads a busy
       frame. A probe that times out instead was queued, and (closed
       or not) it keeps holding the queue slot until the serve loop
       reaps it, so the next probe is deterministically shed. *)
    let load_a = raw_connect d.socket in
    Unix.sleepf 0.1;
    let load_b = raw_connect d.socket in
    Unix.sleepf 0.1;
    if load_a = None || load_b = None then d.bad "load connections failed";
    let drained = ref false in
    let drain_load () =
      if not !drained then begin
        drained := true;
        List.iter (Option.iter raw_close) [ load_a; load_b ]
      end
    in
    let saw_busy = ref false in
    let tries = ref 0 in
    while (not !saw_busy) && !tries < 20 do
      incr tries;
      match raw_connect d.socket with
      | None -> Unix.sleepf 0.05
      | Some fd ->
        (match
           Wire.read_frame ~idle_timeout:true (raw_reader ~timeout_s:2.0 fd)
         with
         | Wire.Frame ("busy", _) -> saw_busy := true
         | _ -> ());
        raw_close fd
    done;
    if not !saw_busy then
      d.bad "saturated daemon never shed a request with a busy frame";
    expect_answer d ~what:"retried shed request" p0
      (retry ~seed:2 ~on_retry:drain_load p0);
    drain_load ();
    (* phase 2: SIGKILL mid-stream, retry through a restart *)
    match rest with
    | [] -> ()
    | p1 :: _ ->
      d.kill ();
      let restarted = ref false in
      let r =
        retry ~seed:3 p1 ~on_retry:(fun () ->
            if not !restarted then begin
              restarted := true;
              d.restart ()
            end)
      in
      if not !restarted then
        d.bad "request against the killed daemon unexpectedly succeeded";
      expect_answer d ~what:"retry through the restart of" p1 r

type report = {
  ch_nodes : int;
  ch_victims : (string * fault) list;
  ch_legs : string list;
  ch_problems : string list;  (* empty = every containment check held *)
}

(* Run the whole chaos matrix: the fault-free reference, then every row
   of the leg table in order. [engine] applies to the reference and
   every leg alike, so the containment contract (survivors
   byte-identical to the reference) is exercised per engine — including
   OMT fuel exhaustion surfacing as a contained "analysis diverged"
   refusal under [Ffuel]. *)
let run ?(seed = 20260806) ?(nodes = 14) ?(victims = 3)
    ?(engine = Wcet.Report.Ipet) ?fcd_exe () : report =
  let program = Scade.Workload.flight_program ~nodes ~seed:2026 in
  let named =
    List.map
      (fun ((n : Scade.Symbol.node), src) -> (n.Scade.Symbol.n_name, src))
      program
  in
  let nodes = List.length named in
  let plan = make_plan ~seed ~nodes ~victims in
  let base = { Toolchain.default with Toolchain.engine } in
  (* fault-free reference: sequential, cacheless *)
  let reference =
    Array.of_list
      (List.map
         (fun (name, src) ->
            match Par.chain_node ~config:base name src with
            | Ok r -> render_result r
            | Error d ->
              failwith ("chaos: fault-free reference failed: "
                        ^ Diag.to_string d))
         named)
  in
  (* an in-process row: the workload under [plan] on [jobs] domains in
     shards of [stream] nodes, against the cache [setup] builds in the
     leg's directory *)
  let local ~(plan : plan) ~(jobs : int) ?stream
      (setup : string -> Wcet.Memo.t option) ~(leg : string) ~(dir : string)
    : string list =
    let config = { base with Toolchain.jobs; stream; cache = setup dir } in
    check_leg ~plan ~reference named leg (run_workload ~plan ~config named)
  in
  let no_cache _ = None and mem_cache _ = Some (Wcet.Memo.create ()) in
  (* a warmed persistent store with every entry truncated mid-byte:
     corruption is a miss, so the fault-free run must match exactly *)
  let truncated dir =
    let warm = Wcet.Memo.create ~dir () in
    ignore
      (run_workload ~plan:[]
         ~config:{ base with Toolchain.jobs = 2; cache = Some warm }
         named);
    truncate_store dir;
    Some (Wcet.Memo.create ~dir ())
  in
  (* a store whose every write fails: the run must be byte-identical to
     an uncached one, zero failures, silent miss *)
  let clogged dir =
    clog_store dir;
    Some (Wcet.Memo.create ~dir ())
  in
  let legs =
    [ ("j1/nocache", local ~plan ~jobs:1 no_cache);
      ("j4/nocache", local ~plan ~jobs:4 no_cache);
      ("j1/memcache", local ~plan ~jobs:1 mem_cache);
      ("j4/memcache", local ~plan ~jobs:4 mem_cache);
      ("j4/stream/memcache", local ~plan ~jobs:4 ~stream:5 mem_cache);
      ("truncated-store", local ~plan:[] ~jobs:2 truncated);
      ("enospc-store", local ~plan:[] ~jobs:2 clogged) ]
    @
    match fcd_exe with
    | None -> []
    | Some fcd_exe ->
      let fcd = with_fcd ~fcd_exe in
      let probes = cold_probes ~engine named in
      let probe i = List.nth probes (i mod List.length probes) in
      ("fcd-kill-restart", fcd ~store:true (kill_restart ~seed probes))
      :: (if probes = [] then []
          else
            [ ("oversized-frame", fcd (hostile_frames (probe 0)));
              ("slow-loris",
               fcd ~read_timeout_ms:250 (stalled_sender (probe 0)));
              ("sigstop-deadline", fcd (stopped_daemon (probe 1)));
              ("kill-under-load",
               fcd ~pending_budget:1 (overload_and_kill probes)) ])
  in
  let ran =
    List.map
      (fun (name, leg) ->
         (name, with_temp_dir ~leg:name (fun dir -> leg ~leg:name ~dir)))
      legs
  in
  { ch_nodes = nodes;
    ch_victims =
      List.map (fun (i, f) -> (fst (List.nth named i), f)) plan;
    ch_legs = List.map fst ran;
    ch_problems = List.concat_map snd ran }

let print_report (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf "@[<v>chaos: %d nodes, %d faults injected@,"
    r.ch_nodes (List.length r.ch_victims);
  List.iter
    (fun (name, f) ->
       Format.fprintf ppf "  victim %-10s %s@," name (fault_name f))
    r.ch_victims;
  Format.fprintf ppf "  legs: %s@," (String.concat ", " r.ch_legs);
  (match r.ch_problems with
   | [] -> Format.fprintf ppf "chaos: all containment checks held@,"
   | ps ->
     List.iter (fun p -> Format.fprintf ppf "chaos VIOLATION: %s@," p) ps);
  Format.fprintf ppf "@]"
