(* Service-layer tests: the request/response/diag wire codecs
   round-trip exactly, the CLI name<->variant maps round-trip
   (qcheck-pinned: they are the only CLI name parsers), a
   served request is byte-identical to a cold batch run of the same
   request (serve == batch), a warm repeat answers from memory with
   zero misses (warm == cold), and the framed serve loop contains
   malformed input per the protocol contract: a bad *frame* poisons
   the stream, a bad *request* costs only itself. *)

module F = Fcstack

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let qcheck = QCheck_alcotest.to_alcotest

(* ---- deterministic random values (no QCheck shrinking needed:
   every value is a pure function of the seed) ----------------------- *)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let all_compilers =
  [ F.Request.Cdefault_o0; Cdefault_o1; Cdefault_o2; Cvcomp ]

let all_engines = [ Wcet.Report.Ipet; Omt; Both ]

let all_stages =
  [ F.Diag.Parse; Typecheck; Compile; Layout; Sim; Wcet; Cache; Deadline;
    Transport ]

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* strings with every byte value, newlines, '=', '%': the codecs must
   survive arbitrary bytes in names, sources, notes and contexts *)
let random_bytes rng maxlen =
  let n = Random.State.int rng (maxlen + 1) in
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let random_passes rng =
  let b () = Random.State.bool rng in
  { Vcomp.Pass.opt_constprop = b ();
    opt_cse = b ();
    opt_gvn = b ();
    opt_licm = b ();
    opt_deadcode = b ();
    opt_validate = b ();
    opt_fuel =
      pick rng [ Vcomp.Pass.default_fuel; 1; 50 ] }

let random_opts rng =
  { F.Toolchain.ro_compiler = pick rng all_compilers;
    ro_worlds = pick rng [ None; Some 1; Some 8 ];
    ro_sim_fuel = pick rng [ None; Some 5000 ];
    ro_analysis_fuel =
      pick rng
        [ Wcet.Fuel.default;
          { Wcet.Fuel.default with fl_widen = 17; fl_bb_nodes = 3 } ];
    ro_passes = random_passes rng;
    ro_engine = pick rng all_engines }

let random_action rng =
  match Random.State.int rng 5 with
  | 0 -> F.Request.Ping
  | 1 | 2 -> F.Request.Compile { ac_dump_rtl = Random.State.bool rng }
  | _ ->
    F.Request.Analyze
      { an_compare = Random.State.bool rng;
        an_simulate = Random.State.bool rng;
        an_annot =
          pick rng [ None; Some "out dir/node.annot"; Some "a=b%c\nd" ] }

let random_request rng =
  F.Request.make
    ~name:("n" ^ random_bytes rng 24)
    ~action:(random_action rng)
    ~opts:(random_opts rng)
    ~validate:(Random.State.bool rng)
    ~exact:(Random.State.bool rng)
    ?deadline_ms:(pick rng [ None; None; Some 0; Some 250; Some 600_000 ])
    (random_bytes rng 200)

let random_diag rng =
  F.Diag.make
    ~severity:(if Random.State.bool rng then F.Diag.Error else Warning)
    ~context:
      (List.init (Random.State.int rng 3) (fun i ->
           (Printf.sprintf "k%d" i, random_bytes rng 16)))
    ~node:("n" ^ random_bytes rng 16)
    ~stage:(pick rng all_stages)
    (random_bytes rng 60)

let random_stats rng =
  { Vcomp.Pass.st_pass = pick rng [ "constprop"; "gvn-cse"; "licm" ];
    st_enabled = Random.State.bool rng;
    st_rewrites = Random.State.int rng 100;
    st_removed = Random.State.int rng 100;
    st_hoisted = Random.State.int rng 100;
    (* %h hex floats must round-trip any finite double exactly *)
    st_ms = pick rng [ 0.0; 0.1; 1e-9; 123.456; Random.State.float rng 1e3 ] }

let random_response rng =
  { F.Response.rs_status =
      pick rng [ F.Response.Sok; Srefused; Sbusy; Stransport ];
    rs_rtl = random_bytes rng 80;
    rs_output = random_bytes rng 200;
    rs_notes = random_bytes rng 80;
    rs_annot = (if Random.State.bool rng then None else Some (random_bytes rng 80));
    rs_pass_stats = List.init (Random.State.int rng 3) (fun _ -> random_stats rng);
    rs_diags = List.init (Random.State.int rng 3) (fun _ -> random_diag rng) }

(* ---- name<->variant maps (the only CLI name parsers, so pin the
   round-trip) ------------------------------------------------------- *)

let compiler_roundtrip =
  QCheck.Test.make ~count:50 ~name:"request: compiler name round-trip"
    (QCheck.oneofl all_compilers)
    (fun c ->
       F.Request.compiler_of_string (F.Request.compiler_to_string c) = Ok c)

let engine_roundtrip =
  QCheck.Test.make ~count:50 ~name:"request: engine name round-trip"
    (QCheck.oneofl all_engines)
    (fun e ->
       F.Request.engine_of_string (F.Request.engine_to_string e) = Ok e)

let test_compiler_names () =
  (* long names stay accepted; unknown names are data, not crashes *)
  List.iter
    (fun (s, c) -> checkb s true (F.Request.compiler_of_string s = Ok c))
    [ ("default-O0", F.Request.Cdefault_o0);
      ("default-O1", Cdefault_o1);
      ("default-O2", Cdefault_o2);
      ("vcomp", Cvcomp) ];
  checkb "bad compiler name is an Error" true
    (Result.is_error (F.Request.compiler_of_string "gcc"));
  checkb "bad engine name is an Error" true
    (Result.is_error (F.Request.engine_of_string "z3"))

(* ---- wire codecs --------------------------------------------------- *)

let request_wire_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire: request round-trip"
    QCheck.small_int
    (fun seed ->
       let rng = Random.State.make [| seed; 0x5e40 |] in
       let rq = random_request rng in
       F.Request.of_wire (F.Request.to_wire rq) = Ok rq)

let response_wire_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire: response round-trip"
    QCheck.small_int
    (fun seed ->
       let rng = Random.State.make [| seed; 0x4e5 |] in
       let rs = random_response rng in
       F.Response.of_wire (F.Response.to_wire rs) = Ok rs)

let diag_wire_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire: diag round-trip"
    QCheck.small_int
    (fun seed ->
       let rng = Random.State.make [| seed; 0xd1a |] in
       let d = random_diag rng in
       F.Diag.of_wire (F.Diag.to_wire d) = Ok d)

let test_wire_rejects () =
  (* version/garbage problems are Errors, never exceptions *)
  checkb "empty request payload" true
    (Result.is_error (F.Request.of_wire ""));
  checkb "wrong-version request" true
    (Result.is_error (F.Request.of_wire "v=999\n"));
  checkb "garbage response payload" true
    (Result.is_error (F.Response.of_wire "not a response"));
  checkb "garbage diag line" true
    (Result.is_error (F.Diag.of_wire "not a diag"))

(* ---- serve == batch ------------------------------------------------ *)

(* timings differ run to run; everything else must be byte-identical *)
let strip_ms (r : F.Response.t) : F.Response.t =
  { r with
    F.Response.rs_pass_stats =
      List.map
        (fun s -> { s with Vcomp.Pass.st_ms = 0.0 })
        r.F.Response.rs_pass_stats }

let source_of_seed seed =
  Minic.Pp.program_to_string (Testlib.Gen.gen_program (seed land 0xFF))

let serve_eq_batch =
  QCheck.Test.make ~count:8
    ~name:"service: warm session == fresh batch, and repeat has 0 misses"
    QCheck.small_int
    (fun seed ->
       let rng = Random.State.make [| seed; 0xbeb |] in
       let rq =
         F.Request.make
           ~name:(Printf.sprintf "p%03d.mc" seed)
           ~action:
             (F.Request.Analyze
                { an_compare = false;
                  an_simulate = false;
                  an_annot = None })
           ~opts:
             (F.Toolchain.request_opts
                ~compiler:(pick rng [ F.Request.Cvcomp; Cdefault_o1 ])
                ~engine:(pick rng [ Wcet.Report.Ipet; Omt ])
                ())
           (source_of_seed seed)
       in
       let warm =
         F.Service.create
           ~state:(F.Toolchain.session ~cache:(Wcet.Memo.create ()) ())
           ()
       in
       let cold () = F.Service.run_request (F.Service.create ()) rq in
       let r1 = F.Service.run_request warm rq in
       let before = F.Service.stats warm in
       let r2 = F.Service.run_request warm rq in
       let after = F.Service.stats warm in
       let repeat_misses =
         match (before, after) with
         | Some b, Some a -> a.Wcet.Report.st_misses - b.Wcet.Report.st_misses
         | _ -> -1
       in
       (* byte-identity holds unconditionally; the 0-miss warm repeat
          only applies to answered requests — a refused analysis is
          never cached (pinned in test_chaos), so its repeat re-misses *)
       strip_ms r1 = strip_ms (cold ())
       && strip_ms r2 = strip_ms r1
       && (r1.F.Response.rs_status <> F.Response.Sok || repeat_misses = 0))

let test_refusal_keeps_partial_artifacts () =
  (* a refused compile still carries the artifacts produced before the
     failure — batch fcc prints them, so serve == batch requires it *)
  (* the chaos harness's canonical refusal injection: an unbounded
     volatile-driven loop the analyzer must refuse to bound *)
  let src =
    Minic.Pp.program_to_string
      (F.Chaos.apply_fault F.Chaos.Frefusal (Testlib.Gen.gen_program 3))
  in
  let rq =
    F.Request.make ~name:"refused.mc"
      ~action:(F.Request.Analyze
                 { an_compare = false; an_simulate = false; an_annot = None })
      src
  in
  let r = F.Service.run_request (F.Service.create ()) rq in
  check Alcotest.string "status" "refused"
    (F.Response.status_to_string r.F.Response.rs_status);
  checkb "diags name the node" true
    (List.exists (fun d -> d.F.Diag.d_node = "refused.mc") r.F.Response.rs_diags)

(* ---- the framed serve loop ---------------------------------------- *)

(* run serve_connection over a pair of pipes in its own domain; the
   test plays the client on the other ends *)
let with_connection ?max_requests
    (f : Unix.file_descr -> F.Wire.fd_reader -> unit) :
  F.Service.connection_end =
  let r1, w1 = Unix.pipe () (* client -> server *) in
  let r2, w2 = Unix.pipe () (* server -> client *) in
  let s = F.Service.create () in
  let server =
    Domain.spawn (fun () ->
        let e = F.Service.serve_connection ?max_requests ~log:false s r1 w2 in
        Unix.close w2;
        Unix.close r1;
        e)
  in
  f w1 (F.Wire.fd_reader r2);
  Unix.close w1;
  let e = Domain.join server in
  Unix.close r2;
  e

let simple_request name =
  F.Request.make ~name ~action:(F.Request.Compile { ac_dump_rtl = false })
    (source_of_seed 7)

let read_kind ic =
  match F.Wire.read_frame ic with
  | F.Wire.Frame (kind, _) -> kind
  | F.Wire.Eof -> "<eof>"
  | F.Wire.Bad m -> "<bad: " ^ m ^ ">"

let test_connection_bye () =
  let e =
    with_connection (fun oc ic ->
        F.Wire.write_frame oc ~kind:"req"
          (F.Request.to_wire (simple_request "a.mc"));
        F.Wire.write_frame oc ~kind:"req"
          (F.Request.to_wire (simple_request "b.mc"));
        F.Wire.write_frame oc ~kind:"bye" "";
        check Alcotest.string "first answer" "resp" (read_kind ic);
        check Alcotest.string "second answer" "resp" (read_kind ic))
  in
  checkb "bye ends the connection" true (e = F.Service.Cend_eof)

let test_connection_shutdown () =
  let e =
    with_connection (fun oc _ic ->
        F.Wire.write_frame oc ~kind:"shutdown" "")
  in
  checkb "shutdown is signalled to the accept loop" true
    (e = F.Service.Cend_shutdown)

let test_connection_budget () =
  let e =
    with_connection ~max_requests:1 (fun oc ic ->
        F.Wire.write_frame oc ~kind:"req"
          (F.Request.to_wire (simple_request "a.mc"));
        F.Wire.write_frame oc ~kind:"req"
          (F.Request.to_wire (simple_request "b.mc"));
        check Alcotest.string "budgeted answer" "resp" (read_kind ic);
        (* the loop stops before reading the second request *)
        check Alcotest.string "no second answer" "<eof>" (read_kind ic))
  in
  checkb "budget exhaustion is signalled" true (e = F.Service.Cend_budget)

let test_connection_contains_bad_request () =
  (* a well-framed malformed request costs only itself *)
  let e =
    with_connection (fun oc ic ->
        F.Wire.write_frame oc ~kind:"req" "v=999\n";
        F.Wire.write_frame oc ~kind:"nonsense" "";
        F.Wire.write_frame oc ~kind:"req"
          (F.Request.to_wire (simple_request "after.mc"));
        F.Wire.write_frame oc ~kind:"bye" "";
        check Alcotest.string "bad request -> err" "err" (read_kind ic);
        check Alcotest.string "unknown kind -> err" "err" (read_kind ic);
        check Alcotest.string "later request still served" "resp"
          (read_kind ic))
  in
  checkb "stream survives malformed requests" true (e = F.Service.Cend_eof)

let test_connection_poisoned_by_bad_frame () =
  (* a malformed frame (not a malformed request) poisons the stream *)
  let e =
    with_connection (fun oc ic ->
        let junk = "this is not an fcd1 frame\n" in
        ignore (Unix.write_substring oc junk 0 (String.length junk) : int);
        check Alcotest.string "bad frame -> err" "err" (read_kind ic);
        check Alcotest.string "then hangup" "<eof>" (read_kind ic))
  in
  checkb "bad frame ends the connection" true (e = F.Service.Cend_eof)

let test_client_transport_failure_is_data () =
  (* connecting to a nonexistent socket yields a transport response,
     not an exception *)
  match F.Service.Client.connect "/nonexistent/dir/fcd.sock" with
  | Ok _ -> Alcotest.fail "connect to a nonexistent socket succeeded"
  | Error msg ->
    checkb "error says it cannot connect" true
      (String.length msg >= 14 && String.sub msg 0 14 = "cannot connect")

(* ---- the client: --fail-fast runs nothing after the failure ------- *)

(* valid, parse error, valid, valid: the second file fails, so the
   third and fourth are neither emitted nor run *)
let with_fail_fast_files (f : string list -> unit) : unit =
  let dir = Filename.temp_dir "fcclient" "" in
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  let files =
    [ write "a.mc" (source_of_seed 7); write "bad.mc" "int main( {\n";
      write "c.mc" (source_of_seed 8); write "d.mc" (source_of_seed 9) ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove files; Sys.rmdir dir)
    (fun () -> f files)

(* (exit code, responses emitted, requests built) of one in-process
   --fail-fast run *)
let run_fail_fast ~jobs ~stream files : int * int * int =
  let requests = Atomic.make 0 and emitted = ref 0 in
  let o =
    { F.Cliopts.cl_opts = F.Toolchain.default_request;
      cl_jobs = jobs;
      cl_fail_fast = true;
      cl_connect = None;
      cl_deadline_ms = None;
      cl_retry = F.Retry.default;
      cl_fallback_local = false;
      cl_cache = { F.Cliopts.co_no_cache = true; co_dir = None; co_gc_mb = None } }
  in
  let request name source =
    Atomic.incr requests;
    F.Request.make ~name ~action:(F.Request.Compile { ac_dump_rtl = false })
      source
  in
  let code =
    F.Cliopts.run_client ~tool:"test" o ~stream ~request
      ~emit:(fun _ -> incr emitted)
      ~finish:(fun _ summarize -> summarize ())
      files
  in
  (code, !emitted, Atomic.get requests)

let test_fail_fast_stops_running () =
  with_fail_fast_files (fun files ->
      let code, emitted, requests = run_fail_fast ~jobs:1 ~stream:None files in
      check Alcotest.int "-j 1: exit code" 2 code;
      check Alcotest.int "-j 1: responses emitted" 2 emitted;
      check Alcotest.int "-j 1: requests built" 2 requests;
      let code, emitted, _ = run_fail_fast ~jobs:2 ~stream:(Some 1) files in
      check Alcotest.int "-j 2 --shard-size 1: exit code" 2 code;
      check Alcotest.int "-j 2 --shard-size 1: responses emitted" 2 emitted)

(* What [f] writes to stderr (fd 2), Format's err_formatter included. *)
let capture_stderr (f : unit -> 'a) : 'a * string =
  let path = Filename.temp_file "fcclient" ".err" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let flush_all () =
    Format.pp_print_flush Format.err_formatter ();
    flush stderr
  in
  flush_all ();
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
          flush_all ();
          Unix.dup2 saved Unix.stderr;
          Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (result, text)

(* The summary counts the inputs that ran: the second of four files
   fails, so two responses are emitted and one of them failed. *)
let test_fail_fast_summary_counts_what_ran () =
  with_fail_fast_files (fun files ->
      let (code, emitted, _), err =
        capture_stderr (fun () -> run_fail_fast ~jobs:1 ~stream:None files)
      in
      check Alcotest.int "exit code" 2 code;
      check Alcotest.int "responses emitted" 2 emitted;
      let last_line =
        List.nth (List.rev (String.split_on_char '\n' (String.trim err))) 0
      in
      check Alcotest.string "summary" "1/2 nodes failed (1 ok)" last_line)

(* ---- one typecheck per compile: the compiler's rejection is the
   Typecheck diagnostic ---------------------------------------------- *)

let expect_typecheck_diag (what : string) ~(node : string)
    (src : Minic.Ast.program) (diags : F.Diag.t list) : unit =
  let e =
    match Minic.Typecheck.check_program src with
    | Ok () -> Alcotest.fail (what ^ ": the source typechecks")
    | Error e -> e
  in
  match diags with
  | [ d ] ->
    checkb (what ^ ": stage") true (d.F.Diag.d_stage = F.Diag.Typecheck);
    check Alcotest.string (what ^ ": node") node d.F.Diag.d_node;
    check Alcotest.string (what ^ ": message")
      (Minic.Typecheck.error_to_string e) d.F.Diag.d_message
  | ds ->
    Alcotest.fail
      (Printf.sprintf "%s: %d diagnostics, expected one" what
         (List.length ds))

let test_typecheck_diagnostic () =
  (* a write to an undeclared variable: parses, fails the typecheck *)
  let ill_typed =
    F.Chaos.apply_fault F.Chaos.Fcorrupt_source (Testlib.Gen.gen_program 3)
  in
  (match F.Par.chain_node ~config:F.Toolchain.default "bad" ill_typed with
   | Ok _ -> Alcotest.fail "chain_node accepted an ill-typed node"
   | Error d -> expect_typecheck_diag "chain_node" ~node:"bad" ill_typed [ d ]);
  let source = Minic.Pp.program_to_string ill_typed in
  let parsed = Minic.Parser.parse_program source in
  let analyze an_compare =
    F.Request.Analyze { an_compare; an_simulate = false; an_annot = None }
  in
  List.iter
    (fun (what, action) ->
       let r =
         F.Service.run_request (F.Service.create ())
           (F.Request.make ~name:"bad.mc" ~action source)
       in
       check Alcotest.string (what ^ ": status") "refused"
         (F.Response.status_to_string r.F.Response.rs_status);
       expect_typecheck_diag what ~node:"bad.mc" parsed r.F.Response.rs_diags)
    [ ("compile", F.Request.Compile { ac_dump_rtl = false });
      ("compile --dump-rtl", F.Request.Compile { ac_dump_rtl = true });
      ("analyze", analyze false);
      ("analyze --compare", analyze true) ]

(* ---- ping: the liveness probe ------------------------------------- *)

let ping_request = F.Request.make ~name:"probe" ~action:F.Request.Ping ""

let test_ping () =
  let s = F.Service.create () in
  let pong = F.Service.run_request s ping_request in
  checkb "ping answers ok" true (pong.F.Response.rs_status = F.Response.Sok);
  checkb "pong reports served=0" true
    (contains pong.F.Response.rs_output "pong served=0");
  check Alcotest.int "a probe does not count as served" 0 (F.Service.served s);
  let _ = F.Service.run_request s (simple_request "a.mc") in
  let pong = F.Service.run_request s ping_request in
  checkb "pong counts the real request" true
    (contains pong.F.Response.rs_output "pong served=1");
  check Alcotest.int "the second probe left the counter alone" 1
    (F.Service.served s);
  checkb "pong names the cache flavor" true
    (contains pong.F.Response.rs_output "cache=none")

(* ---- deadlines as data -------------------------------------------- *)

let analyze_request ?deadline_ms name seed =
  F.Request.make ~name
    ~action:(F.Request.Analyze
               { an_compare = false; an_simulate = false; an_annot = None })
    ?deadline_ms (source_of_seed seed)

let test_expired_deadline_is_refused_uncached () =
  let cache = Wcet.Memo.create () in
  let s = F.Service.create ~state:(F.Toolchain.session ~cache ()) () in
  List.iter
    (fun dl ->
       let r =
         F.Service.run_request s (analyze_request ~deadline_ms:dl "late.mc" 5)
       in
       checkb (Printf.sprintf "deadline %d ms is refused" dl) true
         (r.F.Response.rs_status = F.Response.Srefused);
       checkb "a Deadline diag names the node" true
         (List.exists
            (fun d ->
               d.F.Diag.d_stage = F.Diag.Deadline
               && d.F.Diag.d_node = "late.mc"
               && contains d.F.Diag.d_message "deadline expired")
            r.F.Response.rs_diags))
    [ 0; -5 ];
  (* a deadline says when an answer stops being useful, not what it
     is: an expired request must never populate the cache *)
  check Alcotest.int "nothing cached by expired requests" 0
    (Wcet.Memo.length cache)

let test_generous_deadline_is_byte_identical () =
  let plain = analyze_request "dl.mc" 11 in
  let generous = { plain with F.Request.rq_deadline_ms = Some 600_000 } in
  let r1 = F.Service.run_request (F.Service.create ()) plain in
  let r2 = F.Service.run_request (F.Service.create ()) generous in
  checkb "the analysis succeeded" true
    (r1.F.Response.rs_status = F.Response.Sok);
  checkb "a generous deadline changes no byte of the answer" true
    (strip_ms r1 = strip_ms r2)

let test_fuel_deadline_ticks () =
  (* the cancellation plumbing itself: with_deadline installs the
     check, tick polls it, Expired fires the first time it is true,
     and the slot is restored afterwards *)
  let calls = ref 0 in
  let fired =
    try
      Wcet.Fuel.with_deadline
        (fun () ->
           incr calls;
           !calls >= 3)
        (fun () ->
           Wcet.Fuel.tick ();
           Wcet.Fuel.tick ();
           Wcet.Fuel.tick ();
           false)
    with Wcet.Fuel.Expired -> true
  in
  checkb "the third tick fires Expired" true fired;
  check Alcotest.int "the check is polled once per tick" 3 !calls;
  Wcet.Fuel.tick ();
  check Alcotest.int "ticks outside with_deadline are no-ops" 3 !calls

let test_of_exn_maps_expiry_to_deadline_stage () =
  (* Fuel.Expired escaping from deep inside the analyzer must surface
     at the Deadline stage no matter which stage caught it *)
  let d = F.Diag.of_exn ~node:"n.mc" ~stage:F.Diag.Wcet Wcet.Fuel.Expired in
  check Alcotest.string "stage is deadline, not wcet" "deadline"
    (F.Diag.stage_name d.F.Diag.d_stage);
  checkb "the message says the deadline expired" true
    (contains d.F.Diag.d_message "deadline expired")

(* ---- the Unix accept loop: shedding, socket claiming, signals ----- *)

let tmp_sock (name : string) : string =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fcsvc-%d-%s.sock" (Unix.getpid ()) name)

let connect_retry (path : string) : Unix.file_descr =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if n = 0 then Alcotest.fail "cannot connect to the test daemon"
      else (
        Unix.sleepf 0.02;
        go (n - 1))
  in
  go 250

let test_serve_unix_sheds_past_budget () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let path = tmp_sock "shed" in
  (try Sys.remove path with Sys_error _ -> ());
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        F.Service.serve_unix ~log:false
          ~stop:(fun () -> Atomic.get stop)
          ~pending_budget:0 (F.Service.create ()) path)
  in
  checkb "socket appears" true (F.Service.wait_for_path path);
  (* with a zero pending budget EVERY arrival is over budget, so the
     shed is deterministic — no concurrent load needed (the chaos
     kill-under-load leg covers shedding through the aux hook while
     the daemon is parked mid-read on a live connection) *)
  let shed = connect_retry path in
  let rd = F.Wire.fd_reader shed in
  F.Wire.set_read_timeout rd (Some 10.0);
  (match F.Wire.read_frame ~idle_timeout:true rd with
   | F.Wire.Frame ("busy", msg) ->
     checkb "the busy frame names the saturation" true
       (contains msg "saturated")
   | F.Wire.Frame (k, _) -> Alcotest.fail ("expected busy, got " ^ k)
   | F.Wire.Eof -> Alcotest.fail "expected busy, got eof"
   | F.Wire.Bad m -> Alcotest.fail ("expected busy, got bad: " ^ m));
  Unix.close shed;
  (* the Client maps a shed to retryable data — Sbusy, or Stransport
     when the hangup wins the race; never Sok, never a refusal *)
  (match F.Service.Client.connect path with
   | Error e -> Alcotest.fail e
   | Ok c ->
     let r =
       F.Service.Client.request ~timeout_s:10.0 c (simple_request "shed.mc")
     in
     F.Service.Client.close c;
     checkb "a shed request is retryable" true
       (F.Retry.should_retry r.F.Response.rs_status);
     checkb "a shed request is never refused" true
       (r.F.Response.rs_status <> F.Response.Srefused));
  Atomic.set stop true;
  (* one more arrival wakes the select loop so it re-polls [stop];
     the daemon sheds it into our closed fd (contained EPIPE) *)
  let wake = connect_retry path in
  Unix.close wake;
  Domain.join daemon;
  checkb "socket unlinked on stop" true (not (Sys.file_exists path))

let test_stale_socket_is_reclaimed () =
  let path = tmp_sock "stale" in
  (try Sys.remove path with Sys_error _ -> ());
  (* leave a genuinely stale socket file: bound once, never accepting *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  checkb "the stale file exists" true (Sys.file_exists path);
  let daemon =
    Domain.spawn (fun () ->
        F.Service.serve_unix ~log:false ~max_requests:1 (F.Service.create ())
          path)
  in
  (* the connect-probe found no live daemon, unlinked the corpse and
     rebound; connecting may race the rebind, so retry *)
  let rec ask n =
    match F.Service.Client.connect path with
    | Error _ when n > 0 ->
      Unix.sleepf 0.02;
      ask (n - 1)
    | Error e -> Alcotest.fail e
    | Ok c ->
      let r =
        F.Service.Client.request ~timeout_s:60.0 c (simple_request "stale.mc")
      in
      F.Service.Client.close c;
      if F.Retry.should_retry r.F.Response.rs_status && n > 0 then (
        Unix.sleepf 0.02;
        ask (n - 1))
      else r
  in
  let r = ask 250 in
  checkb "served through the reclaimed socket" true
    (r.F.Response.rs_status = F.Response.Sok);
  Domain.join daemon

let test_live_socket_is_never_stolen () =
  let path = tmp_sock "live" in
  (try Sys.remove path with Sys_error _ -> ());
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        F.Service.serve_unix ~log:false
          ~stop:(fun () -> Atomic.get stop)
          (F.Service.create ()) path)
  in
  checkb "socket appears" true (F.Service.wait_for_path path);
  (match F.Service.serve_unix ~log:false (F.Service.create ()) path with
   | () -> Alcotest.fail "a second daemon bound over a live one"
   | exception Failure msg ->
     checkb "the refusal names the live daemon" true
       (contains msg "live daemon");
     checkb "the live daemon's socket survives" true (Sys.file_exists path));
  (match F.Service.Client.connect path with
   | Ok c -> F.Service.Client.shutdown c
   | Error e -> Alcotest.fail e);
  Domain.join daemon;
  checkb "socket unlinked on shutdown" true (not (Sys.file_exists path))

let test_fd_reader_survives_signal_storm () =
  (* satellite regression: a signal storm during a dribbled read must
     never surface as a spurious transport failure — every wait in the
     fd reader retries EINTR against its absolute deadline *)
  let saved = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigusr1 saved)
    (fun () ->
       let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       let payload =
         String.init 100_000 (fun i -> Char.chr ((i * 7) land 0xff))
       in
       let raw =
         Printf.sprintf "fcd1 req %d\n" (String.length payload) ^ payload
       in
       let stop_storm = Atomic.make false in
       let pid = Unix.getpid () in
       let storm =
         Domain.spawn (fun () ->
             while not (Atomic.get stop_storm) do
               (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
               Unix.sleepf 0.0005
             done)
       in
       let writer =
         Domain.spawn (fun () ->
             let bytes = Bytes.of_string raw in
             let n = Bytes.length bytes in
             let pos = ref 0 in
             while !pos < n do
               let chunk = min 997 (n - !pos) in
               (match Unix.write a bytes !pos chunk with
                | wrote -> pos := !pos + wrote
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
               Unix.sleepf 0.001
             done;
             Unix.close a)
       in
       let rd = F.Wire.fd_reader b in
       F.Wire.set_read_timeout rd (Some 30.0);
       let got = F.Wire.read_frame rd in
       Atomic.set stop_storm true;
       Domain.join writer;
       Domain.join storm;
       Unix.close b;
       match got with
       | F.Wire.Frame ("req", p) ->
         checkb "payload intact under the storm" true (p = payload)
       | F.Wire.Frame (k, _) -> Alcotest.fail ("unexpected kind " ^ k)
       | F.Wire.Eof -> Alcotest.fail "eof under the signal storm"
       | F.Wire.Bad m -> Alcotest.fail ("bad frame under the storm: " ^ m))

let suite =
  [ qcheck compiler_roundtrip;
    qcheck engine_roundtrip;
    Alcotest.test_case "request: name maps and rejects" `Quick
      test_compiler_names;
    qcheck request_wire_roundtrip;
    qcheck response_wire_roundtrip;
    qcheck diag_wire_roundtrip;
    Alcotest.test_case "wire: malformed payloads are Errors" `Quick
      test_wire_rejects;
    qcheck serve_eq_batch;
    Alcotest.test_case "service: refusal keeps partial artifacts" `Quick
      test_refusal_keeps_partial_artifacts;
    Alcotest.test_case "serve: bye ends the connection" `Quick
      test_connection_bye;
    Alcotest.test_case "serve: shutdown frame" `Quick
      test_connection_shutdown;
    Alcotest.test_case "serve: request budget" `Quick test_connection_budget;
    Alcotest.test_case "serve: malformed request costs only itself" `Quick
      test_connection_contains_bad_request;
    Alcotest.test_case "serve: malformed frame poisons the stream" `Quick
      test_connection_poisoned_by_bad_frame;
    Alcotest.test_case "client: transport failure is data" `Quick
      test_client_transport_failure_is_data;
    Alcotest.test_case "client: --fail-fast runs nothing after the failure"
      `Quick test_fail_fast_stops_running;
    Alcotest.test_case "client: --fail-fast summary counts what ran"
      `Quick test_fail_fast_summary_counts_what_ran;
    Alcotest.test_case "service: an ill-typed source is one Typecheck diag"
      `Quick test_typecheck_diagnostic;
    Alcotest.test_case "ping: liveness probe leaves the session alone"
      `Quick test_ping;
    Alcotest.test_case "deadline: expired is a refusal, never cached"
      `Quick test_expired_deadline_is_refused_uncached;
    Alcotest.test_case "deadline: a generous one changes no byte" `Quick
      test_generous_deadline_is_byte_identical;
    Alcotest.test_case "deadline: Fuel tick/with_deadline plumbing" `Quick
      test_fuel_deadline_ticks;
    Alcotest.test_case "deadline: Fuel.Expired maps to the Deadline stage"
      `Quick test_of_exn_maps_expiry_to_deadline_stage;
    Alcotest.test_case "serve_unix: arrivals past the budget are shed"
      `Quick test_serve_unix_sheds_past_budget;
    Alcotest.test_case "serve_unix: a stale socket is reclaimed" `Quick
      test_stale_socket_is_reclaimed;
    Alcotest.test_case "serve_unix: a live socket is never stolen" `Quick
      test_live_socket_is_never_stolen;
    Alcotest.test_case "wire: fd reader survives a signal storm" `Quick
      test_fd_reader_survives_signal_storm ]
