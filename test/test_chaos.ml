(* Tests of the fault-isolation layer: the chaos harness itself, the
   per-knob fuel guards (every unbounded fixpoint refuses instead of
   hanging, and a refusal is never an unsound bound or a cached
   entry), and the containment property that non-failed nodes are
   byte-identical to a fault-free run under any (jobs x cache)
   configuration. *)

let checkb = Alcotest.check Alcotest.bool

let named_workload ~(nodes : int) ~(seed : int) :
  (string * Minic.Ast.program) list =
  List.map
    (fun (n, src) -> (n.Scade.Symbol.n_name, src))
    (Scade.Workload.flight_program ~nodes ~seed)

(* one built node, reused by the fuel tests *)
let built =
  lazy
    (let _, src = List.hd (Scade.Workload.flight_program ~nodes:1 ~seed:77) in
     Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp src)

let analyze_with (fuel : Wcet.Fuel.t) :
  (Wcet.Report.t, string) Result.t =
  let b = Lazy.force built in
  match
    Wcet.Driver.analyze ~fuel b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
  with
  | r -> Ok r
  | exception Wcet.Driver.Error m -> Error m

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- fuel guards: exhaustion refuses, never hangs or lies ---- *)

let test_widen_fuel_refuses () =
  match analyze_with { Wcet.Fuel.default with Wcet.Fuel.fl_widen = 0 } with
  | Ok _ -> Alcotest.fail "starved widening fixpoint produced a bound"
  | Error m ->
    checkb ("reported as divergence: " ^ m) true (contains m "diverged")

let test_simplex_fuel_refuses () =
  match analyze_with { Wcet.Fuel.default with Wcet.Fuel.fl_simplex = 0 } with
  | Ok _ -> Alcotest.fail "starved simplex produced a bound"
  | Error m ->
    checkb ("reported as divergence: " ^ m) true (contains m "diverged")

let test_bb_fuel_stays_sound () =
  (* branch & bound exhaustion is NOT a refusal: the solver falls back
     to the LP-relaxation bound, which is sound (>= every execution)
     just not exact. The report must say so and still dominate the
     simulator. *)
  match analyze_with { Wcet.Fuel.default with Wcet.Fuel.fl_bb_nodes = 0 } with
  | Error m -> Alcotest.fail ("b&b exhaustion refused: " ^ m)
  | Ok r ->
    let b = Lazy.force built in
    List.iter
      (fun seed ->
         let sim =
           Fcstack.Chain.simulate b (Minic.Interp.seeded_world ~seed ())
         in
         let cycles = sim.Target.Sim.rr_stats.Target.Sim.cycles in
         checkb
           (Printf.sprintf "relaxation bound %d >= simulated %d"
              r.Wcet.Report.rp_wcet cycles)
           true
           (r.Wcet.Report.rp_wcet >= cycles))
      [ 1; 2; 3 ]

let test_default_fuel_unchanged () =
  (* the default budgets equal the old hard-coded limits: explicit
     default fuel and implicit fuel must produce identical reports *)
  Alcotest.check Alcotest.bool "default fuel = no fuel argument" true
    (analyze_with Wcet.Fuel.default
     = (let b = Lazy.force built in
        match
          Wcet.Driver.analyze b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
        with
        | r -> Ok r
        | exception Wcet.Driver.Error m -> Error m))

let test_sim_fuel_diag () =
  (* a starved simulator budget surfaces as a Sim-stage diagnostic from
     the contained chain, never as an escaping exception *)
  let name, src = List.hd (named_workload ~nodes:1 ~seed:77) in
  let config =
    Fcstack.Toolchain.of_session_request Fcstack.Toolchain.default_session
      (Fcstack.Toolchain.request_opts ~worlds:2 ~sim_fuel:1 ())
  in
  match Fcstack.Par.chain_node ~config name src with
  | Ok _ -> Alcotest.fail "1-step simulation budget succeeded"
  | Error d ->
    Alcotest.check Alcotest.string "Sim stage" "sim"
      (Fcstack.Diag.stage_name d.Fcstack.Diag.d_stage);
    checkb ("mentions the budget: " ^ d.Fcstack.Diag.d_message) true
      (contains d.Fcstack.Diag.d_message "budget")

(* ---- refusals and the cache ---- *)

let test_refusal_never_cached () =
  (* a fuel-starved refusal must not poison the cache: analyzing under
     default fuel afterwards (same cache) succeeds, and the budgets
     live in the content key so the two runs never share entries *)
  let cache = Wcet.Memo.create () in
  let b = Lazy.force built in
  let starved = Wcet.Fuel.starved in
  (match
     Wcet.Driver.analyze ~cache ~fuel:starved b.Fcstack.Chain.b_asm
       b.Fcstack.Chain.b_layout
   with
   | _ -> Alcotest.fail "starved analysis produced a bound"
   | exception Wcet.Driver.Error _ -> ());
  let entries_after_refusal = Wcet.Memo.length cache in
  Alcotest.check Alcotest.int "refusal cached nothing for the entry" 0
    entries_after_refusal;
  (match
     Wcet.Driver.analyze ~cache b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
   with
   | r -> checkb "default fuel succeeds on the same cache" true
            (r.Wcet.Report.rp_wcet > 0)
   | exception Wcet.Driver.Error m ->
     Alcotest.fail ("default-fuel analysis failed after a refusal: " ^ m));
  (* and the refusal still refuses — nothing was served across budgets *)
  match
    Wcet.Driver.analyze ~cache ~fuel:starved b.Fcstack.Chain.b_asm
      b.Fcstack.Chain.b_layout
  with
  | _ -> Alcotest.fail "starved analysis served a cached success"
  | exception Wcet.Driver.Error _ -> ()

let test_fuel_widens_memo_key () =
  let b = Lazy.force built in
  let f = List.hd b.Fcstack.Chain.b_asm.Target.Asm.pr_funcs in
  let lay = b.Fcstack.Chain.b_layout in
  let k_default = Wcet.Memo.key lay ~base:0 f in
  let k_same = Wcet.Memo.key ~fuel:Wcet.Fuel.default lay ~base:0 f in
  let k_starved = Wcet.Memo.key ~fuel:Wcet.Fuel.starved lay ~base:0 f in
  checkb "default fuel = implicit fuel" true
    (Wcet.Memo.digest k_default = Wcet.Memo.digest k_same);
  checkb "different budgets, different keys" true
    (Wcet.Memo.digest k_default <> Wcet.Memo.digest k_starved)

(* ---- exit-code contract ---- *)

let test_exit_codes () =
  let check = Alcotest.check Alcotest.int in
  check "all ok" 0 (Fcstack.Diag.exit_code ~total:4 ~failed:0);
  check "partial" 1 (Fcstack.Diag.exit_code ~total:4 ~failed:3);
  check "total failure" 2 (Fcstack.Diag.exit_code ~total:4 ~failed:4);
  check "single-file failure is total" 2
    (Fcstack.Diag.exit_code ~total:1 ~failed:1);
  check "empty run is ok" 0 (Fcstack.Diag.exit_code ~total:0 ~failed:0)

(* ---- the chaos matrix ---- *)

(* the legs every run reports, in report order; the daemon legs follow
   them when an fcd binary is given *)
let in_process_legs =
  [ "j1/nocache"; "j4/nocache"; "j1/memcache"; "j4/memcache";
    "j4/stream/memcache"; "truncated-store"; "enospc-store" ]

let daemon_legs =
  [ "fcd-kill-restart"; "oversized-frame"; "slow-loris";
    "sigstop-deadline"; "kill-under-load" ]

let test_chaos_matrix () =
  let r = Fcstack.Chaos.run ~seed:20260806 ~nodes:10 ~victims:3 () in
  Alcotest.check Alcotest.int "three victims" 3
    (List.length r.Fcstack.Chaos.ch_victims);
  Alcotest.check (Alcotest.list Alcotest.string) "no containment violations"
    [] r.Fcstack.Chaos.ch_problems;
  Alcotest.check (Alcotest.list Alcotest.string) "in-process legs, in order"
    in_process_legs r.Fcstack.Chaos.ch_legs

(* the same seeded matrix must hold under the OMT and Both engines:
   fault containment is engine-independent (survivors byte-identical
   within the leg's engine, victims named, store corruption a miss) *)
let test_chaos_matrix_engines () =
  List.iter
    (fun engine ->
       let r =
         Fcstack.Chaos.run ~seed:20260806 ~nodes:6 ~victims:2 ~engine ()
       in
       Alcotest.check Alcotest.int
         (Wcet.Report.engine_name engine ^ ": two victims") 2
         (List.length r.Fcstack.Chaos.ch_victims);
       Alcotest.check (Alcotest.list Alcotest.string)
         (Wcet.Report.engine_name engine ^ ": no containment violations")
         [] r.Fcstack.Chaos.ch_problems)
    [ Wcet.Report.Omt; Wcet.Report.Both ]

(* the server leg: a real fcd child SIGKILLed mid-request-stream must
   surface as a transport failure, the retry after restart must
   succeed against the same disk store, and every final response must
   be byte-identical to a cold in-process batch (the daemon binary is
   located relative to the test executable inside the dune tree) *)
let test_chaos_server_leg () =
  match Fcstack.Service.sibling_exe "fcd.exe" with
  | None -> Alcotest.fail "fcd.exe not found next to the test executable"
  | Some fcd_exe ->
    let r =
      Fcstack.Chaos.run ~seed:20260806 ~nodes:6 ~victims:2 ~fcd_exe ()
    in
    (* the full hostile-input matrix ran: kill/restart plus the four
       resilience legs, and the always-on store-fault legs *)
    List.iter
      (fun leg ->
         Alcotest.check Alcotest.bool (leg ^ " leg ran") true
           (List.mem leg r.Fcstack.Chaos.ch_legs))
      [ "fcd-kill-restart"; "oversized-frame"; "slow-loris";
        "sigstop-deadline"; "kill-under-load"; "truncated-store";
        "enospc-store" ];
    Alcotest.check (Alcotest.list Alcotest.string) "all legs, in order"
      (in_process_legs @ daemon_legs) r.Fcstack.Chaos.ch_legs;
    Alcotest.check (Alcotest.list Alcotest.string) "no containment violations"
      [] r.Fcstack.Chaos.ch_problems

(* a daemon binary that cannot be spawned is a problem every daemon leg
   reports, never an exception escaping [run], and no leg directory of
   this process survives the run *)
let test_chaos_missing_daemon () =
  let r =
    Fcstack.Chaos.run ~seed:20260806 ~nodes:2 ~victims:1
      ~fcd_exe:"/nonexistent/fcd.exe" ()
  in
  List.iter
    (fun leg ->
       checkb (leg ^ " reports a problem") true
         (List.exists
            (String.starts_with ~prefix:(leg ^ ": "))
            r.Fcstack.Chaos.ch_problems))
    daemon_legs;
  let suffix = Printf.sprintf "-%d" (Unix.getpid ()) in
  Alcotest.check (Alcotest.list Alcotest.string) "no leg directory left" []
    (List.filter
       (fun f ->
          String.starts_with ~prefix:"fcchaos-" f
          && String.ends_with ~suffix f)
       (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ()))))

(* ---- containment property: survivors are byte-identical ---- *)

let survivors_identical_prop =
  QCheck.Test.make ~count:4
    ~name:"chaos: survivors byte-identical across jobs x cache"
    QCheck.small_int
    (fun seed ->
       let nodes = 5 in
       let named = named_workload ~nodes ~seed:(3000 + seed) in
       let plan = Fcstack.Chaos.make_plan ~seed ~nodes ~victims:2 in
       let indexed = List.mapi (fun i x -> (i, x)) named in
       let run_leg (jobs : int) (cache : Wcet.Memo.t option) =
         let config =
           Fcstack.Toolchain.of_session_request
             (Fcstack.Toolchain.session ~jobs ?cache ())
             (Fcstack.Toolchain.request_opts ~worlds:2 ())
         in
         Fcstack.Par.map_list ~jobs
           (fun (i, (name, src)) ->
              match List.assoc_opt i plan with
              | None -> Fcstack.Par.chain_node ~config name src
              | Some fault ->
                let config =
                  if fault = Fcstack.Chaos.Ffuel then
                    { config with
                      Fcstack.Toolchain.analysis_fuel = Wcet.Fuel.starved }
                  else config
                in
                Fcstack.Par.chain_node ~config name
                  (Fcstack.Chaos.apply_fault fault src))
           indexed
       in
       let reference =
         List.map
           (fun (name, src) ->
              match
                Fcstack.Par.chain_node
                  ~config:
                    (Fcstack.Toolchain.of_session_request
                       Fcstack.Toolchain.default_session
                       (Fcstack.Toolchain.request_opts ~worlds:2 ()))
                  name src
              with
              | Ok r -> Fcstack.Chaos.render_result r
              | Error d ->
                QCheck.Test.fail_reportf "reference failed: %s"
                  (Fcstack.Diag.to_string d))
           named
       in
       List.for_all
         (fun outcomes ->
            List.for_all2
              (fun (i, (name, _)) outcome ->
                 match List.assoc_opt i plan, outcome with
                 | None, Ok r ->
                   Fcstack.Chaos.render_result r = List.nth reference i
                 | Some _, Error d -> d.Fcstack.Diag.d_node = name
                 | None, Error _ | Some _, Ok _ -> false)
              indexed outcomes)
         [ run_leg 1 None;
           run_leg 4 None;
           run_leg 1 (Some (Wcet.Memo.create ()));
           run_leg 4 (Some (Wcet.Memo.create ())) ])

let suite =
  [ ("chaos: starved widening fixpoint refuses", `Quick,
     test_widen_fuel_refuses);
    ("chaos: starved simplex refuses", `Quick, test_simplex_fuel_refuses);
    ("chaos: b&b exhaustion falls back to a sound bound", `Quick,
     test_bb_fuel_stays_sound);
    ("chaos: default fuel = old hard-coded limits", `Quick,
     test_default_fuel_unchanged);
    ("chaos: starved simulator budget is a Sim diagnostic", `Quick,
     test_sim_fuel_diag);
    ("chaos: a refusal is never cached", `Quick, test_refusal_never_cached);
    ("chaos: fuel budgets widen the memo key", `Quick,
     test_fuel_widens_memo_key);
    ("chaos: exit-code contract", `Quick, test_exit_codes);
    ("chaos: full fault-injection matrix", `Slow, test_chaos_matrix);
    ("chaos: matrix holds under the OMT and Both engines", `Slow,
     test_chaos_matrix_engines);
    ("chaos: fcd kill/restart server leg", `Slow, test_chaos_server_leg);
    ("chaos: an unspawnable daemon is a reported problem", `Slow,
     test_chaos_missing_daemon);
    QCheck_alcotest.to_alcotest survivors_identical_prop ]
