(* Tests of the second WCET engine (Wcet.Smt, optimization modulo
   theory) and its differential oracle against the structural IPET
   engine: on any program the three-way chain
       simulated cycles <= OMT bound <= IPET bound
   must hold (the qcheck contract, over random programs x compilers),
   a hand-built infeasible-path node must be *strictly* tighter under
   OMT (the engine's reason to exist, pinned as a unit test), the
   [Both] report must agree with the two single-engine runs, and a
   starved sweep budget must refuse — never mis-bound, never cache. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build_src (text : string) : Minic.Ast.program =
  let p = Minic.Parser.parse_program text in
  Minic.Typecheck.check_program_exn p;
  p

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let analyze ?fuel ~(engine : Wcet.Report.engine) (b : Fcstack.Chain.built) :
  Wcet.Report.t =
  Wcet.Driver.analyze ?fuel ~engine b.Fcstack.Chain.b_asm
    b.Fcstack.Chain.b_layout

(* ---- the three-way oracle, on random programs ---- *)

(* sim <= omt <= ipet on every random program under every compiler
   configuration (the -O levels are the configurations). A refusal is
   out of the oracle's scope — but it must then refuse under *both*
   engines' common phases, which [cached = plain]-style equality over
   results-or-errors captures below. *)
let three_way_oracle_prop =
  QCheck.Test.make ~count:30
    ~name:"smt: sim <= OMT <= IPET on random programs x compilers"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            match analyze ~engine:Wcet.Report.Omt b with
            | omt ->
              let ipet = analyze ~engine:Wcet.Report.Ipet b in
              omt.Wcet.Report.rp_wcet <= ipet.Wcet.Report.rp_wcet
              && List.for_all
                   (fun s ->
                      let sim =
                        Fcstack.Chain.simulate b
                          (Minic.Interp.seeded_world ~seed:s ())
                      in
                      omt.Wcet.Report.rp_wcet
                      >= sim.Target.Sim.rr_stats.Target.Sim.cycles)
                   [ 1; 2; 3 ]
            | exception Wcet.Driver.Error _ -> true)
         Fcstack.Chain.all_compilers)

(* [Both] is one analysis carrying both bounds: it must agree exactly
   with the two single-engine runs, and select the OMT bound. *)
let both_agrees_prop =
  QCheck.Test.make ~count:20
    ~name:"smt: Both = (Ipet bound, Omt bound) of the single-engine runs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            match analyze ~engine:Wcet.Report.Both b with
            | both ->
              let ipet = analyze ~engine:Wcet.Report.Ipet b in
              let omt = analyze ~engine:Wcet.Report.Omt b in
              both.Wcet.Report.rp_wcet = omt.Wcet.Report.rp_wcet
              && both.Wcet.Report.rp_wcet_ipet
                 = Some ipet.Wcet.Report.rp_wcet
              && both.Wcet.Report.rp_wcet_omt = Some omt.Wcet.Report.rp_wcet
              && both.Wcet.Report.rp_omt_cuts = omt.Wcet.Report.rp_omt_cuts
            | exception Wcet.Driver.Error _ -> true)
         Fcstack.Chain.all_compilers)

(* ---- the headline win: an infeasible path, strictly tighter ---- *)

(* The classic pair: [x > 10] and [x < 5] cannot both hold, yet each
   guards real work, so the structural ILP charges both arms. The -O 0
   pattern compiler keeps every test as a branch over stack slots, so
   the cut derivation sees both guards. *)
let infeasible_src = {|
  volatile in double s_in;
  volatile out double s_out;
  void s_main() {
    var double x;
    var double y;
    x = volatile(s_in);
    y = 0.0;
    if (x >. 10.0) { y = x +. 1.0; } else { skip; }
    if (x <. 5.0)  { y = y +. 2.0; } else { skip; }
    volatile(s_out) = y;
    skip;
  }
  main s_main;
|}

let infeasible_built =
  lazy
    (Fcstack.Chain.build ~exact:true Fcstack.Chain.Cdefault_o0
       (build_src infeasible_src))

let test_strictly_tighter () =
  let b = Lazy.force infeasible_built in
  let r = analyze ~engine:Wcet.Report.Both b in
  let ipet = Option.get r.Wcet.Report.rp_wcet_ipet in
  let omt = Option.get r.Wcet.Report.rp_wcet_omt in
  checkb "at least one conflict cut derived" true
    (r.Wcet.Report.rp_omt_cuts >= 1);
  checkb
    (Printf.sprintf "omt (%d) strictly below ipet (%d)" omt ipet)
    true (omt < ipet);
  checki "the report selects the OMT bound" omt r.Wcet.Report.rp_wcet;
  (* and strictly tighter is still sound: the bound dominates the
     simulator on every tested world *)
  List.iter
    (fun seed ->
       let sim = Fcstack.Chain.simulate b (Minic.Interp.seeded_world ~seed ()) in
       let cycles = sim.Target.Sim.rr_stats.Target.Sim.cycles in
       checkb
         (Printf.sprintf "omt %d >= simulated %d" omt cycles)
         true (omt >= cycles))
    [ 1; 2; 3; 4; 5 ]

(* the engine line renders the cuts in Both mode *)
let test_report_renders_engine () =
  let b = Lazy.force infeasible_built in
  let r = analyze ~engine:Wcet.Report.Both b in
  let text = Wcet.Report.to_string r in
  checkb "report names both engines" true (contains text "both");
  checkb "report shows the oracle" true (contains text "omt <= ipet");
  let r0 = analyze ~engine:Wcet.Report.Ipet b in
  checkb "default engine keeps the legacy report shape" false
    (contains (Wcet.Report.to_string r0) "engine")

(* ---- fuel: a starved search refuses, and is never cached ---- *)

(* Every sweep of the search, the root's included, runs on the
   [fl_simplex] budget, so starving it refuses under OMT as under IPET.
   (The search's other budget, [fl_bb_nodes], only ever degrades the
   bound: see the chaos suite.) *)
let test_omt_fuel_refuses_uncached () =
  let b = Lazy.force infeasible_built in
  let starved = { Wcet.Fuel.default with Wcet.Fuel.fl_simplex = 0 } in
  let cache = Wcet.Memo.create () in
  let attempt engine =
    match
      Wcet.Driver.analyze ~cache ~fuel:starved ~engine
        b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
    with
    | _ -> Alcotest.fail "starved OMT search produced a bound"
    | exception Wcet.Driver.Error m ->
      checkb ("reported as divergence: " ^ m) true (contains m "diverged");
      checkb ("names the sweep: " ^ m) true (contains m "IPET longest path")
  in
  attempt Wcet.Report.Omt;
  attempt Wcet.Report.Omt;
  let st = Wcet.Memo.stats cache in
  checki "refusals never cached" 0 st.Wcet.Report.st_entries;
  checki "each attempt re-ran" 2 st.Wcet.Report.st_misses;
  (* the IPET engine's pass is the search's root: it refuses alike *)
  attempt Wcet.Report.Ipet

(* a cut-free function runs no search node, so even a budget of zero
   nodes degenerates to IPET exactly (no gratuitous fallback) *)
let test_no_cuts_no_queries () =
  let src =
    build_src {| global double g; void m() { $g = $g +. 1.0; } main m; |}
  in
  let b = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp src in
  let starved = { Wcet.Fuel.default with Wcet.Fuel.fl_bb_nodes = 0 } in
  let omt =
    Wcet.Driver.analyze ~fuel:starved ~engine:Wcet.Report.Omt
      b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
  in
  let ipet = analyze ~engine:Wcet.Report.Ipet b in
  checki "straight-line: omt = ipet" ipet.Wcet.Report.rp_wcet
    omt.Wcet.Report.rp_wcet;
  checkb "still exact" true omt.Wcet.Report.rp_exact_ilp;
  checki "no cuts" 0 omt.Wcet.Report.rp_omt_cuts

let suite =
  [ QCheck_alcotest.to_alcotest three_way_oracle_prop;
    QCheck_alcotest.to_alcotest both_agrees_prop;
    ("smt: infeasible path strictly tighter under OMT", `Quick,
     test_strictly_tighter);
    ("smt: report renders the engine line", `Quick,
     test_report_renders_engine);
    ("smt: starved OMT budget refuses and is never cached", `Quick,
     test_omt_fuel_refuses_uncached);
    ("smt: cut-free analysis spends no OMT fuel", `Quick,
     test_no_cuts_no_queries) ]
