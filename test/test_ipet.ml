(* Tests of the IPET path analysis: the longest-path pass over the loop
   nest ([Ipet.flow_bound]) must reach exactly the optimum the exact
   simplex with branch & bound ([Ipet_ref.solve_system]) finds on the
   same flow system. The property runs over generated programs, whose
   functions contain nested loops, under all four compilers; the
   hand-built CFGs pin the shapes the exactness argument turns on, and
   the refusals both solvers share. *)

module Asm = Target.Asm
module Cfg = Wcet.Cfg
module Ipet = Wcet.Ipet

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A solver's answer: the flow cycles and whether they are the integral
   optimum, or the refusal message. *)
type answer = (int * bool, string) result

let pass ?fuel cfg pl loops bounds : answer =
  match Ipet.flow_bound ?fuel cfg pl loops bounds with
  | v -> Ok (v, true)
  | exception Ipet.Analysis_failed m -> Error m

let simplex cfg pl loops bounds : answer =
  match Ipet_ref.solve_system (Ipet_ref.build_system cfg pl loops bounds) with
  | s -> Ok (s.Lp_ref.is_objective_bound, s.Lp_ref.is_exact)
  | exception Ipet.Analysis_failed m -> Error m

let show : answer -> string = function
  | Ok (v, exact) -> Printf.sprintf "%d%s" v (if exact then "" else " (relaxed)")
  | Error m -> m

(* ---- the pass against the simplex, on generated programs ---- *)

(* The analysis phases before path analysis, as [Wcet.Driver] runs them;
   [None] when a loop has no derivable bound. *)
let phases (b : Fcstack.Chain.built) (f : Asm.func) =
  let lay = b.Fcstack.Chain.b_layout in
  let cfg =
    Cfg.build f.Asm.fn_name
      (Hashtbl.find lay.Target.Layout.lay_code f.Asm.fn_name)
      f.Asm.fn_code
  in
  let dom = Wcet.Dom.compute cfg in
  let loops = Wcet.Loops.compute cfg dom in
  let va = Wcet.Valueanalysis.analyze cfg in
  match Wcet.Boundanalysis.analyze cfg dom loops va with
  | Error _ -> None
  | Ok bounds ->
    let ca = Wcet.Cacheanalysis.analyze cfg va lay in
    let must = Wcet.Mustcache.analyze cfg va lay in
    let ca = Wcet.Cacheanalysis.refine ca (Wcet.Mustcache.block_hits must) in
    Some (cfg, Wcet.Pipeline.analyze cfg ca, loops, bounds)

(* Random costs on a CFG of [nb] blocks, of either sign (so a loop can
   be worth skipping). *)
let random_costs st nb =
  { Wcet.Pipeline.pl_block_cost =
      Array.init nb (fun _ -> Random.State.int st 40 - 12);
    pl_edge_cost =
      Array.init nb (fun _ -> (Random.State.int st 4, Random.State.int st 4)) }

(* Besides the analyzer's own costs and bounds, each function is solved
   under random ones on the same CFG: random costs and bounds from 0
   up. *)
let pass_matches_simplex seed (cfg, pl, loops, bounds) : bool =
  let st = Random.State.make [| seed; Cfg.num_blocks cfg |] in
  let nb = Cfg.num_blocks cfg in
  let random_bounds () =
    List.map
      (fun lb -> { lb with Wcet.Boundanalysis.lb_bound = Random.State.int st 5 })
      bounds
  in
  List.for_all
    (fun (pl, bounds) ->
       let p = pass cfg pl loops bounds and s = simplex cfg pl loops bounds in
       p = s
       || QCheck.Test.fail_reportf "%s: pass %s, simplex %s" cfg.Cfg.c_fname
            (show p) (show s))
    [ (pl, bounds); (random_costs st nb, bounds);
      (random_costs st nb, random_bounds ()) ]

let pass_equals_simplex_prop =
  QCheck.Test.make ~count:300
    ~name:"ipet: longest-path pass = simplex ILP (value and exactness)"
    (QCheck.int_bound 0xFFFF)
    (fun seed ->
       let p = Testlib.Gen.gen_program seed in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            List.for_all
              (fun f ->
                 match phases b f with
                 | None -> true
                 | Some sys -> pass_matches_simplex seed sys)
              b.Fcstack.Chain.b_asm.Asm.pr_funcs)
         Fcstack.Chain.all_compilers)

(* ---- hand-built CFGs ---- *)

(* Block [b] has successors [succs.(b)], costs [costs.(b)] cycles and no
   branch penalty; the blocks in [exits] end the function. Block 0 is
   the entry. *)
let handmade (succs : (int * Cfg.edge_kind) list array) (exits : int list)
    (costs : int array) =
  let cfg =
    { Cfg.c_blocks =
        Array.mapi
          (fun b s ->
             { Cfg.b_id = b; b_instrs = [||]; b_addr = 4 * b; b_size = 4;
               b_succs = s; b_is_exit = List.mem b exits })
          succs;
      c_entry = 0;
      c_fname = "h" }
  in
  let pl =
    { Wcet.Pipeline.pl_block_cost = costs;
      pl_edge_cost = Array.map (fun _ -> (0, 0)) costs }
  in
  (cfg, pl, Wcet.Loops.compute cfg (Wcet.Dom.compute cfg))

let bounds_of (hb : (int * int) list) : Wcet.Boundanalysis.loop_bound list =
  List.map
    (fun (h, b) ->
       { Wcet.Boundanalysis.lb_header = h; lb_bound = b;
         lb_source = Wcet.Boundanalysis.Bannot })
    hb

(* Both solvers must give [expected] on the CFG. *)
let solves_to (what : string) (expected : answer) (cfg, pl, loops) hb =
  let bounds = bounds_of hb in
  checks (what ^ ": pass") (show expected) (show (pass cfg pl loops bounds));
  checks (what ^ ": simplex") (show expected) (show (simplex cfg pl loops bounds))

let t = Cfg.Etaken and f = Cfg.Efall

(* A loop at B1 whose body B2 either returns to the header or breaks to
   B4 (10 cycles), while the header's own exit goes to B3 (1 cycle).
   Four cycles of 5, then the costly break: 1 + 20 + 2 + 3 + 10 + 1. *)
let split_exits =
  handmade
    [| [ (1, f) ]; [ (2, f); (3, t) ]; [ (1, t); (4, f) ]; [ (5, t) ];
       [ (5, f) ]; [] |]
    [ 5 ] [| 1; 2; 3; 1; 10; 1 |]

let test_split_exits () =
  solves_to "bound 4" (Ok (37, true)) split_exits [ (1, 4) ];
  (* no cycle at all: the path straight through still takes the break *)
  solves_to "bound 0" (Ok (17, true)) split_exits [ (1, 0) ]

(* An outer loop at B1 around an inner one at B3. The inner body B4
   either repeats the inner loop or breaks out of both loops to B6; B5
   closes the outer loop. An inner cycle is worth 6, so each entry of
   B3 adds 12; an outer cycle is B1 B2 (12) B3 B5, worth 16, taken 3
   times; the final pass breaks out: 1 + 48 + 1 + 1 + 12 + 1 + 5 + 1. *)
let double_break =
  handmade
    [| [ (1, f) ]; [ (2, f); (6, t) ]; [ (3, f) ]; [ (4, f); (5, t) ];
       [ (3, t); (6, f) ]; [ (1, t) ]; [] |]
    [ 6 ] [| 1; 1; 1; 1; 5; 1; 1 |]

let test_double_break () =
  solves_to "nested" (Ok (70, true)) double_break [ (1, 3); (3, 2) ];
  (* without the inner cycles' worth, an outer cycle is worth 4 *)
  solves_to "inner bound 0" (Ok (1 + 12 + 1 + 1 + 1 + 5 + 1, true))
    double_break [ (1, 3); (3, 0) ]

(* A loop headed at the entry block: the function's own entry counts as
   one entry of the loop (the [+b] right-hand side). Six passes through
   B0 B1, then the exit: 6 * (2 + 3) + 1. *)
let entry_loop =
  handmade [| [ (1, f) ]; [ (0, t); (2, f) ]; [] |] [ 2 ] [| 2; 3; 1 |]

let test_entry_loop () =
  solves_to "entry header" (Ok (31, true)) entry_loop [ (0, 5) ];
  solves_to "entry header, bound 0" (Ok (6, true)) entry_loop [ (0, 0) ]

(* A negative cycle is not taken, however large its bound. *)
let test_negative_cycle () =
  let cfg, pl, loops = entry_loop in
  let pl = { pl with Wcet.Pipeline.pl_block_cost = [| 2; -9; 1 |] } in
  solves_to "negative cycle" (Ok (-6, true)) (cfg, pl, loops) [ (0, 5) ]

(* B1 spins forever (a bounded self-loop with no way out): no flow can
   reach it, however costly. Without B2 nothing reaches an exit. *)
let test_dead_region () =
  solves_to "dead region skipped" (Ok (2, true))
    (handmade [| [ (1, t); (2, f) ]; [ (1, t) ]; [] |] [ 2 ] [| 1; 100; 1 |])
    [ (1, 3) ];
  solves_to "no exit reachable" (Error "IPET infeasible")
    (handmade [| [ (1, t) ]; [ (1, t) ] |] [] [| 1; 100 |])
    [ (1, 3) ]

let test_refusals () =
  let _, _, loops = double_break in
  let first = (List.hd loops.Wcet.Loops.loops).Wcet.Loops.l_header in
  solves_to "no bound at all"
    (Error (Printf.sprintf "loop at B%d has no bound" first))
    double_break [];
  checki "two loops" 2 (List.length loops.Wcet.Loops.loops);
  solves_to "inner bound missing" (Error "loop at B3 has no bound")
    double_break [ (1, 3) ];
  solves_to "outer bound missing" (Error "loop at B1 has no bound")
    double_break [ (3, 2) ];
  solves_to "edgeless" (Error "no edges (missing blr?)")
    (handmade [| [] |] [] [| 1 |]) [];
  solves_to "bound past the integers" (Error "LP arithmetic overflow")
    split_exits [ (1, max_int) ]

(* One unit of [fl_simplex] per visited block: each loop's body, then
   every reachable block. *)
let test_fuel () =
  let cfg, pl, loops = entry_loop in
  let bounds = bounds_of [ (0, 5) ] in
  let fuel n = { Wcet.Fuel.default with Wcet.Fuel.fl_simplex = n } in
  checks "2 + 3 visits" "31" (show (pass ~fuel:(fuel 5) cfg pl loops bounds));
  Alcotest.check_raises "one short" (Wcet.Fuel.Exhausted "IPET longest path")
    (fun () -> ignore (pass ~fuel:(fuel 4) cfg pl loops bounds))

(* ---- the OMT search against the reference branch & bound ---- *)

(* [Smt.search] over the pass and the reference's branch & bound over
   the flow system with the cut rows, as answers. *)
let search ?fuel cfg pl loops bounds cuts : answer =
  match Wcet.Smt.search ?fuel (Ipet.sweep cfg pl loops bounds) cuts with
  | s -> Ok (s.Wcet.Smt.flow, s.Wcet.Smt.exact)
  | exception Ipet.Analysis_failed m -> Error m

let simplex_cut cfg pl loops bounds cuts : answer =
  match
    let sys = Ipet_ref.build_system cfg pl loops bounds in
    Ipet_ref.solve_system ~extra:(Ipet_ref.cut_rows sys cuts) sys
  with
  | s -> Ok (s.Lp_ref.is_objective_bound, s.Lp_ref.is_exact)
  | exception Ipet.Analysis_failed m -> Error m

(* Random cuts over the edges of reachable blocks outside every loop
   body — the edges [Smt.derive_cuts] may name — under the analyzer's
   costs and under random ones. Where the reference's branch & bound
   ran out of nodes it proves nothing, and the case is skipped. *)
let search_matches_simplex seed (cfg, pl, loops, bounds) : bool =
  let st = Random.State.make [| seed; Cfg.num_blocks cfg; 7 |] in
  let nb = Cfg.num_blocks cfg in
  let in_loop = Array.make nb false in
  List.iter
    (fun l -> List.iter (fun b -> in_loop.(b) <- true) l.Wcet.Loops.l_body)
    loops.Wcet.Loops.loops;
  let edges =
    Cfg.reverse_postorder cfg
    |> List.filter (fun b -> not in_loop.(b))
    |> List.concat_map (fun b ->
      List.map (fun (_, kind) -> (b, kind)) (Cfg.successors cfg b))
    |> Array.of_list
  in
  let random_cuts () =
    if Array.length edges < 2 then []
    else
      List.init (Random.State.int st 6) (fun _ ->
        let pick () = edges.(Random.State.int st (Array.length edges)) in
        (pick (), pick ()))
      |> List.filter (fun (a, b) -> a <> b)
  in
  List.for_all
    (fun (pl, cuts) ->
       let r = simplex_cut cfg pl loops bounds cuts in
       match r with
       | Ok (_, false) -> true
       | _ ->
         let p = search cfg pl loops bounds cuts in
         p = r
         || QCheck.Test.fail_reportf "%s, %d cuts: search %s, simplex %s"
              cfg.Cfg.c_fname (List.length cuts) (show p) (show r))
    [ (pl, random_cuts ()); (random_costs st nb, random_cuts ()) ]

let search_equals_simplex_prop =
  QCheck.Test.make ~count:100
    ~name:"omt search: branch & bound over the pass = simplex ILP with cuts"
    (QCheck.int_bound 0xFFFF)
    (fun seed ->
       let p = Testlib.Gen.gen_program seed in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            List.for_all
              (fun f ->
                 match phases b f with
                 | None -> true
                 | Some sys -> search_matches_simplex seed sys)
              b.Fcstack.Chain.b_asm.Asm.pr_funcs)
         Fcstack.Chain.all_compilers)

(* Three diamonds in a row, each with a costly arm (10 cycles, taken)
   and a cheap one (1 cycle, fall), and every two costly arms in
   conflict. The root path takes all three costly arms. Forbidding one
   of them leaves a path that still takes two (25), so the search must
   branch again below it before it finds the best path that keeps every
   cut: one costly arm (16). *)
let diamonds =
  handmade
    [| [ (1, t); (2, f) ]; [ (3, f) ]; [ (3, f) ];
       [ (4, t); (5, f) ]; [ (6, f) ]; [ (6, f) ];
       [ (7, t); (8, f) ]; [ (9, f) ]; [ (9, f) ]; [] |]
    [ 9 ] [| 1; 10; 1; 1; 10; 1; 1; 10; 1; 1 |]

let diamond_cuts = [ ((0, t), (3, t)); ((0, t), (6, t)); ((3, t), (6, t)) ]

let test_search_two_levels () =
  let cfg, pl, loops = diamonds in
  let expected = Ok (16, true) in
  checks "simplex" (show expected)
    (show (simplex_cut cfg pl loops [] diamond_cuts));
  checks "search" (show expected) (show (search cfg pl loops [] diamond_cuts));
  checks "ipet" "34" (show (pass cfg pl loops []));
  (* two children of the root at 25, and two at 16 below each of them:
     a node at 25 may still hold a path worth 25 until it is branched *)
  checki "nodes" 6
    (Wcet.Smt.search (Ipet.sweep cfg pl loops []) diamond_cuts).Wcet.Smt.nodes

(* Two diamonds and every pair of their arms in conflict: no path keeps
   all cuts, although the LP relaxation (half a unit on each arm) does.
   Both solvers refuse alike. *)
let test_search_no_feasible_path () =
  let cfg, pl, loops =
    handmade
      [| [ (1, t); (2, f) ]; [ (3, f) ]; [ (3, f) ];
         [ (4, t); (5, f) ]; [ (6, f) ]; [ (6, f) ]; [] |]
      [ 6 ] [| 1; 1; 1; 1; 1; 1; 1 |]
  in
  let cuts =
    List.concat_map
      (fun a -> List.map (fun b -> ((0, a), (3, b))) [ t; f ])
      [ t; f ]
  in
  checks "simplex" "IPET infeasible" (show (simplex_cut cfg pl loops [] cuts));
  checks "search" "IPET infeasible" (show (search cfg pl loops [] cuts))

(* Out of nodes, the search stops at its costliest open node: never
   below the optimum, never above the IPET bound, and not exact. *)
let test_search_budget () =
  let cfg, pl, loops = diamonds in
  let fuel n = { Wcet.Fuel.default with Wcet.Fuel.fl_bb_nodes = n } in
  List.iter
    (fun (n, expected) ->
       checks (Printf.sprintf "%d node(s)" n) expected
         (show (search ~fuel:(fuel n) cfg pl loops [] diamond_cuts)))
    [ (0, "34 (relaxed)"); (1, "34 (relaxed)"); (2, "25 (relaxed)");
      (5, "25 (relaxed)"); (6, "16") ]

(* ---- through the driver: loop-bound annotations at the extremes ---- *)

let annotated (bound : string) : Fcstack.Chain.built =
  let p =
    Minic.Parser.parse_program
      (Printf.sprintf
         {| global int cfg; global double g;
            void m() { var int i;
              $cfg = 6;
              for (i = 0; i < $cfg) {
                __builtin_annotation("loopbound %s");
                $g = $g +. 1.0; } } main m; |}
         bound)
  in
  Minic.Typecheck.check_program_exn p;
  Fcstack.Chain.build Fcstack.Chain.Cvcomp p

let engines = [ Wcet.Report.Ipet; Wcet.Report.Omt; Wcet.Report.Both ]

let analyze engine (b : Fcstack.Chain.built) =
  Wcet.Driver.analyze ~engine b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout

let test_hostile_loopbound () =
  let b = annotated (string_of_int max_int) in
  List.iter
    (fun engine ->
       match analyze engine b with
       | r ->
         Alcotest.failf "bounded at %d cycles" r.Wcet.Report.rp_wcet
       | exception Wcet.Driver.Error m ->
         checks (Wcet.Report.engine_name engine)
           "path analysis: LP arithmetic overflow" m)
    engines

let test_large_loopbound () =
  let b = annotated "1000000000000" in
  List.iter
    (fun engine ->
       let r = analyze engine b in
       checki (Wcet.Report.engine_name engine) 17000000000114
         r.Wcet.Report.rp_wcet;
       checkb "exact" true r.Wcet.Report.rp_exact_ilp)
    engines

(* Two exclusive guards (OMT cuts them) and a loop bounded past the
   reference simplex's 54-bit range. The OMT search runs on the pass's
   native integers, so every engine bounds it: the cut-free IPET pass,
   and under OMT and Both a bound the cut makes strictly tighter. *)
let test_loopbound_past_simplex () =
  let p =
    Minic.Parser.parse_program
      {| volatile in double s_in; volatile out double s_out;
         global int cfg; global double g;
         void m() { var double x; var double y; var int i;
           x = volatile(s_in);
           y = 0.0;
           if (x >. 10.0) { y = x +. 1.0; } else { skip; }
           if (x <. 5.0) { y = y +. 2.0; } else { skip; }
           $cfg = 6;
           for (i = 0; i < $cfg) {
             __builtin_annotation("loopbound 10000000000000000");
             $g = $g +. 1.0; }
           volatile(s_out) = y; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let b = Fcstack.Chain.build Fcstack.Chain.Cdefault_o0 p in
  let ipet = (analyze Wcet.Report.Ipet b).Wcet.Report.rp_wcet in
  checkb "ipet bounds" true (ipet > 1 lsl 54);
  List.iter
    (fun engine ->
       let name = Wcet.Report.engine_name engine in
       match analyze engine b with
       | exception Wcet.Driver.Error m -> Alcotest.failf "%s: %s" name m
       | r ->
         checkb (name ^ ": cuts found") true (r.Wcet.Report.rp_omt_cuts > 0);
         checkb (name ^ ": exact") true r.Wcet.Report.rp_exact_ilp;
         checkb
           (Printf.sprintf "%s: %d strictly below ipet %d" name
              r.Wcet.Report.rp_wcet ipet)
           true
           (r.Wcet.Report.rp_wcet < ipet && r.Wcet.Report.rp_wcet > 1 lsl 54))
    [ Wcet.Report.Omt; Wcet.Report.Both ]

let suite =
  [ QCheck_alcotest.to_alcotest pass_equals_simplex_prop;
    ("ipet: inner exits to different continuations", `Quick, test_split_exits);
    ("ipet: break out of two loop levels", `Quick, test_double_break);
    ("ipet: loop headed at the function entry", `Quick, test_entry_loop);
    ("ipet: a negative cycle is skipped", `Quick, test_negative_cycle);
    ("ipet: a region with no exit carries no flow", `Quick, test_dead_region);
    ("ipet: refusals match the simplex's", `Quick, test_refusals);
    ("ipet: one unit of fuel per visited block", `Quick, test_fuel);
    QCheck_alcotest.to_alcotest search_equals_simplex_prop;
    ("omt search: cuts broken at two levels", `Quick, test_search_two_levels);
    ("omt search: no path keeps every cut", `Quick,
     test_search_no_feasible_path);
    ("omt search: out of nodes, a sound fallback", `Quick, test_search_budget);
    ("ipet: a hostile loopbound is a refusal", `Quick, test_hostile_loopbound);
    ("ipet: a large loopbound still bounds", `Quick, test_large_loopbound);
    ("ipet: a loopbound past the simplex's range", `Quick,
     test_loopbound_past_simplex) ]
