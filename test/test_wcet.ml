(* Tests for the WCET analyzer: interval domain, dominators, loops, LP
   solver, loop bounds, cache analysis, and the headline soundness
   property (bound >= every simulated execution). *)

module Asm = Target.Asm

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- interval domain ---- *)

let itv_gen : Wcet.Interval.t QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun a b -> Wcet.Interval.make (min a b) (max a b))
      (int_range (-1000) 1000) (int_range (-1000) 1000))

let itv_arb = QCheck.make itv_gen ~print:Wcet.Interval.to_string

let member_gen (i : Wcet.Interval.t) (st : Random.State.t) : int =
  i.Wcet.Interval.lo
  + (if i.Wcet.Interval.hi = i.Wcet.Interval.lo then 0
     else Random.State.int st (i.Wcet.Interval.hi - i.Wcet.Interval.lo + 1))

let interval_sound_prop (name : string)
    (abs_op : Wcet.Interval.t -> Wcet.Interval.t -> Wcet.Interval.t)
    (conc_op : int -> int -> int) =
  QCheck.Test.make ~count:300 ~name:("interval " ^ name ^ " sound")
    (QCheck.pair itv_arb itv_arb)
    (fun (a, b) ->
       let st = Random.State.make [| 7 |] in
       let result = abs_op a b in
       List.for_all
         (fun _ ->
            let x = member_gen a st and y = member_gen b st in
            Wcet.Interval.contains result (conc_op x y))
         (List.init 20 (fun i -> i)))

let itv_add_prop = interval_sound_prop "add" Wcet.Interval.add ( + )
let itv_sub_prop = interval_sound_prop "sub" Wcet.Interval.sub ( - )
let itv_mul_prop = interval_sound_prop "mul" Wcet.Interval.mul ( * )

let itv_refine_prop =
  QCheck.Test.make ~count:300 ~name:"interval refine_cmp sound"
    (QCheck.pair itv_arb itv_arb)
    (fun (a, b) ->
       let st = Random.State.make [| 13 |] in
       List.for_all
         (fun cmp ->
            let refined = Wcet.Interval.refine_cmp cmp a b in
            List.for_all
              (fun _ ->
                 let x = member_gen a st and y = member_gen b st in
                 let holds =
                   Minic.Value.eval_comparison cmp (compare x y)
                 in
                 (not holds)
                 ||
                 (match refined with
                  | Some r -> Wcet.Interval.contains r x
                  | None -> false))
              (List.init 15 (fun i -> i)))
         [ Minic.Ast.Ceq; Minic.Ast.Cne; Minic.Ast.Clt; Minic.Ast.Cle;
           Minic.Ast.Cgt; Minic.Ast.Cge ])

(* ---- dominators ---- *)

(* random small CFG as an assembly function *)
let random_cfg_code (seed : int) : Asm.instr list =
  let st = Random.State.make [| seed; 0xD0 |] in
  let nblocks = 3 + Random.State.int st 6 in
  let code = ref [] in
  for b = 0 to nblocks - 1 do
    code := Asm.Plabel b :: !code;
    code := Asm.Paddi (3, 0, Int32.of_int b) :: !code;
    (* branch to a random later-or-equal block to stay reducible-ish;
       irreducibility is fine for the dominator comparison *)
    let t1 = Random.State.int st nblocks in
    code := Asm.Pcmpwi (3, 0l) :: !code;
    code := Asm.Pbc (Asm.BT Asm.CRlt, t1) :: !code
  done;
  code := Asm.Pblr :: !code;
  List.rev !code

let dominators_prop =
  QCheck.Test.make ~count:100 ~name:"dominators: CHK = naive reachability"
    QCheck.small_int
    (fun seed ->
       let cfg = Wcet.Cfg.build "d" 0x1000 (random_cfg_code (seed land 0xFFFF)) in
       let dom = Wcet.Dom.compute cfg in
       let reachable = Wcet.Cfg.reverse_postorder cfg in
       List.for_all
         (fun a ->
            List.for_all
              (fun b ->
                 Wcet.Dom.dominates dom a b = Wcet.Dom.dominates_naive cfg a b)
              reachable)
         reachable)

(* ---- the shared dominator and loop toolkit ---- *)

(* Random graphs of up to 8 nodes with up to 3 successors each, so
   unreachable nodes, self-loops, duplicate edges and irreducible cycles
   all occur. Each edge is labelled with its own number. *)
let flow_graph_arb : int Flow.graph QCheck.arbitrary =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      pair (int_bound (n - 1))
        (array_repeat n (list_size (int_bound 3) (int_bound (n - 1))))
      >|= fun (entry, succs) ->
      let id = ref 0 in
      { Flow.entry;
        succs = Array.map (List.map (fun s -> incr id; (s, !id))) succs })
  in
  let print g =
    Printf.sprintf "entry %d: %s" g.Flow.entry
      (String.concat "; "
         (Array.to_list
            (Array.mapi
               (fun b ss ->
                  Printf.sprintf "%d -> [%s]" b
                    (String.concat "," (List.map (fun (s, _) -> string_of_int s) ss)))
               g.Flow.succs)))
  in
  QCheck.make gen ~print

(* [Flow.loops] against the all-edges scan it replaced ([Flow_ref]):
   the same loops in the same order, edge lists included, or the same
   [Irreducible] payload. *)
let same_loops (g : int Flow.graph) : bool =
  let d = Flow.dominators g in
  let run scan =
    match scan () with
    | loops -> Ok loops
    | exception Flow.Irreducible (b, s) -> Error (b, s)
  in
  run (fun () -> Flow.loops d) = run (fun () -> Flow_ref.loops g d)

let flow_toolkit_prop =
  QCheck.Test.make ~count:500
    ~name:"flow: dominators, loop bodies and irreducibility match oracles"
    flow_graph_arb
    (fun g ->
       let n = Array.length g.Flow.succs in
       let nodes = List.init n Fun.id in
       let rank = Array.make n (-1) in
       List.iteri (fun i b -> rank.(b) <- i) (Flow.reverse_postorder g);
       let edges =
         List.concat_map
           (fun b ->
              if rank.(b) < 0 then []
              else List.map (fun (s, k) -> (b, s, k)) g.Flow.succs.(b))
           nodes
       in
       let is_back (b, s, _) = Flow.dominates_naive g s b in
       (* does [x] reach [y] without passing through [avoid]? *)
       let reaches ~avoid x y =
         let seen = Array.make n false in
         let rec go v =
           v <> avoid && (not seen.(v))
           && (seen.(v) <- true;
               v = y || List.exists (fun (s, _) -> go s) g.Flow.succs.(v))
         in
         go x
       in
       let into h keep =
         List.sort compare
           (List.filter_map
              (fun ((b, s, k) as e) -> if s = h && keep e then Some (b, k) else None)
              edges)
       in
       let loop_ok (l : int Flow.loop) =
         let h = l.Flow.l_header in
         l.Flow.l_body
         = List.filter
             (fun x ->
                rank.(x) >= 0
                && (x = h
                    || List.exists
                         (fun (src, _) -> reaches ~avoid:h x src)
                         l.Flow.l_back_edges))
             nodes
         && List.sort compare l.Flow.l_back_edges = into h is_back
         && List.sort compare l.Flow.l_entry_edges
            = into h (fun (b, _, _) -> not (List.mem b l.Flow.l_body))
       in
       let irreducible =
         List.exists
           (fun ((b, s, _) as e) -> rank.(s) <= rank.(b) && not (is_back e))
           edges
       in
       let d = Flow.dominators g in
       List.for_all
         (fun a ->
            List.for_all
              (fun b -> Flow.dominates d a b = Flow.dominates_naive g a b)
              nodes)
         nodes
       &&
       same_loops g
       &&
       match Flow.loops d with
       | exception Flow.Irreducible _ -> irreducible
       | loops ->
         (not irreducible)
         && List.for_all loop_ok loops
         && List.sort compare (List.map (fun l -> l.Flow.l_header) loops)
            = List.sort_uniq compare
                (List.filter_map
                   (fun ((_, s, _) as e) -> if is_back e then Some s else None)
                   edges))

(* Graphs of up to 24 nodes built to mix the cases the scan must tell
   apart. In a hidden order from the entry, each node but the last few
   gets a tree edge from an earlier one; then come extra forward edges,
   a few edges to an earlier or the same node (back edges, second loop
   entries, self-loops), and the last few nodes, off the tree, stay
   unreachable unless such an edge reaches them. The node numbers are a
   random permutation of the hidden order, so the ascending scan does
   not follow reverse postorder. *)
let mixed_flow_graph (rng : Random.State.t) : int Flow.graph =
  let int k = Random.State.int rng k in
  let n = 2 + int 23 in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let succs = Array.make n [] in
  let add a b = succs.(perm.(a)) <- perm.(b) :: succs.(perm.(a)) in
  let off_tree = int (1 + (n / 4)) in
  for i = 1 to n - 1 - off_tree do add (int i) i done;
  for _ = 1 to int n do
    let a = int n and b = int n in
    if a < b then add a b
  done;
  for _ = 1 to int 4 do
    let b = int n in
    add (b + int (n - b)) b
  done;
  let id = ref 0 in
  { Flow.entry = perm.(0);
    succs = Array.map (List.map (fun s -> incr id; (s, !id))) succs }

let test_flow_loops_mixed () =
  let rng = Random.State.make [| 2026 |] in
  let irreducible = ref 0 and with_loops = ref 0 in
  let self_loops = ref 0 and unreachable = ref 0 in
  for k = 1 to 2000 do
    let g = mixed_flow_graph rng in
    let reachable = Flow.reverse_postorder g in
    if List.length reachable < Array.length g.Flow.succs then incr unreachable;
    if List.exists (fun b -> List.mem_assoc b g.Flow.succs.(b)) reachable then
      incr self_loops;
    (match Flow.loops (Flow.dominators g) with
     | exception Flow.Irreducible _ -> incr irreducible
     | [] -> ()
     | _ :: _ -> incr with_loops);
    if not (same_loops g) then Alcotest.failf "graph %d differs from the reference" k
  done;
  List.iter
    (fun (what, count) ->
       checkb (Printf.sprintf "%s occur (%d graphs)" what !count) true (!count > 0))
    [ ("irreducible graphs", irreducible); ("reducible graphs with loops", with_loops);
      ("self-loops", self_loops); ("unreachable nodes", unreachable) ]

(* ---- loops ---- *)

let test_loop_detection () =
  (* single counted loop *)
  let code =
    [ Asm.Paddi (4, 0, 0l); Asm.Plabel 1; Asm.Paddi (4, 4, 1l);
      Asm.Pcmpwi (4, 10l); Asm.Pbc (Asm.BT Asm.CRlt, 1); Asm.Pblr ]
  in
  let cfg = Wcet.Cfg.build "l" 0x1000 code in
  let dom = Wcet.Dom.compute cfg in
  let loops = Wcet.Loops.compute cfg dom in
  checki "one loop" 1 (List.length loops.Wcet.Loops.loops)

let test_irreducible_rejected () =
  (* two mutual entry points: jump into the middle of a loop *)
  let code =
    [ Asm.Pcmpwi (3, 0l);
      Asm.Pbc (Asm.BT Asm.CReq, 2); (* entry jumps into loop body *)
      Asm.Plabel 1; Asm.Paddi (4, 4, 1l);
      Asm.Plabel 2; Asm.Paddi (5, 5, 1l); Asm.Pcmpwi (5, 3l);
      Asm.Pbc (Asm.BT Asm.CRlt, 1); Asm.Pblr ]
  in
  let cfg = Wcet.Cfg.build "irr" 0x1000 code in
  let dom = Wcet.Dom.compute cfg in
  try
    ignore (Wcet.Loops.compute cfg dom);
    Alcotest.fail "irreducible flow accepted"
  with Wcet.Loops.Irreducible _ -> ()

(* ---- the reference LP solver (test/lp_ref.ml) ---- *)

let test_simplex_basic () =
  (* max 3x + 2y s.t. x + y <= 4, x <= 2 -> x=2, y=2, obj=10 *)
  let q = Lp_ref.Q.of_int in
  let pb =
    { Lp_ref.pb_nvars = 2;
      pb_objective = [| q 3; q 2 |];
      pb_constraints =
        [ { Lp_ref.cs_coeffs = [ (0, Lp_ref.Q.one); (1, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Le; cs_rhs = q 4 };
          { Lp_ref.cs_coeffs = [ (0, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Le; cs_rhs = q 2 } ] }
  in
  let sol = Lp_ref.solve pb in
  checki "objective 10" 10 (Lp_ref.Q.floor sol.Lp_ref.sol_objective)

let test_simplex_equality_and_ge () =
  (* max x s.t. x + y = 5, x >= 1, y >= 2 -> x = 3 *)
  let q = Lp_ref.Q.of_int in
  let pb =
    { Lp_ref.pb_nvars = 2;
      pb_objective = [| q 1; q 0 |];
      pb_constraints =
        [ { Lp_ref.cs_coeffs = [ (0, Lp_ref.Q.one); (1, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Eq; cs_rhs = q 5 };
          { Lp_ref.cs_coeffs = [ (1, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Ge; cs_rhs = q 2 } ] }
  in
  let sol = Lp_ref.solve pb in
  checki "objective 3" 3 (Lp_ref.Q.floor sol.Lp_ref.sol_objective)

let test_simplex_infeasible () =
  let q = Lp_ref.Q.of_int in
  let pb =
    { Lp_ref.pb_nvars = 1;
      pb_objective = [| q 1 |];
      pb_constraints =
        [ { Lp_ref.cs_coeffs = [ (0, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Le; cs_rhs = q 1 };
          { Lp_ref.cs_coeffs = [ (0, Lp_ref.Q.one) ];
            cs_rel = Lp_ref.Ge; cs_rhs = q 3 } ] }
  in
  match Lp_ref.solve pb with
  | _ -> Alcotest.fail "infeasible accepted"
  | exception Lp_ref.Infeasible -> ()

(* simplex vs brute force on random small integer LPs: every integral
   feasible point's objective is <= the LP optimum *)
let simplex_bound_prop =
  QCheck.Test.make ~count:150 ~name:"simplex upper-bounds brute force"
    QCheck.(triple (int_bound 1000) (int_bound 5) (int_bound 5))
    (fun (seed, _, _) ->
       let st = Random.State.make [| seed; 0x51 |] in
       let nvars = 2 + Random.State.int st 2 in
       let ncons = 1 + Random.State.int st 3 in
       let q = Lp_ref.Q.of_int in
       let obj = Array.init nvars (fun _ -> q (Random.State.int st 10)) in
       let cons =
         List.init ncons (fun _ ->
             { Lp_ref.cs_coeffs =
                 List.init nvars (fun j -> (j, q (1 + Random.State.int st 4)));
               cs_rel = Lp_ref.Le;
               cs_rhs = q (2 + Random.State.int st 20) })
       in
       let pb =
         { Lp_ref.pb_nvars = nvars; pb_objective = obj; pb_constraints = cons }
       in
       match Lp_ref.solve pb with
       | exception Lp_ref.Unbounded -> true (* positive coeffs: shouldn't *)
       | sol ->
         (* brute force over the integer box [0,8]^n *)
         let best = ref 0 in
         let rec enum (point : int list) (j : int) : unit =
           if j = nvars then begin
             let feasible =
               List.for_all
                 (fun c ->
                    let lhs =
                      List.fold_left
                        (fun acc (k, coeff) ->
                           acc + (Lp_ref.Q.floor coeff * List.nth point k))
                        0 c.Lp_ref.cs_coeffs
                    in
                    lhs <= Lp_ref.Q.floor c.Lp_ref.cs_rhs)
                 cons
             in
             if feasible then begin
               let v =
                 List.fold_left
                   (fun acc (k, c) -> acc + (Lp_ref.Q.floor c * List.nth point k))
                   0
                   (List.mapi (fun k c -> (k, c)) (Array.to_list obj))
               in
               if v > !best then best := v
             end
           end
           else
             for v = 0 to 8 do
               enum (point @ [ v ]) (j + 1)
             done
         in
         enum [] 0;
         Lp_ref.Q.compare sol.Lp_ref.sol_objective (q !best) >= 0)

(* ---- loop bounds ---- *)

let wcet_of (src : string) (comp : Fcstack.Chain.compiler) : Wcet.Report.t =
  let p = Minic.Parser.parse_program src in
  Minic.Typecheck.check_program_exn p;
  Fcstack.Chain.wcet (Fcstack.Chain.build ~exact:true comp p)

let test_bound_for_loop () =
  let r =
    wcet_of
      {| global double g; void m() { var int i;
           for (i = 0; i < 12) { $g = $g +. 1.0; } } main m; |}
      Fcstack.Chain.Cvcomp
  in
  match r.Wcet.Report.rp_loops with
  | [ l ] -> checki "bound 12" 12 l.Wcet.Report.li_bound
  | _ -> Alcotest.fail "one loop expected"

let test_bound_slot_counter_o0 () =
  let r =
    wcet_of
      {| global double g; void m() { var int i;
           for (i = 2; i < 9) { $g = $g +. 1.0; } } main m; |}
      Fcstack.Chain.Cdefault_o0
  in
  match r.Wcet.Report.rp_loops with
  | [ l ] -> checki "bound 7 via slot counter" 7 l.Wcet.Report.li_bound
  | _ -> Alcotest.fail "one loop expected"

let test_bound_from_annotation () =
  let r =
    wcet_of
      {| global int cfg; global double g;
         void m() { var int i;
           $cfg = 6;
           for (i = 0; i < $cfg) {
             __builtin_annotation("loopbound 6");
             $g = $g +. 1.0; } } main m; |}
      Fcstack.Chain.Cvcomp
  in
  match r.Wcet.Report.rp_loops with
  | [ l ] ->
    checki "bound 6" 6 l.Wcet.Report.li_bound;
    checkb "from annotation" true l.Wcet.Report.li_from_annotation
  | _ -> Alcotest.fail "one loop expected"

let test_unbounded_loop_fails () =
  let p =
    Minic.Parser.parse_program
      {| global int cfg; global double g;
         void m() { var int i;
           $cfg = 6;
           for (i = 0; i < $cfg) { $g = $g +. 1.0; } } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp p in
  match Fcstack.Chain.wcet b with
  | _ -> Alcotest.fail "unbounded loop must fail the analysis"
  | exception Wcet.Driver.Error _ -> ()

let test_range_annotation_bounds_loop () =
  let r =
    wcet_of
      {| volatile in double v; global double g;
         void m() { var int n; var int i;
           n = (int)volatile(v);
           if (n < 0) { n = 0; }
           if (n > 9) { n = 9; }
           __builtin_annotation("range 0 9", n);
           for (i = 0; i < n) { $g = $g +. 1.0; } } main m; |}
      Fcstack.Chain.Cdefault_o0
  in
  match r.Wcet.Report.rp_loops with
  | [ l ] -> checkb "bound <= 9" true (l.Wcet.Report.li_bound <= 9)
  | _ -> Alcotest.fail "one loop expected"

(* ---- headline soundness: WCET >= simulated cycles ---- *)

let wcet_soundness_prop =
  QCheck.Test.make ~count:80
    ~name:"WCET bound >= simulated cycles (all compilers, random programs)"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            match Fcstack.Chain.wcet b with
            | report ->
              List.for_all
                (fun s ->
                   let sim =
                     Fcstack.Chain.simulate b (Minic.Interp.seeded_world ~seed:s ())
                   in
                   report.Wcet.Report.rp_wcet
                   >= sim.Target.Sim.rr_stats.Target.Sim.cycles)
                [ 1; 2; 3; 4; 5 ]
            | exception Wcet.Driver.Error _ ->
              (* the analyzer may refuse (e.g. imprecision); refusing is
                 sound, returning a low bound would not be *)
              true)
         Fcstack.Chain.all_compilers)

let wcet_soundness_nodes_prop =
  QCheck.Test.make ~count:25
    ~name:"WCET bound >= simulated cycles (workload nodes)"
    QCheck.small_int
    (fun seed ->
       let node =
         Scade.Workload.generate_node ~profile:Scade.Workload.medium_node
           ~seed:(seed land 0xFFFF) "snd"
       in
       let src = Scade.Acg.generate node in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build comp src in
            let report = Fcstack.Chain.wcet b in
            List.for_all
              (fun s ->
                 let sim =
                   Fcstack.Chain.simulate b (Minic.Interp.seeded_world ~seed:s ())
                 in
                 report.Wcet.Report.rp_wcet
                 >= sim.Target.Sim.rr_stats.Target.Sim.cycles)
              [ 1; 2; 3 ])
         Fcstack.Chain.all_compilers)

let suite =
  [ QCheck_alcotest.to_alcotest itv_add_prop;
    QCheck_alcotest.to_alcotest itv_sub_prop;
    QCheck_alcotest.to_alcotest itv_mul_prop;
    QCheck_alcotest.to_alcotest itv_refine_prop;
    QCheck_alcotest.to_alcotest dominators_prop;
    QCheck_alcotest.to_alcotest flow_toolkit_prop;
    ("flow: loops = reference on reducible, irreducible, self-loop and \
      unreachable graphs", `Quick, test_flow_loops_mixed);
    ("loop detection", `Quick, test_loop_detection);
    ("irreducible flow rejected", `Quick, test_irreducible_rejected);
    ("simplex: basics", `Quick, test_simplex_basic);
    ("simplex: equalities and >=", `Quick, test_simplex_equality_and_ge);
    ("simplex: infeasible", `Quick, test_simplex_infeasible);
    QCheck_alcotest.to_alcotest simplex_bound_prop;
    ("loop bound: register counter", `Quick, test_bound_for_loop);
    ("loop bound: slot counter (O0)", `Quick, test_bound_slot_counter_o0);
    ("loop bound: annotation", `Quick, test_bound_from_annotation);
    ("unbounded loop refused", `Quick, test_unbounded_loop_fails);
    ("range annotation bounds a loop", `Quick, test_range_annotation_bounds_loop);
    QCheck_alcotest.to_alcotest wcet_soundness_prop;
    QCheck_alcotest.to_alcotest wcet_soundness_nodes_prop ]

(* ---- must-cache ageing analysis ---- *)

let test_mustcache_hits () =
  (* store a slot, then load it back: the load is a guaranteed hit even
     without any capacity argument *)
  let code =
    [ Asm.Pallocframe 32;
      Asm.Paddi (3, 0, 5l);
      Asm.Pstw (3, Asm.Aind (Asm.sp, 8l));
      Asm.Plwz (4, Asm.Aind (Asm.sp, 8l));
      Asm.Pfreeframe 32; Asm.Pblr ]
  in
  let src =
    { Minic.Ast.prog_globals = []; prog_arrays = []; prog_volatiles = [];
      prog_funcs =
        [ { Minic.Ast.fn_name = "f"; fn_params = []; fn_locals = [];
            fn_ret = None; fn_body = Minic.Ast.Sskip } ];
      prog_main = "f" }
  in
  let prog = { Asm.pr_funcs = [ { Asm.fn_name = "f"; fn_code = code } ]; pr_main = "f" } in
  let lay = Target.Layout.build src prog in
  let cfg = Wcet.Cfg.build "f" 0x100000 code in
  let va = Wcet.Valueanalysis.analyze cfg in
  let mc = Wcet.Mustcache.analyze cfg va lay in
  (match Wcet.Mustcache.block_hits mc 0 with
   | [ first; second ] ->
     checkb "first access cannot be proven a hit" false first;
     checkb "reload is a must-hit" true second
   | l -> Alcotest.failf "expected 2 accesses, got %d" (List.length l))

(* must-hit implies concrete hit: replay each block's accesses against
   the concrete LRU cache along simulated executions — here checked at
   whole-WCET level: refinement can only be sound if the WCET bound
   still dominates the simulator, which the soundness properties above
   already assert. This additional check exercises join points: a
   diamond where only one arm touches the line. *)
let test_mustcache_join () =
  let code =
    [ Asm.Pallocframe 32;
      Asm.Pcmpwi (3, 0l);
      Asm.Pbc (Asm.BT Asm.CReq, 1);
      Asm.Pstw (3, Asm.Aind (Asm.sp, 8l)); (* only this arm touches slot *)
      Asm.Plabel 1;
      Asm.Plwz (4, Asm.Aind (Asm.sp, 16l)); (* different slot: not a must hit *)
      Asm.Plwz (5, Asm.Aind (Asm.sp, 8l)); (* join: may be untouched: no hit *)
      Asm.Pfreeframe 32; Asm.Pblr ]
  in
  let src =
    { Minic.Ast.prog_globals = []; prog_arrays = []; prog_volatiles = [];
      prog_funcs =
        [ { Minic.Ast.fn_name = "f"; fn_params = []; fn_locals = [];
            fn_ret = None; fn_body = Minic.Ast.Sskip } ];
      prog_main = "f" }
  in
  ignore src;
  let lay =
    Target.Layout.build src
      { Asm.pr_funcs = [ { Asm.fn_name = "f"; fn_code = code } ]; pr_main = "f" }
  in
  let cfg = Wcet.Cfg.build "f" 0x100000 code in
  let va = Wcet.Valueanalysis.analyze cfg in
  let mc = Wcet.Mustcache.analyze cfg va lay in
  (* find the join block: it contains the two loads *)
  let join_block = ref (-1) in
  for b = 0 to Wcet.Cfg.num_blocks cfg - 1 do
    let blk = Wcet.Cfg.block cfg b in
    let loads =
      Array.to_list blk.Wcet.Cfg.b_instrs
      |> List.filter (fun i -> match i with Asm.Plwz _ -> true | _ -> false)
    in
    if List.length loads = 2 then join_block := b
  done;
  match Wcet.Mustcache.block_hits mc !join_block with
  | [ h1; h2 ] ->
    checkb "untouched slot is not a hit" false h1;
    (* slot 8 was only written on one path: the must-join forgets it...
       unless both slots share a line! slots 8 and 16 are in the same
       32-byte line, so the load at 16 establishes residency of the
       line for the load at 8. The precise expectation: h2 = true
       because the line was touched by h1's access on every path. *)
    checkb "same-line access establishes a must hit" true h2
  | l -> Alcotest.failf "expected 2 accesses in join, got %d" (List.length l)

let () = ignore test_mustcache_join

let suite =
  suite
  @ [ ("must-cache: reload is a hit", `Quick, test_mustcache_hits);
      ("must-cache: join and same-line residency", `Quick, test_mustcache_join) ]

(* ---- annotation file (section 3.4 artifact) ---- *)

let test_annotfile_roundtrip () =
  let node =
    Scade.Workload.generate_node ~profile:Scade.Workload.medium_node ~seed:5
      "af"
  in
  let src = Scade.Acg.generate node in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let entries = Wcet.Annotfile.extract b.Fcstack.Chain.b_asm in
  let text = Wcet.Annotfile.render entries in
  let parsed = Wcet.Annotfile.parse text in
  checkb "round trip preserves all entries" true
    (List.length entries = List.length parsed
     && List.for_all2 Wcet.Annotfile.entry_equal entries parsed)

let test_annotfile_content () =
  let p =
    Minic.Parser.parse_program
      {| void m() { var int n; n = 3; __builtin_annotation("0 <= %1 <= 5", n); } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp p in
  match Wcet.Annotfile.extract b.Fcstack.Chain.b_asm with
  | [ e ] ->
    Alcotest.check Alcotest.string "function" "m" e.Wcet.Annotfile.an_function;
    checkb "substituted location present" true
      (String.length e.Wcet.Annotfile.an_text > 0
       && not (String.equal e.Wcet.Annotfile.an_text "0 <= %1 <= 5"))
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let suite =
  suite
  @ [ ("annotation file round trip", `Quick, test_annotfile_roundtrip);
      ("annotation file content", `Quick, test_annotfile_content) ]

(* ---- exact rationals ---- *)

let test_rationals () =
  let module Q = Lp_ref.Q in
  checkb "1/3 + 1/6 = 1/2" true (Q.equal (Q.add (Q.make 1 3) (Q.make 1 6)) (Q.make 1 2));
  checkb "normalization" true (Q.equal (Q.make 2 4) (Q.make 1 2));
  checkb "negative denominator" true (Q.equal (Q.make 1 (-2)) (Q.make (-1) 2));
  checki "floor 7/2" 3 (Q.floor (Q.make 7 2));
  checki "floor -7/2" (-4) (Q.floor (Q.make (-7) 2));
  checki "ceil 7/2" 4 (Q.ceil (Q.make 7 2));
  checki "ceil -7/2" (-3) (Q.ceil (Q.make (-7) 2));
  checkb "is_integer 4/2" true (Q.is_integer (Q.make 4 2));
  checkb "not integer 1/3" false (Q.is_integer (Q.make 1 3));
  checkb "mul" true (Q.equal (Q.mul (Q.make 2 3) (Q.make 3 4)) (Q.make 1 2));
  checkb "div" true (Q.equal (Q.div (Q.make 1 2) (Q.make 1 4)) (Q.of_int 2));
  checki "compare" (-1) (Q.compare (Q.make 1 3) (Q.make 1 2))

let suite = suite @ [ ("exact rationals", `Quick, test_rationals) ]

(* ---- pinned analyzer output ---- *)

(* The analyzer's reports on fixed inputs, recorded as MD5 digests: for
   each compiler and path engine, every function of 40 nodes of the
   flight program (seed 2026). A change to the fixpoint machinery meant
   to keep the bounds exact must leave every report as it was. *)

let report_digests =
  [ (Fcstack.Chain.Cdefault_o0, Wcet.Report.Ipet,
     "2f20c90f362a5e7c552d64025b267454");
    (Fcstack.Chain.Cdefault_o0, Wcet.Report.Both,
     "6314a85f8519e5dd60b5a3e94c16794a");
    (Fcstack.Chain.Cdefault_o1, Wcet.Report.Ipet,
     "f5126017edce9d66af6462fb471bc627");
    (Fcstack.Chain.Cdefault_o1, Wcet.Report.Both,
     "215895ce5c5ec6edf6113ef579d04c0c");
    (Fcstack.Chain.Cdefault_o2, Wcet.Report.Ipet,
     "70c4f1451ac9f580261e8f061053fe3c");
    (Fcstack.Chain.Cdefault_o2, Wcet.Report.Both,
     "015c748faf8da5943e2bdaa19fee75ea");
    (Fcstack.Chain.Cvcomp, Wcet.Report.Ipet,
     "9716477e8765a030ed3a35c92c6bcdd2");
    (Fcstack.Chain.Cvcomp, Wcet.Report.Both,
     "f60f851d74ab0dde5fe4eb5baaa4299a") ]

let report_digest (builds : Fcstack.Chain.built list)
    (engine : Wcet.Report.engine) : string =
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i b ->
       match
         Wcet.Driver.analyze_program ~engine b.Fcstack.Chain.b_asm
           b.Fcstack.Chain.b_layout
       with
       | reports ->
         List.iter
           (fun (f, r) ->
              Printf.bprintf buf "%d %s\n%s\n" i f (Wcet.Report.to_string r))
           reports
       | exception Wcet.Driver.Error msg ->
         Printf.bprintf buf "%d refused: %s\n" i msg)
    builds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_report_digests () =
  List.iter
    (fun c ->
       let builds =
         List.init 40 (fun i ->
             Fcstack.Chain.build c
               (Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i)))
       in
       List.iter
         (fun (c', engine, expected) ->
            if c' = c then
              Alcotest.check Alcotest.string
                (Fcstack.Chain.compiler_name c ^ " "
                 ^ Wcet.Report.engine_name engine)
                expected (report_digest builds engine))
         report_digests)
    Fcstack.Chain.all_compilers

let suite =
  suite
  @ [ ("reports: digests pinned (4 compilers x 2 engines x 40 nodes)", `Quick,
       test_report_digests) ]

(* ---- pinned fixpoint visit counts ---- *)

(* For each node of the same 40, the sum over its functions of the
   smallest [fuel] with which each fixpoint succeeds, that is, the
   number of blocks the shared worklist processes. A join that stops
   returning its argument when nothing changes, or an equality that
   moves, changes these counts even when the reports stay the same. *)

let visit_counts =
  [ (Fcstack.Chain.Cdefault_o0,
     ([ 7; 13; 1; 31; 19; 97; 119; 127; 92; 236; 8; 11; 22; 7; 14; 116; 195;
        121; 111; 302; 13; 11; 20; 11; 29; 55; 57; 55; 91; 254; 13; 10; 13;
        22; 23; 48; 89; 122; 132; 227 ],
      [ 7; 13; 1; 31; 19; 118; 120; 169; 98; 258; 8; 11; 22; 7; 14; 158; 206;
        163; 128; 361; 13; 11; 20; 11; 29; 55; 61; 55; 118; 292; 13; 10; 13;
        22; 23; 48; 110; 164; 133; 269 ]));
    (Fcstack.Chain.Cdefault_o1,
     ([ 7; 10; 1; 31; 19; 97; 116; 127; 92; 236; 5; 11; 22; 7; 11; 116; 180;
        118; 108; 296; 13; 11; 20; 11; 29; 55; 57; 49; 91; 248; 7; 7; 10; 19;
        23; 48; 89; 119; 132; 227 ],
      [ 7; 10; 1; 31; 19; 118; 117; 169; 98; 258; 5; 11; 22; 7; 11; 158; 191;
        160; 125; 355; 13; 11; 20; 11; 29; 55; 61; 49; 118; 286; 7; 7; 10;
        19; 23; 48; 110; 161; 133; 269 ]));
    (Fcstack.Chain.Cdefault_o2,
     ([ 1; 10; 1; 25; 19; 76; 107; 100; 47; 176; 5; 5; 1; 7; 11; 89; 159; 97;
        105; 262; 13; 5; 20; 5; 29; 16; 39; 25; 82; 209; 1; 1; 10; 19; 17;
        27; 68; 92; 99; 146 ],
      [ 1; 10; 1; 25; 19; 97; 108; 142; 53; 198; 5; 5; 1; 7; 11; 131; 171;
        139; 122; 322; 13; 5; 20; 5; 29; 16; 43; 25; 109; 245; 1; 1; 10; 19;
        17; 27; 89; 146; 100; 188 ]));
    (Fcstack.Chain.Cvcomp,
     ([ 6; 9; 1; 25; 14; 93; 279; 127; 89; 279; 5; 10; 16; 5; 10; 114; 300;
        117; 251; 423; 11; 5; 18; 10; 26; 37; 122; 41; 118; 304; 6; 6; 9; 15;
        20; 41; 86; 102; 363; 202 ],
      [ 6; 9; 1; 25; 14; 118; 117; 177; 112; 251; 5; 10; 16; 5; 10; 164; 197;
        167; 212; 399; 11; 5; 18; 10; 26; 37; 180; 41; 171; 279; 6; 6; 9; 15;
        20; 41; 111; 166; 127; 252 ])) ]

(* The smallest fuel in [1, ..] with which [run] does not exhaust it;
   success is monotone in the fuel. *)
let least_fuel (run : int -> unit) : int =
  let ok fuel =
    match run fuel with
    | () -> true
    | exception Wcet.Fuel.Exhausted _ -> false
  in
  let rec up hi = if ok hi then hi else up (2 * hi) in
  let rec bisect lo hi =
    (* [lo] fails (or is 0), [hi] succeeds *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if ok mid then bisect lo mid else bisect mid hi
  in
  let hi = up 1 in
  bisect (hi / 2) hi

let node_visits (b : Fcstack.Chain.built) : int * int =
  let lay = b.Fcstack.Chain.b_layout in
  List.fold_left
    (fun (value, must) f ->
       let name = f.Asm.fn_name in
       let cfg =
         Wcet.Cfg.build name (Hashtbl.find lay.Target.Layout.lay_code name)
           f.Asm.fn_code
       in
       let v = least_fuel (fun fuel -> ignore (Wcet.Valueanalysis.analyze ~fuel cfg)) in
       let va = Wcet.Valueanalysis.analyze cfg in
       let m =
         least_fuel (fun fuel -> ignore (Wcet.Mustcache.analyze ~fuel cfg va lay))
       in
       (value + v, must + m))
    (0, 0) b.Fcstack.Chain.b_asm.Asm.pr_funcs

let test_visit_counts () =
  let ints l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]" in
  let moved =
    List.filter_map
      (fun (c, (value, must)) ->
         let counts =
           List.init 40 (fun i ->
               node_visits
                 (Fcstack.Chain.build c
                    (Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i))))
         in
         let value' = List.map fst counts and must' = List.map snd counts in
         if value' = value && must' = must then None
         else
           Some
             (Printf.sprintf "%s: value %s must %s"
                (Fcstack.Chain.compiler_name c) (ints value') (ints must')))
      visit_counts
  in
  if moved <> [] then
    Alcotest.failf "visit counts moved:\n%s" (String.concat "\n" moved)

let suite =
  suite
  @ [ ("fixpoints: visit counts pinned (4 compilers x 40 nodes)", `Quick,
       test_visit_counts) ]

(* ---- the shared fixpoint and its post-fixpoint oracles ---- *)

(* A one-function program around [code], for the layout. *)
let layout_of (code : Asm.instr list) : Target.Layout.t =
  let src =
    { Minic.Ast.prog_globals = []; prog_arrays = []; prog_volatiles = [];
      prog_funcs =
        [ { Minic.Ast.fn_name = "f"; fn_params = []; fn_locals = [];
            fn_ret = None; fn_body = Minic.Ast.Sskip } ];
      prog_main = "f" }
  in
  Target.Layout.build src
    { Asm.pr_funcs = [ { Asm.fn_name = "f"; fn_code = code } ]; pr_main = "f" }

(* An unreachable block that branches to itself lies on no path from
   the entry: it is no loop and needs no bound. *)
let test_unreachable_self_loop () =
  let code = [ Asm.Pblr; Asm.Plabel 7; Asm.Paddi (5, 5, 1l); Asm.Pb 7 ] in
  let cfg = Wcet.Cfg.build "f" 0x100000 code in
  let loops = Wcet.Loops.compute cfg (Wcet.Dom.compute cfg) in
  checki "no loops" 0 (List.length loops.Wcet.Loops.loops);
  let prog =
    { Asm.pr_funcs = [ { Asm.fn_name = "f"; fn_code = code } ]; pr_main = "f" }
  in
  let r = Wcet.Driver.analyze prog (layout_of code) in
  checkb "bounded" true (r.Wcet.Report.rp_wcet > 0)

(* Reverse postorder reaches a join block after all its forward
   predecessors: on an acyclic CFG every block is processed once. Here
   the entry branches to the join J directly and through A -> B; a FIFO
   queue processes J twice. *)
let test_fixpoint_rpo_once () =
  let code =
    [ Asm.Paddi (3, 0, 0l); Asm.Pcmpwi (4, 0l); Asm.Pbc (Asm.BT Asm.CReq, 2);
      Asm.Paddi (3, 0, 1l);
      Asm.Plabel 1; Asm.Paddi (5, 0, 2l);
      Asm.Plabel 2; Asm.Pblr ]
  in
  let cfg = Wcet.Cfg.build "f" 0x1000 code in
  checki "four blocks" 4 (Wcet.Cfg.num_blocks cfg);
  let va = Wcet.Valueanalysis.analyze ~fuel:4 cfg in
  checkb "value fixpoint stable" true (Wcet.Valueanalysis.stable cfg va);
  ignore (Wcet.Mustcache.analyze ~fuel:4 cfg va (layout_of code));
  Alcotest.check_raises "one block short of the budget"
    (Wcet.Fuel.Exhausted "value-analysis widening fixpoint") (fun () ->
        ignore (Wcet.Valueanalysis.analyze ~fuel:3 cfg))

(* A slot stored before a counted loop and reloaded in its body. *)
let loop_code (unresolved_stores : int) : Asm.instr list =
  [ Asm.Pallocframe 32;
    Asm.Paddi (3, 0, 5l);
    Asm.Pstw (3, Asm.Aind (Asm.sp, 8l));
    Asm.Paddi (5, 0, 0l);
    Asm.Plabel 1;
    Asm.Plwz (4, Asm.Aind (Asm.sp, 8l)) ]
  (* r6 is unknown: a store through it may touch any line *)
  @ List.init unresolved_stores (fun _ -> Asm.Pstw (3, Asm.Aind (6, 0l)))
  @ [ Asm.Paddi (5, 5, 1l);
      Asm.Pcmpwi (5, 10l);
      Asm.Pbc (Asm.BT Asm.CRlt, 1);
      Asm.Pfreeframe 32; Asm.Pblr ]

(* The reload's classification in the loop body, which is the block
   holding the [Plwz]. The back edge carries the body's ageing into the
   header's entry state, and reverse postorder processes it last. *)
let reload_is_hit (unresolved_stores : int) : bool =
  let code = loop_code unresolved_stores in
  let cfg = Wcet.Cfg.build "f" 0x100000 code in
  let va = Wcet.Valueanalysis.analyze cfg in
  let mc = Wcet.Mustcache.analyze cfg va (layout_of code) in
  checkb "value fixpoint stable" true (Wcet.Valueanalysis.stable cfg va);
  checkb "must-cache fixpoint stable" true (Wcet.Mustcache.stable cfg mc);
  let body =
    List.find
      (fun b ->
         Array.exists
           (function Asm.Plwz _ -> true | _ -> false)
           (Wcet.Cfg.block cfg b).Wcet.Cfg.b_instrs)
      (Wcet.Cfg.reverse_postorder cfg)
  in
  match Wcet.Mustcache.block_hits mc body with
  | reload :: stores ->
    checki "one access per store" unresolved_stores (List.length stores);
    reload
  | [] -> Alcotest.fail "no access in the loop body"

let test_mustcache_loop () =
  let assoc = Target.Cache.mpc755_l1.Target.Cache.cfg_assoc in
  checkb "reload in a clean loop is an ALWAYS-HIT" true (reload_is_hit 0);
  checkb "assoc - 1 unresolved stores still leave it a hit" true
    (reload_is_hit (assoc - 1));
  checkb "assoc unresolved stores age it out across the back edge" false
    (reload_is_hit assoc)

(* The value oracle is not vacuous: narrowing the loop header's entry
   state to the preheader's (as if the back edge were never joined)
   must fail it. *)
let test_value_stable_rejects_narrowed () =
  let cfg = Wcet.Cfg.build "f" 0x100000 (loop_code 0) in
  let va = Wcet.Valueanalysis.analyze cfg in
  checkb "computed fixpoint stable" true (Wcet.Valueanalysis.stable cfg va);
  let header = 1 in
  let entries = Array.copy va.Wcet.Valueanalysis.r_entry_states in
  (match entries.(header) with
   | Some st ->
     entries.(header) <-
       Some
         (Wcet.Valueanalysis.set_reg st 5
            (Wcet.Valueanalysis.Vint (Wcet.Interval.of_int_const 0)))
   | None -> Alcotest.fail "loop header unreachable");
  checkb "narrowed header rejected" false
    (Wcet.Valueanalysis.stable cfg
       { va with Wcet.Valueanalysis.r_entry_states = entries })

let fixpoints_stable_prop =
  QCheck.Test.make ~count:40
    ~name:"value and must-cache results are post-fixpoints (all compilers)"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            let lay = b.Fcstack.Chain.b_layout in
            List.for_all
              (fun f ->
                 let name = f.Asm.fn_name in
                 let cfg =
                   Wcet.Cfg.build name
                     (Hashtbl.find lay.Target.Layout.lay_code name)
                     f.Asm.fn_code
                 in
                 let va = Wcet.Valueanalysis.analyze cfg in
                 Wcet.Valueanalysis.stable cfg va
                 && Wcet.Mustcache.stable cfg (Wcet.Mustcache.analyze cfg va lay))
              b.Fcstack.Chain.b_asm.Asm.pr_funcs)
         Fcstack.Chain.all_compilers)

let suite =
  suite
  @ [ ("fixpoint: reverse postorder visits a DAG's blocks once", `Quick,
       test_fixpoint_rpo_once);
      ("loops: an unreachable self-loop is no loop", `Quick,
       test_unreachable_self_loop);
      ("must-cache: reload across a loop's back edge", `Quick,
       test_mustcache_loop);
      ("value oracle rejects a narrowed loop header", `Quick,
       test_value_stable_rejects_narrowed);
      QCheck_alcotest.to_alcotest fixpoints_stable_prop ]

(* ---- shared maps, and the domains on them against their references ---- *)

module IMap = Map.Make (Int)

(* The first failed check of a property, by name. *)
let first_failure (checks : (string * bool) list) : bool =
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | None -> true
  | Some (what, _) -> QCheck.Test.fail_reportf "%s differs" what

let intmap_of (l : (int * int) list) : int Flow.Intmap.t =
  List.fold_left (fun m (k, v) -> Flow.Intmap.add k v m) Flow.Intmap.empty l

let intmap_bindings (m : 'a Flow.Intmap.t) : (int * 'a) list =
  List.sort compare (Flow.Intmap.fold (fun k v acc -> (k, v) :: acc) m [])

(* Keys from a small range and from far apart, so that prefixes are
   shared and differ at high bits, the sign bit included; a second map
   edits the first, so that the two share subtrees as analysis states
   do. *)
let intmap_pair_arb =
  let key =
    QCheck.Gen.(
      oneof
        [ int_range (-20) 40; map (fun k -> k lsl 20) (int_range (-3) 3);
          map (fun k -> min_int + k) (int_range 0 3) ])
  in
  let binding = QCheck.Gen.(pair key (int_range 0 6)) in
  let edit = QCheck.Gen.(pair key (opt (int_range 0 6))) in
  QCheck.make
    ~print:(fun (a, ea, eb) ->
        let show l =
          String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)
        and showe l =
          String.concat ";"
            (List.map
               (fun (k, v) ->
                  Printf.sprintf "%d:%s" k
                    (match v with Some v -> string_of_int v | None -> "-"))
               l)
        in
        Printf.sprintf "base %s / a %s / b %s" (show a) (showe ea) (showe eb))
    QCheck.Gen.(
      triple (list_size (int_bound 24) binding) (list_size (int_bound 4) edit)
        (list_size (int_bound 4) edit))

let apply_edits (add : int -> 'v -> 'm -> 'm) (remove : int -> 'm -> 'm)
    (m : 'm) (edits : (int * 'v option) list) : 'm =
  List.fold_left
    (fun m (k, v) -> match v with Some v -> add k v m | None -> remove k m)
    m edits

let intmap_oracle_prop =
  QCheck.Test.make ~count:1000
    ~name:"Intmap: add/remove/inter/merge/equal/leq match Map, sharing kept"
    intmap_pair_arb
    (fun (base, ea, eb) ->
       let module I = Flow.Intmap in
       let m0 = intmap_of base
       and r0 = List.fold_left (fun m (k, v) -> IMap.add k v m) IMap.empty base in
       let a = apply_edits I.add I.remove m0 ea and b = apply_edits I.add I.remove m0 eb
       and ra = apply_edits IMap.add IMap.remove r0 ea
       and rb = apply_edits IMap.add IMap.remove r0 eb in
       let same m r = intmap_bindings m = IMap.bindings r in
       (* the function is the identity where both sides agree *)
       let fi k x y =
         if x = y then Some x else if (k + x + y) mod 3 = 0 then None else Some (x + y)
       in
       let fm k x y =
         match x, y with
         | Some x, Some y -> fi k x y
         | Some x, None -> if x mod 2 = 0 then Some x else None
         | None, Some y -> if y mod 3 = 0 then None else Some (y + 1)
         | None, None -> None
       in
       let fl _ x y =
         match x, y with
         | Some x, Some y -> x <= y
         | _, None -> true
         | None, Some _ -> false
       in
       let ref_leq ra rb =
         IMap.for_all
           (fun k y ->
              match IMap.find_opt k ra with Some x -> x <= y | None -> false)
           rb
       in
       (* a result with the first argument's bindings is that argument *)
       let shared r = (not (same r ra)) || r == a in
       let inter = I.inter fi a b and merge = I.merge fm a b in
       let max_inter = I.inter (fun _ x y -> Some (max x y)) a b in
       first_failure
         [ ("add/remove", same a ra && same b rb);
           ("inter",
            same inter
              (IMap.merge
                 (fun k x y -> match x, y with Some x, Some y -> fi k x y | _ -> None)
                 ra rb));
           ("merge", same merge (IMap.merge fm ra rb));
           ("equal", I.equal Int.equal a b = IMap.equal Int.equal ra rb);
           ("leq", I.leq fl a b = ref_leq ra rb);
           ("leq is the order of the max-join",
            I.leq fl a b = I.equal Int.equal max_inter b);
           ("shared inter", shared inter);
           ("shared merge", shared merge);
           ("shared max-join", shared max_inter);
           ("equal arguments",
            I.inter fi a a == a && I.merge fm a a == a && I.leq fl a a) ])

(* Abstract values over a few intervals and two symbols, so that joins
   both change and keep their arguments. *)
let absval_gen : Wcet.Valueanalysis.absval QCheck.Gen.t =
  let itv =
    QCheck.Gen.(
      frequency
        [ (6, map2 (fun a b -> Wcet.Interval.make (min a b) (max a b))
               (int_range (-3) 3) (int_range (-3) 3));
          (1, return Wcet.Interval.top) ])
  in
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> Wcet.Valueanalysis.Vint i) itv);
        (2, map2 (fun s i -> Wcet.Valueanalysis.Vsym (s, i)) (oneofl [ "g"; "h" ]) itv);
        (2, map (fun i -> Wcet.Valueanalysis.Vsp i) itv);
        (1, return Wcet.Valueanalysis.Vtop) ])

type value_op =
  | Reg of int * Wcet.Valueanalysis.absval
  | Slot of int * Wcet.Valueanalysis.absval

let value_slots = List.init 9 (fun i -> 4 * (i - 4))

let value_ops_gen : value_op list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_bound 12)
      (frequency
         [ (2, map2 (fun r v -> Reg ((if r = Asm.sp then 0 else r), v))
                   (int_range 0 31) absval_gen);
           (1, map2 (fun k v -> Slot (k, v)) (oneofl value_slots) absval_gen) ]))

(* The same edits on both domains, slots through the store they model;
   [sp] keeps its entry value, so every store resolves to its slot. *)
let value_states (ops : value_op list) (st, rst) =
  let slots, regs = List.partition (function Slot _ -> true | Reg _ -> false) ops in
  let st, rst =
    List.fold_left
      (fun (st, rst) op ->
         match op with
         | Slot (k, v) ->
           let st = Wcet.Valueanalysis.set_reg st 31 v in
           ( Wcet.Valueanalysis.transfer st
               (Asm.Pstw (31, Asm.Aind (Asm.sp, Int32.of_int k))),
             Absdom_ref.set_slot (Absdom_ref.set_reg rst 31 v) k v )
         | Reg _ -> (st, rst))
      (st, rst) slots
  in
  List.fold_left
    (fun (st, rst) op ->
       match op with
       | Reg (r, v) -> (Wcet.Valueanalysis.set_reg st r v, Absdom_ref.set_reg rst r v)
       | Slot _ -> (st, rst))
    (st, rst) regs

let value_agrees (st : Wcet.Valueanalysis.state) (rst : Absdom_ref.state) : bool =
  let module V = Wcet.Valueanalysis in
  List.for_all
    (fun r -> V.absval_equal (V.get_reg st r) rst.Absdom_ref.regs.(r))
    (List.init 32 Fun.id)
  && List.for_all
       (fun k ->
          match V.find_slot st k, IMap.find_opt k rst.Absdom_ref.slots with
          | Some x, Some y -> V.absval_equal x y
          | None, None -> true
          | Some _, None | None, Some _ -> false)
       value_slots

let value_domain_prop =
  QCheck.Test.make ~count:1000
    ~name:"value domain: join/widen/equal/leq match the array domain"
    (QCheck.make QCheck.Gen.(triple value_ops_gen value_ops_gen value_ops_gen))
    (fun (base, oa, ob) ->
       let module V = Wcet.Valueanalysis in
       let s0 = value_states base (V.init_state, Absdom_ref.init_state) in
       let a, ra = value_states oa s0 and b, rb = value_states ob s0 in
       let j = V.join_state a b and rj = Absdom_ref.join_state ra rb in
       first_failure
         [ ("set_reg/store", value_agrees a ra && value_agrees b rb);
           ("join", value_agrees j rj);
           ("widen",
            value_agrees (V.widen_state a b) (Absdom_ref.widen_state ra rb)
            && value_agrees (V.widen_state a j) (Absdom_ref.widen_state ra rj));
           ("equal", V.state_equal a b = Absdom_ref.state_equal ra rb);
           ("leq",
            V.state_leq a b = Absdom_ref.state_leq ra rb
            && V.state_leq j a = Absdom_ref.state_leq rj ra);
           ("leq is the order of the join",
            V.state_leq a b = V.state_equal (V.join_state a b) b);
           ("join is an upper bound", V.state_leq a j && V.state_leq b j);
           ("equal arguments", V.join_state a a == a && V.widen_state a a == a) ])

type cache_op = Line of int | Blur of int list

(* Lines of four sets (the last one the highest) and, for the sign
   correction, below zero; blurs of a few sets or of every set. *)
let cache_lines =
  let n = Absdom_ref.nsets in
  List.concat_map (fun s -> List.init 6 (fun k -> s + (k * n))) [ 0; 1; 2; n - 1 ]
  @ [ -1; -2 ]

let cache_ops_gen : cache_op list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_bound 16)
      (frequency
         [ (6, map (fun l -> Line l) (oneofl cache_lines));
           (1, map (fun ss -> Blur (List.sort_uniq compare ss))
                (list_size (int_range 1 3)
                   (oneofl [ 0; 1; 2; 3; Absdom_ref.nsets - 1 ])));
           (1, return (Blur (List.init Absdom_ref.nsets Fun.id))) ]))

let cache_states (ops : cache_op list) (c, rc) =
  List.fold_left
    (fun (c, rc) op ->
       match op with
       | Line l -> (Wcet.Mustcache.access_line c l, Absdom_ref.access_line rc l)
       | Blur ss -> (Wcet.Mustcache.blur_sets c ss, Absdom_ref.blur_sets rc ss))
    (c, rc) ops

let cache_agrees (c : Wcet.Mustcache.acache) (rc : Absdom_ref.acache) : bool =
  List.for_all
    (fun l ->
       Wcet.Mustcache.age c l = Absdom_ref.age rc l
       && Wcet.Mustcache.must_hit c l = (Absdom_ref.age rc l <> None))
    cache_lines

let show_cache_ops (ops : cache_op list) : string =
  String.concat ";"
    (List.map
       (function
         | Line l -> string_of_int l
         | Blur ss when List.length ss = Absdom_ref.nsets -> "blur*"
         | Blur ss -> "blur" ^ String.concat "," (List.map string_of_int ss))
       ops)

let mustcache_domain_prop =
  QCheck.Test.make ~count:1000
    ~name:"must-cache domain: access/blur/join/equal/leq match the array domain"
    (QCheck.make
       ~print:(fun (base, oa, ob) ->
           Printf.sprintf "base %s / a %s / b %s" (show_cache_ops base)
             (show_cache_ops oa) (show_cache_ops ob))
       QCheck.Gen.(triple cache_ops_gen cache_ops_gen cache_ops_gen))
    (fun (base, oa, ob) ->
       let module M = Wcet.Mustcache in
       let s0 = cache_states base (M.empty, Absdom_ref.empty) in
       let a, ra = cache_states oa s0 and b, rb = cache_states ob s0 in
       let j = M.join a b and rj = Absdom_ref.join ra rb in
       first_failure
         [ ("access/blur", cache_agrees a ra && cache_agrees b rb);
           ("join", cache_agrees j rj);
           ("equal", M.equal a b = Absdom_ref.equal ra rb);
           ("leq",
            M.leq a b = Absdom_ref.leq ra rb && M.leq j a = Absdom_ref.leq rj ra);
           ("leq is the order of the join", M.leq a b = M.equal (M.join a b) b);
           ("join is an upper bound", M.leq a j && M.leq b j);
           ("join of equal arguments", M.join a a == a);
           (* equal states have one shape, whatever built them *)
           ("one shape", M.equal a b = (cache_agrees a rb && cache_agrees b ra)) ])

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest intmap_oracle_prop;
      QCheck_alcotest.to_alcotest value_domain_prop;
      QCheck_alcotest.to_alcotest mustcache_domain_prop ]
