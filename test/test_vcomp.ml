(* Tests for the verified-style compiler: selection, optimization
   passes (each under its translation validator), register allocation,
   and full-chain semantic preservation on random programs. *)

let checkb = Alcotest.check Alcotest.bool

let worlds (seed : int) = Minic.Interp.seeded_world ~seed ()

(* full-chain equivalence: interpreter vs simulator *)
let chain_equal ?(cycles = 3)
    (compile : Minic.Ast.program -> Target.Asm.program)
    (p : Minic.Ast.program) (seed : int) : bool =
  let asm = compile p in
  let lay = Target.Layout.build p asm in
  let ri = Minic.Interp.run_cycles p (worlds seed) ~cycles in
  let rs =
    (Target.Sim.run ~cycles ~source:p asm lay (worlds seed) []).Target.Sim.rr_result
  in
  Minic.Interp.result_equal ri rs

(* ---- selection ---- *)

let selection_preserves_prop =
  QCheck.Test.make ~count:100 ~name:"selection: RTL = source semantics"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let ri = Minic.Interp.run_cycle p (worlds seed) in
       let rr = Vcomp.Rtl_interp.run rtl (worlds seed) [] in
       Minic.Interp.result_equal ri rr)

(* ---- optimization passes under their validators ---- *)

let pass_preserves (name : string) (pass : Vcomp.Rtl.program -> Vcomp.Rtl.program) =
  QCheck.Test.make ~count:80 ~name:(name ^ ": validated on random programs")
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = pass rtl in
       (* the validator raises on any behaviour change *)
       Vcomp.Validate.check_pass ~pass:name ~before ~after;
       (* and the result still matches the source *)
       let ri = Minic.Interp.run_cycle p (worlds seed) in
       let rr = Vcomp.Rtl_interp.run after (worlds seed) [] in
       Minic.Interp.result_equal ri rr)

let constprop_prop = pass_preserves "constprop" Vcomp.Constprop.transform
let cse_prop = pass_preserves "cse" Vcomp.Cse.transform
let gvn_prop = pass_preserves "gvn" (fun p -> Vcomp.Gvn.transform p)
let licm_prop = pass_preserves "licm" (fun p -> Vcomp.Licm.transform p)

(* gvn after the local passes, like the real pipeline order *)
let gvn_after_cse_prop =
  QCheck.Test.make ~count:80 ~name:"gvn after constprop+cse: validated"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let rtl = Vcomp.Cse.transform (Vcomp.Constprop.transform rtl) in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = Vcomp.Gvn.transform rtl in
       Vcomp.Validate.check_pass ~pass:"gvn" ~before ~after;
       true)

let deadcode_prop =
  QCheck.Test.make ~count:80 ~name:"deadcode after cse: validated"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let rtl = Vcomp.Cse.transform rtl in
       let before = Vcomp.Rtl.copy_program rtl in
       let after = Vcomp.Deadcode.transform rtl in
       Vcomp.Validate.check_pass ~pass:"deadcode" ~before ~after;
       true)

(* constprop folds a fully constant computation to a constant *)
let test_constprop_folds () =
  let p =
    Minic.Parser.parse_program
      {| int m() { var int a; var int b; a = 6; b = 7; return a * b; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let rtl = Vcomp.Selection.trans_program p in
  let rtl = Vcomp.Constprop.transform rtl in
  let f = List.hd rtl.Vcomp.Rtl.p_funcs in
  let found_const_42 = ref false in
  List.iter
    (fun n ->
       match Vcomp.Rtl.get_instr f n with
       | Vcomp.Rtl.Iop (Vcomp.Rtl.Ointconst 42l, _, _, _) ->
         found_const_42 := true
       | _ -> ())
    (Vcomp.Rtl.reverse_postorder f);
  checkb "6*7 folded to 42" true !found_const_42

(* INT_MIN is no 16-bit immediate: [a + k] and [a - k] must not become
   [addi] with it, and the chain must still compute the source's
   results. *)
let test_constprop_int_min_immediate () =
  let p =
    Minic.Parser.parse_program
      {| volatile in int x; volatile out int y; volatile out int z;
         void m() { var int a; var int k; var int b; var int c;
           a = volatile(x);
           k = 0 - 2147483647 - 1;
           b = a + k;
           c = a - k;
           volatile(y) = b; volatile(z) = c; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let built = Fcstack.Chain.build ~validate:true Fcstack.Chain.Cvcomp p in
  List.iter
    (fun fn ->
       List.iter
         (function
           | Target.Asm.Paddi (_, _, imm) ->
             checkb
               (Printf.sprintf "addi immediate %ld fits 16 bits" imm)
               true
               (imm >= -32768l && imm <= 32767l)
           | _ -> ())
         fn.Target.Asm.fn_code)
    built.Fcstack.Chain.b_asm.Target.Asm.pr_funcs;
  checkb "whole chain matches the source" true
    (Result.is_ok (Fcstack.Chain.validate_chain built))

(* cse: the duplicate load disappears after cse+deadcode *)
let test_cse_removes_duplicate_load () =
  let p =
    Minic.Parser.parse_program
      {| global double g; double m() { return $g +. $g; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let count_loads rtl =
    let f = List.hd rtl.Vcomp.Rtl.p_funcs in
    List.length
      (List.filter
         (fun n ->
            match Vcomp.Rtl.get_instr f n with
            | Vcomp.Rtl.Iload _ -> true
            | _ -> false)
         (Vcomp.Rtl.reverse_postorder f))
  in
  let rtl = Vcomp.Selection.trans_program p in
  Alcotest.check Alcotest.int "two loads before" 2 (count_loads rtl);
  let rtl = Vcomp.Deadcode.transform (Vcomp.Cse.transform rtl) in
  Alcotest.check Alcotest.int "one load after" 1 (count_loads rtl)

(* ---- liveness: worklist vs naive fixpoint ---- *)

(* RTL after the full -O 2 pipeline: LICM preheaders, deadcode [Inop]s
   and nodes that folded branches left unreachable *)
let o2_rtl (p : Minic.Ast.program) : Vcomp.Rtl.program =
  fst
    (Vcomp.Pass.run_pipeline
       { Vcomp.Pass.default_options with Vcomp.Pass.opt_validate = false }
       (Vcomp.Selection.trans_program p))

(* The registers [iter_live_after] lists for node [n], in its order. *)
let live_row (lv : Vcomp.Liveness.t) (n : Vcomp.Rtl.node) : Vcomp.Rtl.reg list =
  let listed = ref [] in
  Vcomp.Liveness.iter_live_after lv n (fun r -> listed := r :: !listed);
  List.rev !listed

(* Every row below the node bound lists, in ascending order, the set of
   the naive fixpoint in [Liveness_ref], and the rows of unreachable
   nodes are empty; [iter_nodes] walks [Rtl.reverse_postorder] with the
   function's instructions. *)
let liveness_prop =
  QCheck.Test.make ~count:60 ~name:"liveness: worklist = naive fixpoint"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let module L = Vcomp.Liveness in
       List.for_all
         (fun f ->
            let fast = L.analyze f in
            let slow = Liveness_ref.analyze f in
            let rpo = Vcomp.Rtl.reverse_postorder f in
            let walked = ref [] in
            L.iter_nodes fast (fun n i -> walked := (n, i) :: !walked);
            List.rev !walked
            = List.map (fun n -> (n, Vcomp.Rtl.get_instr f n)) rpo
            && List.for_all
                 (fun n ->
                    let live = live_row fast n in
                    live = Liveness_ref.RegSet.elements (slow n)
                    && (List.mem n rpo || live = []))
                 (List.init (Vcomp.Rtl.node_bound f) Fun.id))
         ((Vcomp.Selection.trans_program p).Vcomp.Rtl.p_funcs
          @ (o2_rtl p).Vcomp.Rtl.p_funcs))

(* ---- the shared CFG walk ---- *)

let sorted_preds (a : Vcomp.Rtl.node list array) : Vcomp.Rtl.node list array =
  Array.map (List.sort compare) a

(* The walk's order is [Rtl.reverse_postorder], its predecessor lists
   hold the same edges as a scan of the reachable nodes' successors, and
   its instructions are the function's. *)
let walk_agrees (f : Vcomp.Rtl.func) : bool =
  let w = Vcomp.Rtl.walk f in
  let rpo = Vcomp.Rtl.reverse_postorder f in
  Array.to_list w.Vcomp.Rtl.w_order = rpo
  && sorted_preds w.Vcomp.Rtl.w_preds = sorted_preds (Dataflow_ref.predecessors f)
  && List.for_all
       (fun n -> w.Vcomp.Rtl.w_code.(n) == Vcomp.Rtl.get_instr f n)
       rpo

let walk_prop =
  QCheck.Test.make ~count:80 ~name:"walk: order and predecessors = naive scans"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       List.for_all walk_agrees
         ((Vcomp.Selection.trans_program p).Vcomp.Rtl.p_funcs
          @ (o2_rtl p).Vcomp.Rtl.p_funcs))

(* A hand-built CFG with an unreachable node and a conditional whose two
   successors are equal:
     1: x = a + b -> 2      2: cond (x != 0) -> 3 | 3
     3: y = a + b -> 4      4: return y          5: nop -> 3 (unreachable) *)
let test_walk_edge_cases () =
  let module R = Vcomp.Rtl in
  let f = R.create_func "w" (Some Minic.Ast.Tint) in
  let a = R.fresh_reg f R.Cint and b = R.fresh_reg f R.Cint in
  let x = R.fresh_reg f R.Cint and y = R.fresh_reg f R.Cint in
  let f = { f with R.f_entry = 1; R.f_params = [ (a, R.Cint); (b, R.Cint) ] } in
  let node i expected =
    Alcotest.check Alcotest.int "node number" expected (R.add_instr f i)
  in
  node (R.Iop (R.Oadd, [ a; b ], x, 2)) 1;
  node (R.Icond (R.Ccompimm (Minic.Ast.Cne, 0l), [ x ], 3, 3)) 2;
  node (R.Iop (R.Oadd, [ a; b ], y, 4)) 3;
  node (R.Ireturn (Some y)) 4;
  node (R.Inop 3) 5;
  let w = R.walk f in
  let nodes = Alcotest.(list int) in
  Alcotest.check nodes "reverse postorder" [ 1; 2; 3; 4 ]
    (Array.to_list w.R.w_order);
  Alcotest.check nodes "the conditional counts twice" [ 2; 2 ] w.R.w_preds.(3);
  Alcotest.check nodes "an unreachable node has no predecessors" []
    w.R.w_preds.(5);
  checkb "agrees with the naive scans" true (walk_agrees f);
  (* two predecessor edges make node 3 a block head: local CSE does not
     reuse [x] there, and neither does the reference *)
  let g = R.copy_func f in
  Vcomp.Cse.transform_func f;
  Dataflow_ref.cse_func g;
  checkb "cse leaves node 3" true
    (R.get_instr f 3 = R.Iop (R.Oadd, [ a; b ], y, 4)
     && R.get_instr g 3 = R.get_instr f 3);
  (* a successor that is no node raises, inside or past the bound *)
  let raises f =
    match R.walk f with exception Invalid_argument _ -> true | _ -> false
  in
  R.set_instr f 4 (R.Inop 9);
  checkb "successor past the node bound" true (raises f);
  R.set_instr f 4 (R.Inop 5);
  Hashtbl.remove f.R.f_code 5;
  checkb "successor removed from the code table" true (raises f)

(* ---- reference dataflow passes ---- *)

let code_equal (a : Vcomp.Rtl.func) (b : Vcomp.Rtl.func) : bool =
  Hashtbl.length a.Vcomp.Rtl.f_code = Hashtbl.length b.Vcomp.Rtl.f_code
  && Hashtbl.fold
       (fun n i ok ->
          ok
          && match Hashtbl.find_opt b.Vcomp.Rtl.f_code n with
          | Some j -> compare i j = 0 (* NaN constants compare equal *)
          | None -> false)
       a.Vcomp.Rtl.f_code true

(* At the input of every stage of the -O 2 pipeline, constprop, CSE and
   GVN leave the same code as the reference passes. GVN runs at a
   starved fuel, at the default, and one step either side of the fuel
   at which the reference converges: both versions must skip the same
   functions. *)
let dataflow_reference_prop =
  QCheck.Test.make ~count:60
    ~name:"constprop/cse/gvn = reference passes at every -O 2 stage"
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, starved) ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       (* each pass answers whether it converged *)
       let same pass reference f =
         let a = Vcomp.Rtl.copy_func f and b = Vcomp.Rtl.copy_func f in
         let converged = pass a in
         converged = reference b && code_equal a b
       in
       let always pass f = pass f; true in
       let gvn f fuel =
         same (Vcomp.Gvn.transform_func ~fuel)
           (fun g -> Option.is_some (Dataflow_ref.gvn_func ~fuel g))
           f
       in
       let agree (rtl : Vcomp.Rtl.program) =
         List.for_all
           (fun f ->
              let steps =
                match Dataflow_ref.gvn_func ~fuel:max_int (Vcomp.Rtl.copy_func f) with
                | Some k -> [ k - 1; k ]
                | None -> []
              in
              same (always Vcomp.Constprop.transform_func)
                (always Dataflow_ref.constprop_func) f
              && same (always Vcomp.Cse.transform_func)
                   (always Dataflow_ref.cse_func) f
              && List.for_all (gvn f)
                   (starved :: Vcomp.Pass.default_fuel :: steps))
           rtl.Vcomp.Rtl.p_funcs
       in
       (* each stage transforms the program in place, after the check *)
       let rtl = Vcomp.Selection.trans_program p in
       List.for_all
         (fun (stage : Vcomp.Pass.pass) ->
            agree rtl
            && (ignore (stage.Vcomp.Pass.transform ~fuel:Vcomp.Pass.default_fuel rtl);
                true))
         Vcomp.Pass.pipeline
       && agree rtl)

(* ---- dead code on one maintained liveness ---- *)

(* The rows and instructions [lv] holds equal a fresh analysis of [f]
   on every reachable node. *)
let liveness_current (f : Vcomp.Rtl.func) (lv : Vcomp.Liveness.t) : bool =
  let module L = Vcomp.Liveness in
  let fresh = L.analyze f in
  let nodes lv =
    let acc = ref [] in
    L.iter_nodes lv (fun n i -> acc := (n, i) :: !acc);
    !acc
  in
  nodes lv = nodes fresh
  && List.for_all
       (fun n -> live_row lv n = live_row fresh n)
       (Vcomp.Rtl.reverse_postorder f)

(* At sweep budgets 1 to 5 and at the pipeline's cap of 64, dead-code
   elimination leaves the same code as the reference, which analyzes
   liveness afresh for every sweep; and after every sweep the liveness
   the pass maintains equals a fresh one. *)
let deadcode_agrees (f : Vcomp.Rtl.func) : bool =
  List.for_all
    (fun fuel ->
       let a = Vcomp.Rtl.copy_func f and b = Vcomp.Rtl.copy_func f in
       Vcomp.Deadcode.transform_func ~fuel a;
       Dataflow_ref.deadcode_func ~fuel b;
       code_equal a b)
    [ 1; 2; 3; 4; 5; 64 ]
  &&
  let g = Vcomp.Rtl.copy_func f in
  let lv = Vcomp.Liveness.analyze g in
  let rec sweeps budget =
    let removed = Vcomp.Deadcode.eliminate_once g lv in
    liveness_current g lv && ((not removed) || budget = 1 || sweeps (budget - 1))
  in
  sweeps 64

(* The functions dead-code elimination gets from the selection, from
   the -O 1 pipeline and from the -O 2 pipeline. *)
let deadcode_inputs (p : Minic.Ast.program) : Vcomp.Rtl.func list =
  List.concat_map
    (fun level ->
       (fst
          (Vcomp.Pass.run_pipeline
             { (Vcomp.Pass.level level) with
               Vcomp.Pass.opt_deadcode = false;
               opt_validate = false }
             (Vcomp.Selection.trans_program p)))
         .Vcomp.Rtl.p_funcs)
    [ 0; 1; 2 ]

let deadcode_reference_prop =
  QCheck.Test.make ~count:60
    ~name:"deadcode: maintained liveness = fresh, code = per-sweep reference"
    QCheck.small_int
    (fun seed ->
       List.for_all deadcode_agrees
         (deadcode_inputs (Testlib.Gen.gen_program (seed land 0xFFFF))))

(* The registers a removed instruction read stay live where a store or
   an annotation reads them later. The selection reads a variable
   through a fresh move, so this is built by hand:
     1: x = acquire v      2: c = 7             3: y = x + c (dead)
     4: store g = x        5: z = acquire v     6: w = z (dead)
     7: annot "%1" z       8: return
   The first sweep removes nodes 3 and 6, the second node 2. *)
let test_deadcode_store_and_annotation_uses () =
  let module R = Vcomp.Rtl in
  let f = R.create_func "d" None in
  let reg () = R.fresh_reg f R.Cint in
  let x = reg () and c = reg () and y = reg () in
  let z = reg () and w = reg () in
  let f = { f with R.f_entry = 1 } in
  List.iter
    (fun i -> ignore (R.add_instr f i))
    [ R.Iacq ("v", x, 2); R.Iop (R.Ointconst 7l, [], c, 3);
      R.Iop (R.Oadd, [ x; c ], y, 4); R.Istore (R.Mint32, R.ADglob "g", [], x, 5);
      R.Iacq ("v", z, 6); R.Iop (R.Omove, [ z ], w, 7);
      R.Iannot ("keep %1", [ R.RA_reg z ], 8); R.Ireturn None ];
  checkb "agrees with the reference after every sweep" true (deadcode_agrees f);
  Vcomp.Deadcode.transform_func f;
  Alcotest.(check (list int)) "removed nodes" [ 2; 3; 6 ]
    (List.filter
       (fun n -> match R.get_instr f n with R.Inop _ -> true | _ -> false)
       (R.reverse_postorder f)
     |> List.sort compare)

(* ---- node and register counters ---- *)

(* A far [set_instr] used to leave the counters behind: with the node
   counter at 5, [set_instr] at node 10 let the sixth [add_instr] return
   node 10 and overwrite the instruction put there, and [fresh_reg]
   handed out the registers that instruction already named. *)
let test_rtl_counters_past_set_instr () =
  let module R = Vcomp.Rtl in
  let f = R.create_func "c" (Some Minic.Ast.Tint) in
  let x = R.fresh_reg f R.Cint in
  for _ = 1 to 4 do ignore (R.add_instr f (R.Inop 1)) done;
  Alcotest.check Alcotest.int "next node" 5 f.R.f_next_node;
  let far = R.Iop (R.Oadd, [ x; x + 1 ], x + 2, 1) in
  R.set_instr f 10 far;
  for _ = 1 to 6 do
    let n = R.add_instr f (R.Ireturn (Some x)) in
    checkb (Printf.sprintf "node %d was not in use" n) true (n > 4 && n <> 10)
  done;
  checkb "the far instruction survives" true (R.get_instr f 10 = far);
  let r = R.fresh_reg f R.Cint in
  checkb (Printf.sprintf "register x%d is named nowhere" r) true (r > x + 2);
  Alcotest.check Alcotest.int "node bound = fold" (Dataflow_ref.node_bound f)
    (R.node_bound f);
  Alcotest.check Alcotest.int "register bound = fold" (Dataflow_ref.reg_bound f)
    (R.reg_bound f)

(* Random [add_instr] / [set_instr] / [fresh_reg] sequences: the bounds
   never fall below the folds over the tables, [add_instr] always gets a
   node that is not in use, and [fresh_reg] a register that no
   instruction and no class names. *)
let rtl_counters_prop =
  QCheck.Test.make ~count:200 ~name:"rtl: counters bound every node and register"
    QCheck.(list_of_size Gen.(int_range 1 40) (triple (int_bound 2) (int_bound 60) (int_bound 60)))
    (fun ops ->
       let module R = Vcomp.Rtl in
       let f = R.create_func "r" None in
       let named r =
         Hashtbl.mem f.R.f_classes r
         || Hashtbl.fold
              (fun _ i acc ->
                 acc || List.mem r (R.instr_uses i) || R.instr_def i = Some r)
              f.R.f_code false
       in
       let instr a b =
         match a mod 4 with
         | 0 -> R.Iop (R.Oadd, [ a; b ], a + b, b)
         | 1 -> R.Istore (R.Mint32, R.ADarr "t", [ b ], a, a)
         | 2 -> R.Iannot ("x", [ R.RA_reg b; R.RA_cint 1l ], a)
         | _ -> R.Ireturn (Some b)
       in
       List.for_all
         (fun (op, a, b) ->
            (match op with
             | 0 ->
               let n = f.R.f_next_node in
               not (Hashtbl.mem f.R.f_code n)
               && R.add_instr f (instr a b) = n
             | 1 -> R.set_instr f a (instr a b); true
             | _ ->
               let r = f.R.f_next_reg in
               (not (named r)) && R.fresh_reg f R.Cfloat = r)
            && R.node_bound f >= Dataflow_ref.node_bound f
            && R.reg_bound f >= Dataflow_ref.reg_bound f)
         ops)

(* Where every node comes from [add_instr] and every register from
   [fresh_reg] — the selection's output and every -O 2 pass after it —
   the counters are exactly the folds. *)
let rtl_bounds_pipeline_prop =
  QCheck.Test.make ~count:60 ~name:"rtl: bounds = folds after selection and each -O 2 pass"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let exact (rtl : Vcomp.Rtl.program) =
         List.for_all
           (fun f ->
              Vcomp.Rtl.node_bound f = Dataflow_ref.node_bound f
              && Vcomp.Rtl.reg_bound f = Dataflow_ref.reg_bound f)
           rtl.Vcomp.Rtl.p_funcs
       in
       let rtl = Vcomp.Selection.trans_program p in
       exact rtl
       && List.for_all
            (fun (stage : Vcomp.Pass.pass) ->
               exact (stage.Vcomp.Pass.transform ~fuel:Vcomp.Pass.default_fuel rtl))
            Vcomp.Pass.pipeline)

(* ---- register allocation ---- *)

let allocate (f : Vcomp.Rtl.func) : Vcomp.Liveness.t * Vcomp.Regalloc.result =
  let lv = Vcomp.Liveness.analyze f in
  (lv, Vcomp.Regalloc.allocate f lv)

let regalloc_valid_prop =
  QCheck.Test.make ~count:80 ~name:"regalloc: validator accepts all allocations"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       List.for_all
         (fun f ->
            let lv, res = allocate f in
            match Vcomp.Regalloc.verify f lv res with
            | Ok () -> true
            | Error _ -> false)
         rtl.Vcomp.Rtl.p_funcs)

(* mutation testing of the validator: merging an interfering pair (by
   the reference allocator's graph) must be rejected *)
let regalloc_mutation_prop =
  QCheck.Test.make ~count:60 ~name:"regalloc: corrupted allocation rejected"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rtl = Vcomp.Selection.trans_program p in
       let f = List.hd rtl.Vcomp.Rtl.p_funcs in
       let lv, res = allocate f in
       let g = (Regalloc_ref.allocate f).Regalloc_ref.ra_graph in
       (* find an interfering pair with different locations *)
       let victim = ref None in
       Array.iteri
         (fun a neighbors ->
            if !victim = None then
              Array.iter
                (fun b ->
                   if !victim = None
                      && Vcomp.Rtl.reg_class f a = Vcomp.Rtl.reg_class f b
                      && not
                           (Vcomp.Regalloc.loc_equal
                              (Vcomp.Regalloc.location res a)
                              (Vcomp.Regalloc.location res b)) then
                     victim := Some (a, b))
                neighbors)
         (Lazy.force g.Regalloc_ref.g_adj);
       match !victim with
       | None -> true (* nothing to corrupt in a tiny function *)
       | Some (a, b) ->
         res.Vcomp.Regalloc.ra_alloc.(a) <- res.Vcomp.Regalloc.ra_alloc.(b);
         (match Vcomp.Regalloc.verify f lv res with
          | Ok () -> false (* must be rejected *)
          | Error _ -> true))

(* The array-based validator against the set-based reference
   ([Regalloc_ref.verify]) on -O 2 code: on the allocation as computed
   and after corruptions that give a register the location of an
   interfering register, of a non-interfering one, or of its move
   partner (by the reference allocator's graph), the verdicts and the
   first messages are equal. *)
let regalloc_reference_prop =
  QCheck.Test.make ~count:80
    ~name:"regalloc: verify = set-based reference under corruption"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let rng = Random.State.make [| seed |] in
       let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
       List.for_all
         (fun f ->
            let lv, res = allocate f in
            let g = (Regalloc_ref.allocate f).Regalloc_ref.ra_graph in
            let agree res =
              Vcomp.Regalloc.verify f lv res = Regalloc_ref.verify f res
            in
            let alloc = res.Vcomp.Regalloc.ra_alloc in
            let regs =
              List.filter
                (fun r -> alloc.(r) <> None)
                (List.init (Array.length alloc) Fun.id)
            in
            let adj a = Array.to_list (Lazy.force g.Regalloc_ref.g_adj).(a) in
            (* the pair (a, b) whose location a takes over, by kind *)
            let victim kind =
              match kind with
              | 0 ->
                (match List.filter (fun a -> adj a <> []) regs with
                 | [] -> None
                 | cands -> let a = pick cands in Some (a, pick (adj a)))
              | 1 ->
                let a = pick regs in
                (match
                   List.filter (fun b -> b <> a && not (List.mem b (adj a))) regs
                 with
                 | [] -> None
                 | cands -> Some (a, pick cands))
              | _ ->
                (match g.Regalloc_ref.g_moves with
                 | [] -> None
                 | moves ->
                   let d, s = pick moves in
                   Some (if Random.State.bool rng then (d, s) else (s, d)))
            in
            agree res
            && List.for_all
                 (fun kind ->
                    match victim kind with
                    | None -> true
                    | Some (a, b) ->
                      let alloc = Array.copy alloc in
                      alloc.(a) <- alloc.(b);
                      agree { res with Vcomp.Regalloc.ra_alloc = alloc })
                 [ 0; 1; 2; 0; 1; 2 ])
         (o2_rtl p).Vcomp.Rtl.p_funcs)

(* More floats live at once than the float bank holds, and a random
   number of ints, summed in a random order: every such function
   spills, where the generated programs never do. *)
let pressure_source (seed : int) : string =
  let rng = Random.State.make [| seed |] in
  let nf = List.length Target.Asm.allocatable_fregs + 1 + Random.State.int rng 24 in
  let ni = 1 + Random.State.int rng 40 in
  let shuffled n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let each n fmt = String.concat " " (List.map fmt (shuffled n)) in
  Printf.sprintf
    {| volatile in int k; volatile in double s;
       volatile out int q; volatile out double o;
       void m() { %s %s var int ia; var double fa;
         %s %s
         ia = 0; fa = 0.0;
         %s %s
         volatile(q) = ia; volatile(o) = fa; } main m; |}
    (each ni (Printf.sprintf "var int a%d;"))
    (each nf (Printf.sprintf "var double b%d;"))
    (each ni (fun i -> Printf.sprintf "a%d = volatile(k) * %d;" i (i + 3)))
    (each nf (fun i -> Printf.sprintf "b%d = volatile(s) *. %d.5;" i (i + 1)))
    (each ni (fun i -> Printf.sprintf "ia = ia + a%d;" i))
    (each nf (fun i ->
         Printf.sprintf "fa = fa %s b%d;" (if Random.State.bool rng then "+." else "*.") i))

(* [res] with every register of a class at the location of the
   lowest-numbered register of that class: [verify] then compares many
   registers at once, in every word of a row, so its first message
   shows its scan order. *)
let collapsed (f : Vcomp.Rtl.func) (res : Vcomp.Regalloc.result) :
  Vcomp.Regalloc.result =
  let alloc = Array.copy res.Vcomp.Regalloc.ra_alloc in
  let first = Hashtbl.create 2 in
  Array.iteri
    (fun r l ->
       if l <> None then
         match Hashtbl.find_opt first (Vcomp.Rtl.reg_class f r) with
         | Some l -> alloc.(r) <- l
         | None -> Hashtbl.replace first (Vcomp.Rtl.reg_class f r) l)
    alloc;
  { res with Vcomp.Regalloc.ra_alloc = alloc }

(* The bit-row allocator gives every register the location the
   list-based reference ([Regalloc_ref.allocate]) gives it and uses as
   many spill slots, on the selected RTL and after the -O 1 and -O 2
   pipelines, of generated programs and of high-pressure ones, which
   must spill and have rows of several words; on a collapsed
   allocation, [verify] gives the set-based reference's first
   message. *)
let regalloc_dense_prop =
  QCheck.Test.make ~count:80
    ~name:"regalloc: locations and slots = list-based reference"
    QCheck.small_int
    (fun seed ->
       let agree ~spills (p : Minic.Ast.program) =
         List.for_all
           (fun rtl ->
              List.for_all
                (fun f ->
                   let lv, res = allocate f in
                   Regalloc_ref.agrees (Regalloc_ref.allocate f) res
                   && ((not spills) || res.Vcomp.Regalloc.ra_nslots > 0)
                   && Vcomp.Regalloc.verify f lv (collapsed f res)
                      = Regalloc_ref.verify f (collapsed f res))
                rtl.Vcomp.Rtl.p_funcs)
           (Vcomp.Selection.trans_program p
            :: List.map
                 (fun level ->
                    fst
                      (Vcomp.Pass.run_pipeline
                         { (Vcomp.Pass.level level) with Vcomp.Pass.opt_validate = false }
                         (Vcomp.Selection.trans_program p)))
                 [ 1; 2 ])
       in
       let pressure = Minic.Parser.parse_program (pressure_source seed) in
       Minic.Typecheck.check_program_exn pressure;
       agree ~spills:false (Testlib.Gen.gen_program (seed land 0xFFFF))
       && agree ~spills:true pressure)

(* ---- full chain ---- *)

let full_chain_prop =
  QCheck.Test.make ~count:120 ~name:"vcomp: machine = source on random programs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       chain_equal
         (Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation)
         p seed)

let full_chain_validated_prop =
  QCheck.Test.make ~count:30
    ~name:"vcomp: per-pass validators pass on random programs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       ignore (Vcomp.Driver.compile p); (* validators on: raises on failure *)
       true)

(* NaN behaviour through the whole chain *)
let test_nan_comparisons_compiled () =
  let p =
    Minic.Parser.parse_program
      {| global double g;
         double m() {
           var double n; var double r;
           n = 0x0p+0 /. 0x0p+0;
           if (n <=. 1.0) { r = 1.0; } else { r = 2.0; }
           if (n >=. 1.0) { r = r +. 10.0; } else { r = r +. 20.0; }
           if (n !=. n) { r = r +. 100.0; } else { r = r +. 200.0; }
           return r;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  List.iter
    (fun (name, compile) ->
       checkb name true (chain_equal compile p 1))
    [ ("vcomp NaN", Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation);
      ("cotsc O0 NaN", Cotsc.Driver.compile ~level:Cotsc.Driver.Onone ~contract_fma:false);
      ("cotsc O2 NaN",
       Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull ~contract_fma:false) ]

(* ---- the pass manager ---- *)

(* a deliberately wrong rewrite must be caught by the per-pass
   validator: [Pass.run_pipeline] wraps every pass in
   [Validate.check_pass], so a miscompiling pass cannot slip through
   when validation is on *)
let test_wrong_rewrite_caught () =
  let p =
    Minic.Parser.parse_program
      {| global double g; double m() { return 5.0 -. $g; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let rtl = Vcomp.Selection.trans_program p in
  let before = Vcomp.Rtl.copy_program rtl in
  (* "optimize" by swapping the operands of the subtraction — the
     classic wrong-but-plausible strength rewrite *)
  let f = List.hd rtl.Vcomp.Rtl.p_funcs in
  let corrupted = ref false in
  List.iter
    (fun n ->
       match Vcomp.Rtl.get_instr f n with
       | Vcomp.Rtl.Iop (Vcomp.Rtl.Ofsub, [ a; b ], d, s) when not !corrupted ->
         corrupted := true;
         Vcomp.Rtl.set_instr f n (Vcomp.Rtl.Iop (Vcomp.Rtl.Ofsub, [ b; a ], d, s))
       | _ -> ())
    (Vcomp.Rtl.reverse_postorder f);
  checkb "found a subtraction to corrupt" true !corrupted;
  checkb "validator rejects the wrong rewrite" true
    (match Vcomp.Validate.check_pass ~pass:"evil" ~before ~after:rtl with
     | () -> false
     | exception Vcomp.Validate.Validation_failed _ -> true)

(* GVN deduplicates repeated float constants across blocks (the local
   CSE misses them once control flow splits) *)
let test_gvn_dedups_float_constants () =
  let p =
    Minic.Parser.parse_program
      {| global double g; global double h;
         double m() {
           $h = $g *. 2.5;
           if ($g <. 1.0) { $h = $h +. 2.5; } else { $h = $h -. 2.5; }
           return $h *. 2.5;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let count_fconsts rtl =
    let f = List.hd rtl.Vcomp.Rtl.p_funcs in
    List.length
      (List.filter
         (fun n ->
            match Vcomp.Rtl.get_instr f n with
            | Vcomp.Rtl.Iop (Vcomp.Rtl.Ofloatconst _, _, _, _) -> true
            | _ -> false)
         (Vcomp.Rtl.reverse_postorder f))
  in
  let rtl = Vcomp.Selection.trans_program p in
  let without =
    count_fconsts
      (Vcomp.Deadcode.transform
         (Vcomp.Cse.transform (Vcomp.Rtl.copy_program rtl)))
  in
  let with_gvn =
    count_fconsts
      (Vcomp.Deadcode.transform (Vcomp.Gvn.transform (Vcomp.Cse.transform rtl)))
  in
  checkb
    (Printf.sprintf "gvn reduces float-const ops (%d -> %d)" without with_gvn)
    true
    (with_gvn < without)

(* LICM hoists the invariant multiply out of the loop: the WCET bound
   (which charges the loop body per iteration) must strictly improve *)
let test_licm_improves_loop_wcet () =
  let p =
    Minic.Parser.parse_program
      {| global double g; global double s;
         double m() {
           var int i;
           for (i = 0; i < 16) { $s = $s +. ($g *. 2.0 *. 4.0); }
           return $s;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let wcet options =
    let asm = Vcomp.Driver.compile ~options p in
    let lay = Target.Layout.build p asm in
    (Wcet.Driver.analyze
       ~spec:("vcomp:" ^ Vcomp.Pass.spec options) asm lay)
      .Wcet.Report.rp_wcet
  in
  let off = wcet Vcomp.Driver.{ no_validation with opt_licm = false } in
  let on_ = wcet Vcomp.Driver.no_validation in
  checkb (Printf.sprintf "licm tightens the bound (%d < %d)" on_ off) true
    (on_ < off)

(* spec strings round-trip through the parser *)
let test_pass_spec_roundtrip () =
  let check_rt (o : Vcomp.Pass.options) =
    match Vcomp.Pass.of_spec (Vcomp.Pass.spec o) with
    | Ok o' ->
      Alcotest.check Alcotest.string "spec round-trips"
        (Vcomp.Pass.spec o) (Vcomp.Pass.spec o')
    | Error e -> Alcotest.fail e
  in
  List.iter check_rt
    [ Vcomp.Pass.default_options;
      Vcomp.Pass.all_off;
      Vcomp.Pass.level 0;
      Vcomp.Pass.level 1;
      Vcomp.Pass.level 2;
      { Vcomp.Pass.default_options with Vcomp.Pass.opt_licm = false };
      { Vcomp.Pass.default_options with Vcomp.Pass.opt_gvn = false } ];
  checkb "unknown pass rejected" true
    (Result.is_error (Vcomp.Pass.of_spec "constprop,vectorize"));
  checkb "level 1 disables gvn" true
    (not (Vcomp.Pass.level 1).Vcomp.Pass.opt_gvn);
  checkb "level 2 enables licm" true (Vcomp.Pass.level 2).Vcomp.Pass.opt_licm

(* exhausted fuel skips the pass instead of rewriting from an
   unconverged analysis: the output still matches the source *)
let starved_passes_prop =
  QCheck.Test.make ~count:40 ~name:"gvn/licm with starved fuel: still correct"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       chain_equal
         (Vcomp.Driver.compile
            ~options:Vcomp.Driver.{ no_validation with opt_fuel = 3 })
         p seed)

(* ablation configurations stay correct *)
let ablation_chain_prop =
  QCheck.Test.make ~count:40 ~name:"vcomp ablations: still semantics-preserving"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun options ->
            chain_equal (Vcomp.Driver.compile ~options) p seed)
         [ Vcomp.Driver.{ no_validation with opt_constprop = false };
           Vcomp.Driver.{ no_validation with opt_cse = false };
           Vcomp.Driver.{ no_validation with opt_gvn = false };
           Vcomp.Driver.{ no_validation with opt_licm = false };
           Vcomp.Driver.{ no_validation with opt_deadcode = false };
           { Vcomp.Pass.all_off with Vcomp.Pass.opt_validate = false } ])

(* ---- pinned assembly ---- *)

(* The compiler's output on fixed inputs, recorded as MD5 digests of the
   emitted assembly. A change to a pass's data structures must leave
   every rewrite, coalesce, color, spill slot and unit of fuel charged
   as it was, so these digests may only move with a deliberate change
   to the generated code. *)

let asm_text (options : Vcomp.Pass.options) (p : Minic.Ast.program) : string =
  Target.Emit.program_to_string (Vcomp.Driver.compile ~options p)

let digest (s : string) : string = Digest.to_hex (Digest.string s)

(* Ten generated nodes per profile (seeds 2026 + 7919 i) at -O 2. Fuel
   3 starves GVN and LICM and stops dead-code elimination after 3
   sweeps; 64 is the sweep cap; the default lets every pass converge. *)
let golden_profiles =
  Scade.Workload.
    [ ("io", io_node); ("small", small_node); ("medium", medium_node);
      ("large", large_node) ]

let golden_digests =
  [ ("io", 3, "82b0e9c54f424967e849dfd562422cec");
    ("io", 64, "487750e18388d5517a4b628b6e5e978d");
    ("io", Vcomp.Pass.default_fuel, "c77812b17882b58fcdb38143cdacb9b8");
    ("small", 3, "63fe9fd40684f26cb56917bd92392ee5");
    ("small", 64, "63fe9fd40684f26cb56917bd92392ee5");
    ("small", Vcomp.Pass.default_fuel, "a534bb4a52e0fe2f687ed9c3d21b1dfd");
    ("medium", 3, "f7f050b9691ceb5372f559615c2d840d");
    ("medium", 64, "3bd4fe44fc74e90fe3f8cb19194d0364");
    ("medium", Vcomp.Pass.default_fuel, "5b46f902d88982b6f62120716d128dbe");
    ("large", 3, "a113280aa9cd0012135818820b8c3d20");
    ("large", 64, "a113280aa9cd0012135818820b8c3d20");
    ("large", Vcomp.Pass.default_fuel, "57c2c3c4503aba2955f6713a95cc8170") ]

(* Medium node 5 needs exactly 367 GVN worklist steps to converge: with
   one unit less GVN skips its function. Pinning both sides catches any
   change to the fuel a step is charged. *)
let fuel_boundary_digests =
  [ (366, "e131b9831acebc94098e18794372b198");
    (367, "a05ff304283bf97190aed95b58337275") ]

let golden_node (profile : Scade.Workload.profile) (i : int) : Minic.Ast.program =
  Scade.Acg.generate
    (Scade.Workload.generate_node ~profile ~seed:(2026 + (7919 * i))
       (Printf.sprintf "g%02d" i))

let test_golden_assembly () =
  let profile name = List.assoc name golden_profiles in
  let at_fuel fuel = { (Vcomp.Pass.level 2) with Vcomp.Pass.opt_fuel = fuel } in
  List.iter
    (fun (name, fuel, expected) ->
       let text =
         String.concat ""
           (List.init 10 (fun i -> asm_text (at_fuel fuel) (golden_node (profile name) i)))
       in
       Alcotest.check Alcotest.string
         (Printf.sprintf "%s nodes, fuel %d" name fuel)
         expected (digest text))
    golden_digests;
  List.iter
    (fun (fuel, expected) ->
       Alcotest.check Alcotest.string
         (Printf.sprintf "medium node 5, fuel %d" fuel)
         expected
         (digest (asm_text (at_fuel fuel) (golden_node Scade.Workload.medium_node 5))))
    fuel_boundary_digests

(* More simultaneously live ints and floats than the allocatable banks
   hold: the optimistic-spill branch must run, and spill slots must keep
   the program correct. *)
let pressure_program : string =
  let n =
    6
    + max
        (List.length Target.Asm.allocatable_iregs)
        (List.length Target.Asm.allocatable_fregs)
  in
  let each fmt = String.concat " " (List.init n fmt) in
  Printf.sprintf
    {| volatile in int k; volatile in double s;
       volatile out int q; volatile out double o;
       void m() { %s %s var int ia; var double fa;
         %s %s
         ia = 0; fa = 0.0;
         %s %s
         volatile(q) = ia; volatile(o) = fa; } main m; |}
    (each (Printf.sprintf "var int a%d;"))
    (each (Printf.sprintf "var double b%d;"))
    (each (fun i -> Printf.sprintf "a%d = volatile(k) * %d;" i (i + 3)))
    (each (fun i -> Printf.sprintf "b%d = volatile(s) *. %d.5;" i (i + 1)))
    (each (fun i -> Printf.sprintf "ia = ia + a%d;" (n - 1 - i)))
    (each (fun i -> Printf.sprintf "fa = fa +. b%d;" (n - 1 - i)))

let test_register_pressure () =
  let p = Minic.Parser.parse_program pressure_program in
  Minic.Typecheck.check_program_exn p;
  let rtl, _ =
    Vcomp.Pass.run_pipeline Vcomp.Pass.default_options
      (Vcomp.Selection.trans_program p)
  in
  List.iter
    (fun f ->
       let lv, res = allocate f in
       checkb "validator accepts the allocation" true
         (Result.is_ok (Vcomp.Regalloc.verify f lv res));
       checkb
         (Printf.sprintf "spills (%d slots)" res.Vcomp.Regalloc.ra_nslots)
         true
         (res.Vcomp.Regalloc.ra_nslots > 0))
    rtl.Vcomp.Rtl.p_funcs;
  List.iter
    (fun seed ->
       checkb
         (Printf.sprintf "machine = source (world %d)" seed)
         true
         (chain_equal (Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation)
            p seed))
    [ 1; 2; 3 ];
  Alcotest.check Alcotest.string "assembly digest"
    "b41726acb8d6c3fc36888732f928059a"
    (digest (asm_text Vcomp.Driver.default_options p))

(* A register compared at some node but missing from the allocation,
   or from the class table, makes [verify] answer an [Error] naming the
   node and the register; it does not raise. *)
let test_regalloc_missing_location () =
  let p = Minic.Parser.parse_program pressure_program in
  Minic.Typecheck.check_program_exn p;
  let f = List.hd (o2_rtl p).Vcomp.Rtl.p_funcs in
  let lv, res = allocate f in
  (* a register live after a definition of its own class *)
  let victim = ref None in
  Vcomp.Liveness.iter_nodes lv (fun n i ->
      match Vcomp.Rtl.instr_def i with
      | Some d when !victim = None ->
        Vcomp.Liveness.iter_live_after lv n (fun r ->
            if !victim = None && r <> d
               && Vcomp.Rtl.reg_class f r = Vcomp.Rtl.reg_class f d then
              victim := Some r)
      | _ -> ());
  let r = match !victim with Some r -> r | None -> Alcotest.fail "no live pair" in
  (* the named node defines [r] or has [r] live after it *)
  let names_r what = function
    | Ok () -> Alcotest.failf "missing %s accepted" what
    | Error msg ->
      Scanf.sscanf msg "node %d: x%d has no %s@\n" (fun n r' rest ->
          Alcotest.check Alcotest.string "what is missing" what rest;
          Alcotest.check Alcotest.int "register named" r r';
          checkb "node compares the register" true
            (Vcomp.Liveness.is_live_after lv n r
             || Vcomp.Rtl.instr_def (Vcomp.Rtl.get_instr f n) = Some r))
  in
  let alloc = Array.copy res.Vcomp.Regalloc.ra_alloc in
  alloc.(r) <- None;
  names_r "location"
    (Vcomp.Regalloc.verify f lv { res with Vcomp.Regalloc.ra_alloc = alloc });
  Hashtbl.remove f.Vcomp.Rtl.f_classes r;
  names_r "register class" (Vcomp.Regalloc.verify f lv res)

(* [Regalloc.allocate] and [Regalloc.verify] read the liveness they are
   given and change none of it: afterwards its order, its instructions
   and every word of every row equal a fresh analysis', on the 40 nodes
   of the assembly digests at -O 2. (The layout in [Asmgen] reads the
   same liveness only through [Liveness.instr] and [iter_nodes].) *)
let test_regalloc_keeps_liveness () =
  let module L = Vcomp.Liveness in
  List.iter
    (fun (name, profile) ->
       for i = 0 to 9 do
         List.iter
           (fun f ->
              let lv = L.analyze f in
              let res = Vcomp.Regalloc.allocate f lv in
              checkb
                (Printf.sprintf "%s node %d, %s: allocation verifies" name i
                   f.Vcomp.Rtl.f_name)
                true
                (Vcomp.Regalloc.verify f lv res = Ok ());
              let fresh = L.analyze f in
              let rows_equal = ref (L.words lv = L.words fresh) in
              for n = 0 to Vcomp.Rtl.node_bound f - 1 do
                for w = 0 to L.words fresh - 1 do
                  if L.word lv n w <> L.word fresh n w then rows_equal := false
                done
              done;
              checkb
                (Printf.sprintf "%s node %d, %s: liveness unchanged" name i
                   f.Vcomp.Rtl.f_name)
                true
                (!rows_equal && liveness_current f lv))
           (o2_rtl (golden_node profile i)).Vcomp.Rtl.p_funcs
       done)
    golden_profiles

(* GVN names a load's result by its node. Here the value loaded at that
   node on the previous iteration reaches it again in [prev] over the
   back edge: [prev * 3] and [cur * 3] must not be numbered equal, or
   the loop would sum zeros. (The meet at the loop header already drops
   [prev]'s binding, so this pins the outcome, not invalidation.) *)
let test_gvn_loop_carried_load () =
  let p =
    Minic.Parser.parse_program
      {| array int a = {3, 1, 4, 1, 5, 9, 2, 6};
         int m() {
           var int i; var int prev; var int cur; var int s;
           var int x; var int y;
           prev = 0; s = 0;
           for (i = 0; i < 8) {
             cur = $a[i];
             x = prev * 3;
             y = cur * 3;
             s = s + y - x;
             prev = cur;
           }
           return s;
         } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let rtl = Vcomp.Selection.trans_program p in
  let rtl = Vcomp.Cse.transform (Vcomp.Constprop.transform rtl) in
  let before = Vcomp.Rtl.copy_program rtl in
  let after = Vcomp.Gvn.transform rtl in
  Vcomp.Validate.check_pass ~pass:"gvn" ~before ~after;
  checkb "gvn result = source" true
    (Minic.Interp.result_equal
       (Minic.Interp.run_cycle p (worlds 1))
       (Vcomp.Rtl_interp.run after (worlds 1) []));
  List.iter
    (fun fuel ->
       checkb
         (Printf.sprintf "machine = source (fuel %d)" fuel)
         true
         (chain_equal
            (Vcomp.Driver.compile
               ~options:{ Vcomp.Pass.default_options with Vcomp.Pass.opt_fuel = fuel })
            p 1))
    [ 3; 64; Vcomp.Pass.default_fuel ]

(* Float constants are numbered by their bit pattern in both value
   numberings: 0.0 and -0.0 stay apart, NaNs merge exactly when their
   bits agree. The generator's floats are never -0.0 or NaN, so the
   reference comparison never reaches this rule.
     1: x1 = 0.0    2: x2 = -0.0    3: x3 = nan_a    4: x4 = nan_a
     5: x5 = nan_b  6: x6 = -0.0    7: return x1 *)
let test_float_constants_by_bits () =
  let module R = Vcomp.Rtl in
  let nan_a = 0x7FF8000000000001L and nan_b = 0x7FF8000000000002L in
  let consts = [ 0L; Int64.bits_of_float (-0.0); nan_a; nan_a; nan_b;
                 Int64.bits_of_float (-0.0) ] in
  let build () =
    let f = R.create_func "k" (Some Minic.Ast.Tfloat) in
    let f = { f with R.f_entry = 1 } in
    let regs = List.map (fun _ -> R.fresh_reg f R.Cfloat) consts in
    List.iteri
      (fun i (bits, d) ->
         let c = Int64.float_of_bits bits in
         ignore (R.add_instr f (R.Iop (R.Ofloatconst c, [], d, i + 2))))
      (List.combine consts regs);
    ignore (R.add_instr f (R.Ireturn (Some (List.hd regs))));
    (f, Array.of_list regs)
  in
  let kept f n =
    match R.get_instr f n with
    | R.Iop (R.Ofloatconst c, [], _, _) ->
      Int64.equal (Int64.bits_of_float c) (List.nth consts (n - 1))
    | _ -> false
  in
  List.iter
    (fun (name, pass) ->
       let f, x = build () in
       pass f;
       checkb (name ^ ": 0.0, -0.0 and two NaN payloads kept") true
         (List.for_all (kept f) [ 1; 2; 3; 5 ]);
       checkb (name ^ ": equal NaN bits merged") true
         (R.get_instr f 4 = R.Iop (R.Omove, [ x.(2) ], x.(3), 5));
       checkb (name ^ ": -0.0 merged with -0.0") true
         (R.get_instr f 6 = R.Iop (R.Omove, [ x.(1) ], x.(5), 7)))
    [ ("cse", Vcomp.Cse.transform_func);
      ( "gvn",
        fun f ->
          checkb "gvn converged" true (Vcomp.Gvn.transform_func ~fuel:1000 f) ) ]

let suite =
  [ QCheck_alcotest.to_alcotest selection_preserves_prop;
    QCheck_alcotest.to_alcotest constprop_prop;
    QCheck_alcotest.to_alcotest cse_prop;
    QCheck_alcotest.to_alcotest gvn_prop;
    QCheck_alcotest.to_alcotest licm_prop;
    QCheck_alcotest.to_alcotest gvn_after_cse_prop;
    QCheck_alcotest.to_alcotest deadcode_prop;
    ("constprop folds constants", `Quick, test_constprop_folds);
    ("constprop: no addi immediate out of 16 bits (INT_MIN)", `Quick,
     test_constprop_int_min_immediate);
    ("cse removes duplicate loads", `Quick, test_cse_removes_duplicate_load);
    QCheck_alcotest.to_alcotest liveness_prop;
    QCheck_alcotest.to_alcotest walk_prop;
    ("walk: unreachable node, equal successors, dangling edge", `Quick,
     test_walk_edge_cases);
    QCheck_alcotest.to_alcotest dataflow_reference_prop;
    QCheck_alcotest.to_alcotest deadcode_reference_prop;
    ("deadcode: stores and annotations keep what removals read", `Quick,
     test_deadcode_store_and_annotation_uses);
    ("rtl: counters move past a far set_instr", `Quick,
     test_rtl_counters_past_set_instr);
    QCheck_alcotest.to_alcotest rtl_counters_prop;
    QCheck_alcotest.to_alcotest rtl_bounds_pipeline_prop;
    QCheck_alcotest.to_alcotest regalloc_valid_prop;
    QCheck_alcotest.to_alcotest regalloc_mutation_prop;
    QCheck_alcotest.to_alcotest regalloc_reference_prop;
    ("regalloc: a missing location or class is an Error", `Quick,
     test_regalloc_missing_location);
    QCheck_alcotest.to_alcotest full_chain_prop;
    QCheck_alcotest.to_alcotest full_chain_validated_prop;
    ("NaN comparisons through the chain", `Quick, test_nan_comparisons_compiled);
    ("wrong rewrite caught by the pass validator", `Quick,
     test_wrong_rewrite_caught);
    ("gvn dedups float constants across blocks", `Quick,
     test_gvn_dedups_float_constants);
    ("licm tightens the loop WCET bound", `Quick, test_licm_improves_loop_wcet);
    ("pass spec round-trips", `Quick, test_pass_spec_roundtrip);
    QCheck_alcotest.to_alcotest starved_passes_prop;
    QCheck_alcotest.to_alcotest ablation_chain_prop;
    ("assembly digests pinned (profiles x fuels, GVN fuel edge)", `Quick,
     test_golden_assembly);
    ("regalloc spills under int and float pressure", `Quick,
     test_register_pressure);
    ("gvn: loop-carried load copy stays distinct", `Quick,
     test_gvn_loop_carried_load);
    ("cse/gvn: float constants numbered by bit pattern", `Quick,
     test_float_constants_by_bits);
    QCheck_alcotest.to_alcotest regalloc_dense_prop;
    ("regalloc: allocate and verify leave the liveness unchanged", `Quick,
     test_regalloc_keeps_liveness) ]
