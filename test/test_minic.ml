(* Unit and property tests for the mini-C front end: value semantics,
   type checker, interpreter, lexer/parser round trips. *)

module A = Minic.Ast
module V = Minic.Value

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ---- value semantics ---- *)

let test_div32 () =
  check Alcotest.int32 "7/2" 3l (V.div32 7l 2l);
  check Alcotest.int32 "-7/2" (-3l) (V.div32 (-7l) 2l);
  check Alcotest.int32 "7/-2" (-3l) (V.div32 7l (-2l));
  check Alcotest.int32 "x/0 is 0" 0l (V.div32 42l 0l);
  check Alcotest.int32 "min/-1 is 0" 0l (V.div32 Int32.min_int (-1l));
  check Alcotest.int32 "rem 7 2" 1l (V.rem32 7l 2l);
  check Alcotest.int32 "rem -7 2" (-1l) (V.rem32 (-7l) 2l);
  check Alcotest.int32 "rem x 0 = x (machine-aligned)" 5l (V.rem32 5l 0l);
  check Alcotest.int32 "rem min -1 = min" Int32.min_int (V.rem32 Int32.min_int (-1l))

let test_float_conv () =
  check Alcotest.int32 "trunc 2.9" 2l (V.int32_of_float_trunc 2.9);
  check Alcotest.int32 "trunc -2.9" (-2l) (V.int32_of_float_trunc (-2.9));
  check Alcotest.int32 "trunc nan" 0l (V.int32_of_float_trunc Float.nan);
  check Alcotest.int32 "trunc +inf saturates" Int32.max_int
    (V.int32_of_float_trunc Float.infinity);
  check Alcotest.int32 "trunc -inf saturates" Int32.min_int
    (V.int32_of_float_trunc Float.neg_infinity)

let test_value_equal () =
  checkb "nan = nan (bit equality)" true
    (V.equal (V.Vfloat Float.nan) (V.Vfloat Float.nan));
  checkb "-0.0 <> 0.0 (bit equality)" false
    (V.equal (V.Vfloat (-0.0)) (V.Vfloat 0.0));
  checkb "int/float distinct" false (V.equal (V.Vint 0l) (V.Vfloat 0.0))

let test_fcmp_nan () =
  let nan = Float.nan in
  checkb "nan < 1 is false" false (V.eval_fcomparison A.Clt nan 1.0);
  checkb "nan <= 1 is false" false (V.eval_fcomparison A.Cle nan 1.0);
  checkb "nan == nan is false" false (V.eval_fcomparison A.Ceq nan nan);
  checkb "nan != 1 is true" true (V.eval_fcomparison A.Cne nan 1.0);
  checkb "nan >= 1 is false" false (V.eval_fcomparison A.Cge nan 1.0)

let test_shift_mask () =
  check Alcotest.int32 "shift by 33 wraps to 1" 2l
    (V.as_int (V.eval_binop A.Oshl (V.Vint 1l) (V.Vint 33l)));
  check Alcotest.int32 "shift right arithmetic" (-1l)
    (V.as_int (V.eval_binop A.Oshr (V.Vint (-2l)) (V.Vint 1l)))

(* ---- type checker ---- *)

let tiny_prog (body : A.stmt) : A.program =
  { A.prog_globals = [ ("g", A.Tfloat) ];
    prog_arrays =
      [ { A.arr_name = "t"; arr_elt = A.Tfloat; arr_init = [ 1.0; 2.0 ] } ];
    prog_volatiles = [ ("vin", A.Tfloat, A.Vol_in); ("vout", A.Tfloat, A.Vol_out) ];
    prog_funcs =
      [ { A.fn_name = "m"; fn_params = []; fn_locals = [ ("x", A.Tfloat); ("i", A.Tint) ];
          fn_ret = None; fn_body = body } ];
    prog_main = "m" }

let accepts (s : A.stmt) : bool =
  match Minic.Typecheck.check_program (tiny_prog s) with
  | Ok () -> true
  | Error _ -> false

let test_typecheck_accepts () =
  checkb "assign float" true (accepts (A.Sassign ("x", A.Eglobal "g")));
  checkb "volatile roundtrip" true
    (accepts (A.Svolstore ("vout", A.Evolatile "vin")));
  checkb "for loop" true
    (accepts
       (A.Sfor ("i", A.Econst_int 0l, A.Econst_int 3l,
                A.Sassign ("x", A.Econst_float 1.0))))

let test_typecheck_rejects () =
  checkb "int into float" false
    (accepts (A.Sassign ("x", A.Econst_int 1l)));
  checkb "read volatile output" false
    (accepts (A.Sassign ("x", A.Evolatile "vout")));
  checkb "write volatile input" false
    (accepts (A.Svolstore ("vin", A.Econst_float 1.0)));
  checkb "unbound variable" false
    (accepts (A.Sassign ("nope", A.Econst_float 1.0)));
  checkb "float array int store" false
    (accepts (A.Sstore ("t", A.Econst_int 0l, A.Econst_int 1l)));
  checkb "non-bool guard" false
    (accepts (A.Sif (A.Econst_int 1l, A.Sskip, A.Sskip)));
  checkb "bool annotation argument" false
    (accepts (A.Sannot ("x", [ A.Econst_bool true ])));
  checkb "counter modified in body (MISRA 13.6)" false
    (accepts
       (A.Sfor ("i", A.Econst_int 0l, A.Econst_int 3l,
                A.Sassign ("i", A.Econst_int 0l))))

(* ---- type checker vs the list-scan reference ---- *)

let same_verdict (p : A.program) : bool =
  match Minic.Typecheck.check_program p, Typecheck_ref.check_program p with
  | Ok (), Ok () -> true
  | Error a, Error b ->
    String.equal a.err_func b.err_func && String.equal a.err_msg b.err_msg
  | Ok (), Error _ | Error _, Ok () -> false

let verdict_to_string (p : A.program) : string =
  let show = function
    | Ok () -> "ok"
    | Error e -> Minic.Typecheck.error_to_string e
  in
  Printf.sprintf "table: %s / reference: %s"
    (show (Minic.Typecheck.check_program p))
    (show (Typecheck_ref.check_program p))

(* Programs with several errors each: the first one reported depends on
   the order the checker types subexpressions in. *)
let test_typecheck_first_error () =
  let bad_int = A.Ebinop (A.Oadd, A.Econst_int 1l, A.Econst_float 1.0) in
  let bad_float = A.Ebinop (A.Ofadd, A.Econst_int 1l, A.Econst_float 1.0) in
  let bodies =
    [ A.Sassign ("nope", bad_float);
      A.Sassign ("x", A.Ebinop (A.Ofadd, A.Evar "nope", A.Eglobal "nope"));
      A.Sassign ("x", A.Ebinop (A.Ofadd, bad_float, A.Evolatile "vout"));
      A.Sassign ("x", A.Econd (A.Econst_int 1l, bad_float, A.Evar "nope"));
      A.Sassign ("x", A.Econd (A.Econst_bool true, A.Evar "nope", bad_float));
      A.Sassign ("x", A.Eindex ("nope", bad_int));
      A.Sglobassign ("nope", bad_float);
      A.Sstore ("t", A.Econst_float 0.0, A.Evar "nope");
      A.Sstore ("nope", bad_int, A.Evar "nope");
      A.Svolstore ("vin", A.Evar "nope");
      A.Svolstore ("vout", A.Eunop (A.Onot, A.Evar "nope"));
      A.Sfor ("x", bad_float, A.Evar "nope", A.Sassign ("x", A.Evar "nope"));
      A.Sfor ("i", A.Econst_int 0l, bad_int, A.Sassign ("i", bad_int));
      A.Sfor ("i", A.Econst_int 0l, A.Econst_int 1l,
              A.Sseq (A.Sassign ("nope", bad_int),
                      A.Sfor ("i", A.Econst_int 0l, A.Econst_int 1l, A.Sskip)));
      A.Sreturn (Some bad_float);
      A.Sannot ("a", [ A.Econst_bool true; A.Evar "nope" ]);
      A.Sif (A.Evar "nope", A.Sassign ("nope", bad_int), A.Sskip) ]
  in
  List.iter
    (fun body ->
       let p = tiny_prog body in
       if Minic.Typecheck.check_program p = Ok () then
         Alcotest.fail "a program with errors was accepted";
       if not (same_verdict p) then Alcotest.fail (verdict_to_string p))
    bodies

(* Seeded single-point mutations, each of which makes a well-typed
   program ill-typed. *)
type mutation =
  | Undeclared_local
  | Retyped_global
  | Duplicate_local
  | Duplicate_global
  | Volatile_input_written
  | Volatile_output_read
  | Counter_reassigned
  | Non_boolean_guard
  | Boolean_annotation

let mutations =
  [ Undeclared_local; Retyped_global; Duplicate_local; Duplicate_global;
    Volatile_input_written; Volatile_output_read; Counter_reassigned;
    Non_boolean_guard; Boolean_annotation ]

let mutation_name = function
  | Undeclared_local -> "undeclared local"
  | Retyped_global -> "retyped global"
  | Duplicate_local -> "duplicate local"
  | Duplicate_global -> "duplicate global"
  | Volatile_input_written -> "volatile input written"
  | Volatile_output_read -> "volatile output read"
  | Counter_reassigned -> "for counter reassigned or reused"
  | Non_boolean_guard -> "non-boolean guard"
  | Boolean_annotation -> "boolean annotation argument"

let rec expr_iter (f : A.expr -> unit) (e : A.expr) : unit =
  f e;
  match e with
  | A.Econst_int _ | A.Econst_float _ | A.Econst_bool _ | A.Evar _
  | A.Eglobal _ | A.Evolatile _ -> ()
  | A.Eindex (_, e1) | A.Eunop (_, e1) -> expr_iter f e1
  | A.Ebinop (_, e1, e2) -> expr_iter f e1; expr_iter f e2
  | A.Econd (c, e1, e2) -> expr_iter f c; expr_iter f e1; expr_iter f e2

(* Every subexpression of a statement, its own nested statements
   excluded. *)
let stmt_exprs (s : A.stmt) : A.expr list =
  match s with
  | A.Sskip | A.Sseq _ | A.Sreturn None -> []
  | A.Sassign (_, e) | A.Sglobassign (_, e) | A.Svolstore (_, e)
  | A.Sreturn (Some e) -> [ e ]
  | A.Sstore (_, i, e) -> [ i; e ]
  | A.Sif (c, _, _) | A.Swhile (c, _) -> [ c ]
  | A.Sfor (_, lo, hi, _) -> [ lo; hi ]
  | A.Sannot (_, args) -> args

let body_iter_expr (f : A.expr -> unit) (body : A.stmt) : unit =
  A.iter_stmt (fun s -> List.iter (expr_iter f) (stmt_exprs s)) body

(* Names a body reads or writes as locals and as globals. *)
let body_names (body : A.stmt) : string list * string list =
  let locals = ref [] and globals = ref [] in
  body_iter_expr
    (fun e ->
       match e with
       | A.Evar x -> locals := x :: !locals
       | A.Eglobal x -> globals := x :: !globals
       | _ -> ())
    body;
  A.iter_stmt
    (fun s ->
       match s with
       | A.Sassign (x, _) | A.Sfor (x, _, _, _) -> locals := x :: !locals
       | A.Sglobassign (x, _) -> globals := x :: !globals
       | _ -> ())
    body;
  (!locals, !globals)

(* Rewrite the [k]-th statement (prefix order, the order of
   [Ast.iter_stmt]) for which [pick] offers a replacement. *)
let rewrite_nth (pick : A.stmt -> A.stmt option) (k : int) (body : A.stmt) :
  A.stmt =
  let n = ref (-1) in
  let rec go s =
    let here =
      match pick s with
      | Some s' -> incr n; if !n = k then Some s' else None
      | None -> None
    in
    match here with
    | Some s' -> s'
    | None ->
      (match s with
       | A.Sseq (a, b) -> let a = go a in A.Sseq (a, go b)
       | A.Sif (c, a, b) -> let a = go a in A.Sif (c, a, go b)
       | A.Swhile (c, a) -> A.Swhile (c, go a)
       | A.Sfor (i, lo, hi, a) -> A.Sfor (i, lo, hi, go a)
       | A.Sskip | A.Sassign _ | A.Sglobassign _ | A.Sstore _
       | A.Svolstore _ | A.Sreturn _ | A.Sannot _ -> s)
  in
  go body

(* Rewrite one statement [pick] applies to, chosen by [rng]; [None] when
   there is none. *)
let rewrite_random rng pick (body : A.stmt) : A.stmt option =
  let count = ref 0 in
  A.iter_stmt (fun s -> if pick s <> None then incr count) body;
  if !count = 0 then None
  else Some (rewrite_nth pick (Random.State.int rng !count) body)

let pick_opt rng (xs : 'a list) : 'a option =
  match xs with
  | [] -> None
  | _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let some_typ rng : A.typ =
  List.nth [ A.Tint; A.Tfloat; A.Tbool ] (Random.State.int rng 3)

(* Apply mutation [m] to one function of [p] (or to its declarations);
   [None] when [p] offers no site for it. *)
let mutate (rng : Random.State.t) (m : mutation) (p : A.program) :
  A.program option =
  let ( let* ) = Option.bind in
  let* f = pick_opt rng p.A.prog_funcs in
  let with_func f' =
    { p with
      A.prog_funcs =
        List.map
          (fun g -> if String.equal g.A.fn_name f.A.fn_name then f' else g)
          p.A.prog_funcs }
  in
  let with_body body = Some (with_func { f with A.fn_body = body }) in
  let insert (s : A.stmt) =
    let* body = rewrite_random rng (fun t -> Some (A.Sseq (s, t))) f.A.fn_body in
    with_body body
  in
  let volatile dir =
    pick_opt rng (List.filter (fun (_, _, d) -> d = dir) p.A.prog_volatiles)
  in
  match m with
  | Undeclared_local ->
    let used, _ = body_names f.A.fn_body in
    let* x, _ =
      pick_opt rng (List.filter (fun (x, _) -> List.mem x used) f.A.fn_locals)
    in
    Some
      (with_func
         { f with
           A.fn_locals =
             List.filter (fun (y, _) -> not (String.equal x y)) f.A.fn_locals })
  | Retyped_global ->
    let used =
      List.concat_map (fun g -> snd (body_names g.A.fn_body)) p.A.prog_funcs
    in
    let* x, _ =
      pick_opt rng (List.filter (fun (x, _) -> List.mem x used) p.A.prog_globals)
    in
    (* bool is never an annotation argument, so every use of a numeric
       global retyped bool, or of a bool global retyped int, is ill-typed *)
    let retype = function
      | A.Tint | A.Tfloat -> A.Tbool
      | A.Tbool -> A.Tint
    in
    Some
      { p with
        A.prog_globals =
          List.map
            (fun (y, t) -> if String.equal x y then (y, retype t) else (y, t))
            p.A.prog_globals }
  | Duplicate_local ->
    let* x, _ = pick_opt rng (f.A.fn_params @ f.A.fn_locals) in
    Some
      (with_func { f with A.fn_locals = f.A.fn_locals @ [ (x, some_typ rng) ] })
  | Duplicate_global ->
    let* x, _ = pick_opt rng p.A.prog_globals in
    Some { p with A.prog_globals = p.A.prog_globals @ [ (x, some_typ rng) ] }
  | Volatile_input_written ->
    let* x, _, _ = volatile A.Vol_in in
    insert (A.Svolstore (x, A.Evolatile x))
  | Volatile_output_read ->
    let* x, _, _ = volatile A.Vol_out in
    insert (A.Svolstore (x, A.Evolatile x))
  | Counter_reassigned ->
    let reuse = Random.State.bool rng in
    let* body =
      rewrite_random rng
        (function
          | A.Sfor (i, lo, hi, b) ->
            let extra =
              if reuse then A.Sfor (i, A.Econst_int 0l, A.Econst_int 1l, A.Sskip)
              else A.Sassign (i, A.Econst_int 0l)
            in
            Some (A.Sfor (i, lo, hi, A.Sseq (b, extra)))
          | _ -> None)
        f.A.fn_body
    in
    with_body body
  | Non_boolean_guard ->
    let* body =
      rewrite_random rng
        (function
          | A.Sif (_, a, b) -> Some (A.Sif (A.Econst_int 1l, a, b))
          | A.Swhile (_, a) -> Some (A.Swhile (A.Econst_int 1l, a))
          | _ -> None)
        f.A.fn_body
    in
    with_body body
  | Boolean_annotation ->
    insert (A.Sannot ("mutant", [ A.Econst_bool (Random.State.bool rng) ]))

let workload_programs (n : int) : A.program list =
  List.init n (fun i -> Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i))

(* Accepted programs and their mutants: the table-based checker and the
   reference agree on every verdict and every first error; every kind
   of mutation occurs on both sources and every mutant is rejected. *)
let test_typecheck_reference () =
  let sources =
    [ ("generated", List.init 150 (fun seed -> Testlib.Gen.gen_program seed));
      ("workload", workload_programs 40) ]
  in
  List.iter
    (fun (source, progs) ->
       let counts = Hashtbl.create 9 in
       List.iteri
         (fun i p ->
            if Minic.Typecheck.check_program p <> Ok () || not (same_verdict p)
            then Alcotest.failf "%s program %d: %s" source i (verdict_to_string p);
            List.iteri
              (fun j m ->
                 let rng = Random.State.make [| 2026; i; j |] in
                 match mutate rng m p with
                 | None -> ()
                 | Some p' ->
                   Hashtbl.replace counts m
                     (1 + Option.value ~default:0 (Hashtbl.find_opt counts m));
                   if Minic.Typecheck.check_program p' = Ok () then
                     Alcotest.failf "%s program %d, %s: mutant accepted" source
                       i (mutation_name m);
                   if not (same_verdict p') then
                     Alcotest.failf "%s program %d, %s: %s" source i
                       (mutation_name m) (verdict_to_string p'))
              mutations)
         progs;
       List.iter
         (fun m ->
            if not (Hashtbl.mem counts m) then
              Alcotest.failf "%s: no %s mutant" source (mutation_name m))
         mutations)
    sources

(* The one unchecked static type equals the type the checker assigns, on
   every subexpression of well-typed programs. *)
let test_expr_typ_matches_checker () =
  let conds = ref 0 and to_int = ref 0 and to_float = ref 0 in
  let progs =
    List.init 150 (fun seed -> Testlib.Gen.gen_program seed)
    @ workload_programs 40
  in
  List.iter
    (fun p ->
       let tbl = Minic.Symtab.of_program p in
       List.iter
         (fun f ->
            let sc = Minic.Symtab.scope tbl f in
            body_iter_expr
              (fun e ->
                 (match e with
                  | A.Econd _ -> incr conds
                  | A.Eunop (A.Oint_of_float, _) -> incr to_int
                  | A.Eunop (A.Ofloat_of_int, _) -> incr to_float
                  | _ -> ());
                 match Minic.Typecheck.expr_type tbl sc e with
                 | Ok t ->
                   if not (A.typ_equal t (Minic.Symtab.expr_typ sc e)) then
                     Alcotest.failf "%s: expr_typ %s, checker %s" f.A.fn_name
                       (A.string_of_typ (Minic.Symtab.expr_typ sc e))
                       (A.string_of_typ t)
                 | Error err ->
                   Alcotest.failf "well-typed subexpression rejected: %s"
                     (Minic.Typecheck.error_to_string err))
              f.A.fn_body)
         p.A.prog_funcs)
    progs;
  checkb "a conditional occurs" true (!conds > 0);
  checkb "an int_of_float occurs" true (!to_int > 0);
  checkb "a float_of_int occurs" true (!to_float > 0)

(* The tables keep a name's first binding, as a scan of the declaration
   list finds it. *)
let test_symtab_first_binding () =
  let p =
    { (tiny_prog A.Sskip) with
      A.prog_globals = [ ("g", A.Tfloat); ("g", A.Tint) ];
      prog_volatiles = [ ("v", A.Tint, A.Vol_in); ("v", A.Tfloat, A.Vol_out) ] }
  in
  let tbl = Minic.Symtab.of_program p in
  let f =
    { (List.hd p.A.prog_funcs) with
      A.fn_params = [ ("x", A.Tbool) ];
      fn_locals = [ ("x", A.Tfloat); ("y", A.Tint); ("y", A.Tfloat) ] }
  in
  let sc = Minic.Symtab.scope tbl f in
  checkb "global" true (A.typ_equal (Minic.Symtab.global tbl "g") A.Tfloat);
  checkb "volatile" true (Minic.Symtab.volatile tbl "v" = (A.Tint, A.Vol_in));
  checkb "parameter before local" true
    (A.typ_equal (Minic.Symtab.var sc "x") A.Tbool);
  checkb "local" true (A.typ_equal (Minic.Symtab.var sc "y") A.Tint);
  checkb "unbound" true
    (match Minic.Symtab.var sc "z" with
     | _ -> false
     | exception Not_found -> true)

(* ---- interpreter ---- *)

let parse (s : string) : A.program =
  let p = Minic.Parser.parse_program s in
  Minic.Typecheck.check_program_exn p;
  p

let run_ret (src : string) : V.t option =
  let p = parse src in
  (Minic.Interp.run_cycle p (Minic.Interp.constant_world 1.5)).Minic.Interp.res_return

let test_interp_loop () =
  match
    run_ret
      {| int m() { var int i; var int s; s = 0;
           for (i = 0; i < 5) { s = s + i; } return s; } main m; |}
  with
  | Some (V.Vint 10l) -> ()
  | r ->
    Alcotest.failf "expected 10, got %s"
      (match r with Some v -> V.to_string v | None -> "None")

let test_interp_counter_after_loop () =
  match
    run_ret {| int m() { var int i; for (i = 0; i < 4) { skip; } return i; } main m; |}
  with
  | Some (V.Vint 4l) -> ()
  | _ -> Alcotest.fail "counter should equal the bound after the loop"

let test_interp_empty_loop_counter () =
  match
    run_ret {| int m() { var int i; for (i = 7; i < 3) { skip; } return i; } main m; |}
  with
  | Some (V.Vint 7l) -> ()
  | _ -> Alcotest.fail "counter keeps the start value when the loop is empty"

let test_interp_implicit_return_zero () =
  match run_ret {| double m() { var int i; i = 1; } main m; |} with
  | Some (V.Vfloat 0.0) -> ()
  | _ -> Alcotest.fail "fall-through of a non-void function returns zero"

let test_interp_volatile_order () =
  let p =
    parse
      {| volatile in double a; volatile in double b; volatile out double o;
         void m() { volatile(o) = volatile(a) +. volatile(b);
                    volatile(o) = volatile(a); } main m; |}
  in
  let r = Minic.Interp.run_cycle p (Minic.Interp.seeded_world ~seed:3 ()) in
  let names =
    List.filter_map
      (fun e ->
         match e with
         | Minic.Interp.Ev_vol_read (x, _) -> Some x
         | _ -> None)
      r.Minic.Interp.res_events
  in
  check Alcotest.(list string) "left-to-right, repeat reads re-sample"
    [ "a"; "b"; "a" ] names

let test_interp_annotation_event () =
  let p =
    parse
      {| void m() { var int n; n = 3; __builtin_annotation("range 0 5", n); } main m; |}
  in
  let r = Minic.Interp.run_cycle p (Minic.Interp.constant_world 0.0) in
  match r.Minic.Interp.res_events with
  | [ Minic.Interp.Ev_annot ("range 0 5", [ V.Vint 3l ]) ] -> ()
  | _ -> Alcotest.fail "annotation event carries text and argument values"

let test_interp_multicycle_state () =
  let p =
    parse
      {| global int n; int m() { $n = $n + 1; return $n; } main m; |}
  in
  let r = Minic.Interp.run_cycles p (Minic.Interp.constant_world 0.0) ~cycles:5 in
  match r.Minic.Interp.res_return with
  | Some (V.Vint 5l) -> ()
  | _ -> Alcotest.fail "globals persist across cycles"

let test_interp_array_oob () =
  let p =
    parse
      {| array double t = {1.0, 2.0}; double m() { return $t[7]; } main m; |}
  in
  match Minic.Interp.run_cycle p (Minic.Interp.constant_world 0.0) with
  | _ -> Alcotest.fail "out-of-bounds read must raise"
  | exception Minic.Interp.Runtime_error _ -> ()

(* ---- lexer / parser ---- *)

let test_lexer_negative_literals () =
  (match Minic.Lexer.tokenize "x = -5;" with
   | [ Minic.Lexer.IDENT "x"; Minic.Lexer.ASSIGN; Minic.Lexer.INT (-5l);
       Minic.Lexer.SEMI; Minic.Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "-5 after '=' is a literal");
  (match Minic.Lexer.tokenize "a - 5" with
   | [ Minic.Lexer.IDENT "a"; Minic.Lexer.MINUS; Minic.Lexer.INT 5l;
       Minic.Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "'a - 5' keeps the binary minus")

let test_lexer_hex_floats () =
  match Minic.Lexer.tokenize "0x1.8p+1" with
  | [ Minic.Lexer.FLOAT f; Minic.Lexer.EOF ] when f = 3.0 -> ()
  | _ -> Alcotest.fail "hex float literal"

let test_parser_precedence () =
  let p = parse {| int m() { return 1 + 2 * 3; } main m; |} in
  match (List.hd p.A.prog_funcs).A.fn_body with
  | A.Sreturn (Some (A.Ebinop (A.Oadd, A.Econst_int 1l,
                               A.Ebinop (A.Omul, A.Econst_int 2l, A.Econst_int 3l))))
    -> ()
  | _ -> Alcotest.fail "multiplication binds tighter than addition"

(* round trip: print a random program and parse it back to an equal AST *)
let roundtrip_prop =
  QCheck.Test.make ~count:120 ~name:"pp/parse round trip"
    QCheck.(map (fun i -> i) small_int)
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       Minic.Typecheck.check_program_exn p;
       let text = Minic.Pp.program_to_string p in
       let p' = Minic.Parser.parse_program text in
       (* compare observable structure: re-print and compare strings,
          which is robust to the AST's float representations *)
       String.equal text (Minic.Pp.program_to_string p'))

(* the interpreter is deterministic: two runs over the same world agree *)
let deterministic_prop =
  QCheck.Test.make ~count:60 ~name:"interpreter determinism"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFFF) in
       let w () = Minic.Interp.seeded_world ~seed ()
       in
       let r1 = Minic.Interp.run_cycles p (w ()) ~cycles:3 in
       let r2 = Minic.Interp.run_cycles p (w ()) ~cycles:3 in
       Minic.Interp.result_equal r1 r2)

let suite =
  [ ("div32 edge cases", `Quick, test_div32);
    ("float->int conversion", `Quick, test_float_conv);
    ("value bit equality", `Quick, test_value_equal);
    ("float comparisons vs NaN", `Quick, test_fcmp_nan);
    ("shift masking", `Quick, test_shift_mask);
    ("typecheck accepts", `Quick, test_typecheck_accepts);
    ("typecheck rejects", `Quick, test_typecheck_rejects);
    ("typecheck: first error = reference on multi-error bodies", `Quick,
     test_typecheck_first_error);
    ("typecheck: verdicts = reference on programs and mutants", `Quick,
     test_typecheck_reference);
    ("symtab: expr_typ = checker's type on every subexpression", `Quick,
     test_expr_typ_matches_checker);
    ("symtab: first binding wins", `Quick, test_symtab_first_binding);
    ("interp: counted loop", `Quick, test_interp_loop);
    ("interp: counter after loop", `Quick, test_interp_counter_after_loop);
    ("interp: empty loop counter", `Quick, test_interp_empty_loop_counter);
    ("interp: implicit return is zero", `Quick, test_interp_implicit_return_zero);
    ("interp: volatile order", `Quick, test_interp_volatile_order);
    ("interp: annotation event", `Quick, test_interp_annotation_event);
    ("interp: state across cycles", `Quick, test_interp_multicycle_state);
    ("interp: array bounds", `Quick, test_interp_array_oob);
    ("lexer: negative literals", `Quick, test_lexer_negative_literals);
    ("lexer: hex floats", `Quick, test_lexer_hex_floats);
    ("parser: precedence", `Quick, test_parser_precedence);
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest deterministic_prop ]
