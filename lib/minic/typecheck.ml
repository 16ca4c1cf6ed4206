(* Type checker for mini-C programs.

   Checking is performed on every program before compilation: both the
   verified-style compiler and the COTS baseline reject ill-typed inputs,
   mirroring the front-end checks of CompCert's Clight. Besides typing
   every expression and statement, it enforces the declaration rules and
   the flight-control coding restrictions the paper relies on
   (DO-178B-style):
   - no name declared twice: globals, arrays, volatiles, functions, and
     the parameters and locals of one function;
   - every array has an element, and the entry point is defined;
   - every name used is declared, with the kind of its use;
   - arrays indexed by integer expressions only;
   - volatile directions respected: inputs are only read, outputs only
     written;
   - guards boolean, counted-loop counters and bounds integers, returns
     agreeing with the function's return type;
   - annotation arguments of scalar numeric type;
   - MISRA-C rule 13.6: a counted loop's counter is neither assigned in
     its body nor reused by a nested counted loop.

   Names resolve through [Symtab]: one table per program, one scope per
   function, each built after the duplicate check it relies on.
   Subexpressions are typed in a fixed order (binary operands right to
   left, the right-hand side of a scalar assignment before the variable
   it assigns), which fixes the first error reported on a program with
   several. *)

type error = {
  err_func : string;       (* enclosing function, "" for program level *)
  err_msg : string;
}

exception Error of error

let fail func fmt =
  Format.kasprintf (fun msg -> raise (Error { err_func = func; err_msg = msg })) fmt

let error_to_string (e : error) : string =
  if String.equal e.err_func "" then e.err_msg
  else Printf.sprintf "in function %s: %s" e.err_func e.err_msg

type env = {
  env_fname : string;
  env_prog : Symtab.t;
  env_scope : Symtab.scope; (* the function's names over [env_prog] *)
}

let lookup_var (env : env) (x : Ast.ident) : Ast.typ =
  match Symtab.var env.env_scope x with
  | t -> t
  | exception Not_found -> fail env.env_fname "unbound local variable %s" x

let lookup_global (env : env) (x : Ast.ident) : Ast.typ =
  match Symtab.global env.env_prog x with
  | t -> t
  | exception Not_found -> fail env.env_fname "unbound global variable %s" x

let lookup_array (env : env) (x : Ast.ident) : Ast.array_def =
  match Symtab.array env.env_prog x with
  | a -> a
  | exception Not_found -> fail env.env_fname "unbound global array %s" x

let lookup_volatile (env : env) (x : Ast.ident) : Ast.typ * Ast.vol_dir =
  match Symtab.volatile env.env_prog x with
  | td -> td
  | exception Not_found -> fail env.env_fname "unbound volatile %s" x

let type_unop (env : env) (op : Ast.unop) (t : Ast.typ) : Ast.typ =
  let expect, result = Symtab.unop_sig op in
  if Ast.typ_equal t expect then result
  else
    fail env.env_fname "unary operator applied to operand of type %s"
      (Ast.string_of_typ t)

let type_binop (env : env) (op : Ast.binop) (ta : Ast.typ) (tb : Ast.typ) :
  Ast.typ =
  let expect_a, expect_b, result = Symtab.binop_sig op in
  if Ast.typ_equal ta expect_a && Ast.typ_equal tb expect_b then result
  else
    fail env.env_fname
      "binary operator expects (%s, %s) but got (%s, %s)"
      (Ast.string_of_typ expect_a) (Ast.string_of_typ expect_b)
      (Ast.string_of_typ ta) (Ast.string_of_typ tb)

let rec type_expr (env : env) (e : Ast.expr) : Ast.typ =
  match e with
  | Ast.Econst_int _ -> Ast.Tint
  | Ast.Econst_float _ -> Ast.Tfloat
  | Ast.Econst_bool _ -> Ast.Tbool
  | Ast.Evar x -> lookup_var env x
  | Ast.Eglobal x -> lookup_global env x
  | Ast.Eindex (a, idx) ->
    let arr = lookup_array env a in
    let ti = type_expr env idx in
    if not (Ast.typ_equal ti Ast.Tint) then
      fail env.env_fname "array %s indexed with non-integer expression" a;
    arr.Ast.arr_elt
  | Ast.Eunop (op, e1) -> type_unop env op (type_expr env e1)
  | Ast.Ebinop (op, e1, e2) ->
    let t2 = type_expr env e2 in
    let t1 = type_expr env e1 in
    type_binop env op t1 t2
  | Ast.Econd (c, e1, e2) ->
    let tc = type_expr env c in
    if not (Ast.typ_equal tc Ast.Tbool) then
      fail env.env_fname "conditional guard is not boolean";
    let t1 = type_expr env e1 in
    let t2 = type_expr env e2 in
    if Ast.typ_equal t1 t2 then t1
    else
      fail env.env_fname "conditional branches have types %s and %s"
        (Ast.string_of_typ t1) (Ast.string_of_typ t2)
  | Ast.Evolatile x ->
    let t, dir = lookup_volatile env x in
    (match dir with
     | Ast.Vol_in -> t
     | Ast.Vol_out -> fail env.env_fname "volatile output %s read" x)

(* [what ^ x] names the target in the message, built only on failure. *)
let check_assignable (env : env) (what : string) (x : string)
    (expected : Ast.typ) (got : Ast.typ) : unit =
  if not (Ast.typ_equal expected got) then
    fail env.env_fname "%s%s expects %s but right-hand side has type %s" what x
      (Ast.string_of_typ expected) (Ast.string_of_typ got)

let rec type_stmt (env : env) (ret : Ast.typ option) (s : Ast.stmt) : unit =
  match s with
  | Ast.Sskip -> ()
  | Ast.Sassign (x, e) ->
    let got = type_expr env e in
    check_assignable env "assignment to " x (lookup_var env x) got
  | Ast.Sglobassign (x, e) ->
    let got = type_expr env e in
    check_assignable env "assignment to global " x (lookup_global env x) got
  | Ast.Sstore (a, idx, e) ->
    let arr = lookup_array env a in
    if not (Ast.typ_equal (type_expr env idx) Ast.Tint) then
      fail env.env_fname "array %s indexed with non-integer expression" a;
    check_assignable env "store to array " a arr.Ast.arr_elt (type_expr env e)
  | Ast.Svolstore (x, e) ->
    let t, dir = lookup_volatile env x in
    (match dir with
     | Ast.Vol_out -> check_assignable env "volatile store " x t (type_expr env e)
     | Ast.Vol_in -> fail env.env_fname "volatile input %s written" x)
  | Ast.Sseq (a, b) -> type_stmt env ret a; type_stmt env ret b
  | Ast.Sif (c, a, b) ->
    if not (Ast.typ_equal (type_expr env c) Ast.Tbool) then
      fail env.env_fname "if guard is not boolean";
    type_stmt env ret a;
    type_stmt env ret b
  | Ast.Swhile (c, body) ->
    if not (Ast.typ_equal (type_expr env c) Ast.Tbool) then
      fail env.env_fname "while guard is not boolean";
    type_stmt env ret body
  | Ast.Sfor (i, lo, hi, body) ->
    if not (Ast.typ_equal (lookup_var env i) Ast.Tint) then
      fail env.env_fname "for counter %s is not an integer" i;
    if not (Ast.typ_equal (type_expr env lo) Ast.Tint)
    || not (Ast.typ_equal (type_expr env hi) Ast.Tint) then
      fail env.env_fname "for bounds are not integers";
    (* MISRA-C rule 13.6: the loop counter shall not be modified in the
       body (compilers rely on it being the unique induction variable) *)
    Ast.iter_stmt
      (fun s ->
         match s with
         | Ast.Sassign (x, _) when String.equal x i ->
           fail env.env_fname "for counter %s modified in the loop body" i
         | Ast.Sfor (x, _, _, _) when String.equal x i ->
           fail env.env_fname "for counter %s reused by a nested loop" i
         | _ -> ())
      body;
    type_stmt env ret body
  | Ast.Sreturn None ->
    (match ret with
     | None -> ()
     | Some t ->
       fail env.env_fname "return without value in function returning %s"
         (Ast.string_of_typ t))
  | Ast.Sreturn (Some e) ->
    (match ret with
     | None -> fail env.env_fname "return with value in void function"
     | Some t -> check_assignable env "return" "" t (type_expr env e))
  | Ast.Sannot (_, args) ->
    (* Annotation arguments must be int or float: they denote loop bounds
       or value ranges transmitted to the WCET analyzer. *)
    List.iter
      (fun e ->
         match type_expr env e with
         | Ast.Tint | Ast.Tfloat -> ()
         | Ast.Tbool ->
           fail env.env_fname "annotation arguments must be int or float")
      args

let check_no_duplicates (what : string) (names : string list) : unit =
  let sorted = List.sort String.compare names in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then fail "" "duplicate %s %s" what a else check rest
    | [ _ ] | [] -> ()
  in
  check sorted

let check_func (tbl : Symtab.t) (f : Ast.func) : unit =
  check_no_duplicates
    ("variable in " ^ f.Ast.fn_name)
    (List.map fst (f.Ast.fn_params @ f.Ast.fn_locals));
  let env =
    { env_fname = f.Ast.fn_name; env_prog = tbl; env_scope = Symtab.scope tbl f }
  in
  type_stmt env f.Ast.fn_ret f.Ast.fn_body

let check_program (p : Ast.program) : (unit, error) result =
  try
    check_no_duplicates "global" (List.map fst p.Ast.prog_globals);
    check_no_duplicates "array" (List.map (fun a -> a.Ast.arr_name) p.Ast.prog_arrays);
    check_no_duplicates "volatile" (List.map (fun (n, _, _) -> n) p.Ast.prog_volatiles);
    check_no_duplicates "function" (List.map (fun f -> f.Ast.fn_name) p.Ast.prog_funcs);
    List.iter
      (fun a ->
         if List.length a.Ast.arr_init = 0 then
           fail "" "array %s has no elements" a.Ast.arr_name)
      p.Ast.prog_arrays;
    if not
         (List.exists
            (fun f -> String.equal f.Ast.fn_name p.Ast.prog_main)
            p.Ast.prog_funcs)
    then fail "" "entry point %s is not defined" p.Ast.prog_main;
    let tbl = Symtab.of_program p in
    List.iter (check_func tbl) p.Ast.prog_funcs;
    Ok ()
  with Error e -> Result.Error e

let check_program_exn (p : Ast.program) : unit =
  match check_program p with
  | Ok () -> ()
  | Result.Error e -> raise (Error e)

let expr_type (tbl : Symtab.t) (sc : Symtab.scope) (e : Ast.expr) :
  (Ast.typ, error) result =
  try Ok (type_expr { env_fname = ""; env_prog = tbl; env_scope = sc } e)
  with Error err -> Result.Error err
