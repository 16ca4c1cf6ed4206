(* Reference type checker: the list-scan checker the product's
   [Minic.Typecheck] replaced. Every name lookup scans the declaration
   lists ([List.assoc_opt], [Ast.find_volatile]) and every statement
   builds its error context eagerly. [test_minic] checks that the
   table-based checker returns the same verdict and, on a rejected
   program, the same first error. *)

module Ast = Minic.Ast

type error = Minic.Typecheck.error = {
  err_func : string;       (* enclosing function, "" for program level *)
  err_msg : string;
}

exception Error of error

let fail func fmt =
  Format.kasprintf (fun msg -> raise (Error { err_func = func; err_msg = msg })) fmt

type env = {
  env_prog : Ast.program;
  env_fname : string;
  env_vars : (Ast.ident * Ast.typ) list; (* params @ locals *)
}

let lookup_var (env : env) (x : Ast.ident) : Ast.typ =
  match List.assoc_opt x env.env_vars with
  | Some t -> t
  | None -> fail env.env_fname "unbound local variable %s" x

let lookup_global (env : env) (x : Ast.ident) : Ast.typ =
  match List.assoc_opt x env.env_prog.Ast.prog_globals with
  | Some t -> t
  | None -> fail env.env_fname "unbound global variable %s" x

let lookup_array (env : env) (x : Ast.ident) : Ast.array_def =
  match
    List.find_opt
      (fun a -> String.equal a.Ast.arr_name x)
      env.env_prog.Ast.prog_arrays
  with
  | Some a -> a
  | None -> fail env.env_fname "unbound global array %s" x

let lookup_volatile (env : env) (x : Ast.ident) : Ast.typ * Ast.vol_dir =
  match Ast.find_volatile env.env_prog x with
  | Some td -> td
  | None -> fail env.env_fname "unbound volatile %s" x

let type_unop (env : env) (op : Ast.unop) (t : Ast.typ) : Ast.typ =
  match op, t with
  | Ast.Oneg, Ast.Tint -> Ast.Tint
  | Ast.Onot, Ast.Tbool -> Ast.Tbool
  | Ast.Ofneg, Ast.Tfloat | Ast.Ofabs, Ast.Tfloat -> Ast.Tfloat
  | Ast.Ofloat_of_int, Ast.Tint -> Ast.Tfloat
  | Ast.Oint_of_float, Ast.Tfloat -> Ast.Tint
  | (Ast.Oneg | Ast.Onot | Ast.Ofneg | Ast.Ofabs | Ast.Ofloat_of_int
    | Ast.Oint_of_float), _ ->
    fail env.env_fname "unary operator applied to operand of type %s"
      (Ast.string_of_typ t)

let type_binop (env : env) (op : Ast.binop) (ta : Ast.typ) (tb : Ast.typ) :
  Ast.typ =
  let ii_i = (Ast.Tint, Ast.Tint, Ast.Tint) in
  let ff_f = (Ast.Tfloat, Ast.Tfloat, Ast.Tfloat) in
  let ii_b = (Ast.Tint, Ast.Tint, Ast.Tbool) in
  let ff_b = (Ast.Tfloat, Ast.Tfloat, Ast.Tbool) in
  let bb_b = (Ast.Tbool, Ast.Tbool, Ast.Tbool) in
  let expect_a, expect_b, result =
    match op with
    | Ast.Oadd | Ast.Osub | Ast.Omul | Ast.Odiv | Ast.Omod
    | Ast.Oand | Ast.Oor | Ast.Oxor | Ast.Oshl | Ast.Oshr -> ii_i
    | Ast.Ofadd | Ast.Ofsub | Ast.Ofmul | Ast.Ofdiv -> ff_f
    | Ast.Ocmp _ -> ii_b
    | Ast.Ofcmp _ -> ff_b
    | Ast.Oband | Ast.Obor -> bb_b
  in
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
    type_binop env op (type_expr env e1) (type_expr env e2)
  | Ast.Econd (c, e1, e2) ->
    let tc = type_expr env c in
    if not (Ast.typ_equal tc Ast.Tbool) then
      fail env.env_fname "conditional guard is not boolean";
    let t1 = type_expr env e1 and t2 = type_expr env e2 in
    if Ast.typ_equal t1 t2 then t1
    else
      fail env.env_fname "conditional branches have types %s and %s"
        (Ast.string_of_typ t1) (Ast.string_of_typ t2)
  | Ast.Evolatile x ->
    let t, dir = lookup_volatile env x in
    (match dir with
     | Ast.Vol_in -> t
     | Ast.Vol_out -> fail env.env_fname "volatile output %s read" x)

let check_assignable (env : env) (what : string) (expected : Ast.typ)
    (got : Ast.typ) : unit =
  if not (Ast.typ_equal expected got) then
    fail env.env_fname "%s expects %s but right-hand side has type %s" what
      (Ast.string_of_typ expected) (Ast.string_of_typ got)

let rec type_stmt (env : env) (ret : Ast.typ option) (s : Ast.stmt) : unit =
  match s with
  | Ast.Sskip -> ()
  | Ast.Sassign (x, e) ->
    check_assignable env ("assignment to " ^ x) (lookup_var env x)
      (type_expr env e)
  | Ast.Sglobassign (x, e) ->
    check_assignable env ("assignment to global " ^ x) (lookup_global env x)
      (type_expr env e)
  | Ast.Sstore (a, idx, e) ->
    let arr = lookup_array env a in
    if not (Ast.typ_equal (type_expr env idx) Ast.Tint) then
      fail env.env_fname "array %s indexed with non-integer expression" a;
    check_assignable env ("store to array " ^ a) arr.Ast.arr_elt
      (type_expr env e)
  | Ast.Svolstore (x, e) ->
    let t, dir = lookup_volatile env x in
    (match dir with
     | Ast.Vol_out -> check_assignable env ("volatile store " ^ x) t (type_expr env e)
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
     | Some t -> check_assignable env "return" t (type_expr env e))
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

let check_func (p : Ast.program) (f : Ast.func) : unit =
  check_no_duplicates
    ("variable in " ^ f.Ast.fn_name)
    (List.map fst (f.Ast.fn_params @ f.Ast.fn_locals));
  let env =
    { env_prog = p;
      env_fname = f.Ast.fn_name;
      env_vars = f.Ast.fn_params @ f.Ast.fn_locals }
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
    (match Ast.find_func p p.Ast.prog_main with
     | Some _ -> ()
     | None -> fail "" "entry point %s is not defined" p.Ast.prog_main);
    List.iter (check_func p) p.Ast.prog_funcs;
    Ok ()
  with Error e -> Result.Error e
