(* Instruction selection: translation from mini-C abstract syntax to RTL
   control-flow graphs, in the style of CompCert's RTLgen pass.

   The CFG is built backwards: [trans_expr env e dest k] returns the
   entry node of a code fragment that evaluates [e] into pseudo-register
   [dest] and continues at node [k]. Expressions are evaluated strictly
   left-to-right, which fixes the order of volatile reads; conditional
   expressions compile to branches (lazy), matching the reference
   interpreter. *)

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Symtab = Minic.Symtab

type env = {
  env_prog : Symtab.t;
  env_scope : Symtab.scope;  (* the source function's names *)
  env_func : Rtl.func;
  env_vars : (string, Rtl.reg) Hashtbl.t; (* local -> pseudo-register *)
}

let var_reg (env : env) (x : string) : Rtl.reg =
  match Hashtbl.find_opt env.env_vars x with
  | Some r -> r
  | None -> fail "unbound variable %s" x

let chunk_of_typ (t : Minic.Ast.typ) : Rtl.chunk =
  match t with
  | Minic.Ast.Tint | Minic.Ast.Tbool -> Rtl.Mint32
  | Minic.Ast.Tfloat -> Rtl.Mfloat64

let shift_of_typ (t : Minic.Ast.typ) : int =
  match t with
  | Minic.Ast.Tint | Minic.Ast.Tbool -> 2
  | Minic.Ast.Tfloat -> 3

(* Machine-view RTL operation of a mini-C binary operator. *)
let op_of_binop (op : Minic.Ast.binop) : Rtl.operation =
  match op with
  | Minic.Ast.Oadd -> Rtl.Oadd
  | Minic.Ast.Osub -> Rtl.Osub
  | Minic.Ast.Omul -> Rtl.Omul
  | Minic.Ast.Odiv -> Rtl.Odivs
  | Minic.Ast.Omod -> Rtl.Omods
  | Minic.Ast.Oand -> Rtl.Oand
  | Minic.Ast.Oor -> Rtl.Oor
  | Minic.Ast.Oxor -> Rtl.Oxor
  | Minic.Ast.Oshl -> Rtl.Oshl
  | Minic.Ast.Oshr -> Rtl.Oshr
  | Minic.Ast.Ofadd -> Rtl.Ofadd
  | Minic.Ast.Ofsub -> Rtl.Ofsub
  | Minic.Ast.Ofmul -> Rtl.Ofmul
  | Minic.Ast.Ofdiv -> Rtl.Ofdiv
  | Minic.Ast.Ocmp c -> Rtl.Ocmp c
  | Minic.Ast.Ofcmp c -> Rtl.Ofcmp c
  | Minic.Ast.Oband -> Rtl.Oand (* booleans are 0/1: strict && is bitwise *)
  | Minic.Ast.Obor -> Rtl.Oor

let op_of_unop (op : Minic.Ast.unop) : Rtl.operation =
  match op with
  | Minic.Ast.Oneg -> Rtl.Oneg
  | Minic.Ast.Onot -> Rtl.Onotbool
  | Minic.Ast.Ofneg -> Rtl.Ofneg
  | Minic.Ast.Ofabs -> Rtl.Ofabs
  | Minic.Ast.Ofloat_of_int -> Rtl.Ofloatofint
  | Minic.Ast.Oint_of_float -> Rtl.Ointoffloat

let fresh_for (env : env) (e : Minic.Ast.expr) : Rtl.reg =
  Rtl.fresh_reg env.env_func
    (Rtl.class_of_typ (Symtab.expr_typ env.env_scope e))

(* Translate expression [e] into [dest], continue at [k]; returns the
   fragment entry node. *)
let rec trans_expr (env : env) (e : Minic.Ast.expr) (dest : Rtl.reg)
    (k : Rtl.node) : Rtl.node =
  let f = env.env_func in
  match e with
  | Minic.Ast.Econst_int n -> Rtl.add_instr f (Rtl.Iop (Rtl.Ointconst n, [], dest, k))
  | Minic.Ast.Econst_float c ->
    Rtl.add_instr f (Rtl.Iop (Rtl.Ofloatconst c, [], dest, k))
  | Minic.Ast.Econst_bool b ->
    Rtl.add_instr f
      (Rtl.Iop (Rtl.Ointconst (if b then 1l else 0l), [], dest, k))
  | Minic.Ast.Evar x ->
    Rtl.add_instr f (Rtl.Iop (Rtl.Omove, [ var_reg env x ], dest, k))
  | Minic.Ast.Eglobal x ->
    Rtl.add_instr f
      (Rtl.Iload
         (chunk_of_typ (Symtab.global env.env_prog x), Rtl.ADglob x, [], dest,
          k))
  | Minic.Ast.Eindex (a, idx) ->
    let arr = Symtab.array env.env_prog a in
    let ridx = Rtl.fresh_reg f Rtl.Cint in
    let roff = Rtl.fresh_reg f Rtl.Cint in
    let load =
      Rtl.add_instr f
        (Rtl.Iload
           (chunk_of_typ arr.Minic.Ast.arr_elt, Rtl.ADarr a, [ roff ], dest, k))
    in
    let shift =
      Rtl.add_instr f
        (Rtl.Iop (Rtl.Oshlimm (shift_of_typ arr.Minic.Ast.arr_elt),
                  [ ridx ], roff, load))
    in
    trans_expr env idx ridx shift
  | Minic.Ast.Eunop (op, e1) ->
    let r1 = fresh_for env e1 in
    let opn = Rtl.add_instr f (Rtl.Iop (op_of_unop op, [ r1 ], dest, k)) in
    trans_expr env e1 r1 opn
  | Minic.Ast.Ebinop (op, e1, e2) ->
    let r1 = fresh_for env e1 in
    let r2 = fresh_for env e2 in
    let opn = Rtl.add_instr f (Rtl.Iop (op_of_binop op, [ r1; r2 ], dest, k)) in
    let c2 = trans_expr env e2 r2 opn in
    trans_expr env e1 r1 c2
  | Minic.Ast.Econd (c, e1, e2) ->
    let n1 = trans_expr env e1 dest k in
    let n2 = trans_expr env e2 dest k in
    trans_condition env c n1 n2
  | Minic.Ast.Evolatile x -> Rtl.add_instr f (Rtl.Iacq (x, dest, k))

(* Translate a boolean expression as a branch: continue at [ktrue] when
   it evaluates to true, [kfalse] otherwise. Comparisons map directly to
   conditional branches; negation swaps the targets. *)
and trans_condition (env : env) (c : Minic.Ast.expr) (ktrue : Rtl.node)
    (kfalse : Rtl.node) : Rtl.node =
  let f = env.env_func in
  match c with
  | Minic.Ast.Econst_bool true -> Rtl.add_instr f (Rtl.Inop ktrue)
  | Minic.Ast.Econst_bool false -> Rtl.add_instr f (Rtl.Inop kfalse)
  | Minic.Ast.Eunop (Minic.Ast.Onot, c1) -> trans_condition env c1 kfalse ktrue
  | Minic.Ast.Ebinop (Minic.Ast.Ocmp cmp, e1, Minic.Ast.Econst_int n) ->
    let r1 = fresh_for env e1 in
    let br =
      Rtl.add_instr f
        (Rtl.Icond (Rtl.Ccompimm (cmp, n), [ r1 ], ktrue, kfalse))
    in
    trans_expr env e1 r1 br
  | Minic.Ast.Ebinop (Minic.Ast.Ocmp cmp, e1, e2) ->
    let r1 = fresh_for env e1 in
    let r2 = fresh_for env e2 in
    let br =
      Rtl.add_instr f (Rtl.Icond (Rtl.Ccomp cmp, [ r1; r2 ], ktrue, kfalse))
    in
    let c2 = trans_expr env e2 r2 br in
    trans_expr env e1 r1 c2
  | Minic.Ast.Ebinop (Minic.Ast.Ofcmp cmp, e1, e2) ->
    let r1 = fresh_for env e1 in
    let r2 = fresh_for env e2 in
    let br =
      Rtl.add_instr f (Rtl.Icond (Rtl.Cfcomp cmp, [ r1; r2 ], ktrue, kfalse))
    in
    let c2 = trans_expr env e2 r2 br in
    trans_expr env e1 r1 c2
  | Minic.Ast.Econst_int _ | Minic.Ast.Econst_float _ | Minic.Ast.Evar _
  | Minic.Ast.Eglobal _ | Minic.Ast.Eindex _ | Minic.Ast.Eunop _
  | Minic.Ast.Ebinop _ | Minic.Ast.Econd _ | Minic.Ast.Evolatile _ ->
    (* general case: evaluate to a 0/1 register, branch on != 0 *)
    let r = Rtl.fresh_reg f Rtl.Cint in
    let br =
      Rtl.add_instr f
        (Rtl.Icond (Rtl.Ccompimm (Minic.Ast.Cne, 0l), [ r ], ktrue, kfalse))
    in
    trans_expr env c r br

(* Translate statement [s]; continue at [k]. [kret] is the implicit
   return node used when control falls off the end. *)
let rec trans_stmt (env : env) (s : Minic.Ast.stmt) (k : Rtl.node) : Rtl.node =
  let f = env.env_func in
  match s with
  | Minic.Ast.Sskip -> k
  | Minic.Ast.Sassign (x, e) -> trans_expr env e (var_reg env x) k
  | Minic.Ast.Sglobassign (x, e) ->
    let t = Symtab.global env.env_prog x in
    let r = Rtl.fresh_reg f (Rtl.class_of_typ t) in
    let store =
      Rtl.add_instr f (Rtl.Istore (chunk_of_typ t, Rtl.ADglob x, [], r, k))
    in
    trans_expr env e r store
  | Minic.Ast.Sstore (a, idx, e) ->
    let arr = Symtab.array env.env_prog a in
    let telt = arr.Minic.Ast.arr_elt in
    let ridx = Rtl.fresh_reg f Rtl.Cint in
    let roff = Rtl.fresh_reg f Rtl.Cint in
    let rval = Rtl.fresh_reg f (Rtl.class_of_typ telt) in
    let store =
      Rtl.add_instr f
        (Rtl.Istore (chunk_of_typ telt, Rtl.ADarr a, [ roff ], rval, k))
    in
    let ev = trans_expr env e rval store in
    let shift =
      Rtl.add_instr f
        (Rtl.Iop (Rtl.Oshlimm (shift_of_typ telt), [ ridx ], roff, ev))
    in
    trans_expr env idx ridx shift
  | Minic.Ast.Svolstore (x, e) ->
    let t, _ = Symtab.volatile env.env_prog x in
    let r = Rtl.fresh_reg f (Rtl.class_of_typ t) in
    let out = Rtl.add_instr f (Rtl.Iout (x, r, k)) in
    trans_expr env e r out
  | Minic.Ast.Sseq (a, b) -> trans_stmt env a (trans_stmt env b k)
  | Minic.Ast.Sif (c, a, b) ->
    let na = trans_stmt env a k in
    let nb = trans_stmt env b k in
    trans_condition env c na nb
  | Minic.Ast.Swhile (c, body) ->
    (* allocate the loop header first so the back edge has a target *)
    let header = Rtl.add_instr f (Rtl.Inop 0) in
    let nbody = trans_stmt env body header in
    let ncond = trans_condition env c nbody k in
    Rtl.set_instr f header (Rtl.Inop ncond);
    header
  | Minic.Ast.Sfor (i, lo, hi, body) ->
    (* i = lo; limit = hi; while (i < limit) { body; i = i + 1 } *)
    let ri = var_reg env i in
    let rlimit = Rtl.fresh_reg f Rtl.Cint in
    let header = Rtl.add_instr f (Rtl.Inop 0) in
    let incr =
      Rtl.add_instr f (Rtl.Iop (Rtl.Oaddimm 1l, [ ri ], ri, header))
    in
    let nbody = trans_stmt env body incr in
    let cond =
      Rtl.add_instr f
        (Rtl.Icond (Rtl.Ccomp Minic.Ast.Clt, [ ri; rlimit ], nbody, k))
    in
    Rtl.set_instr f header (Rtl.Inop cond);
    let init_i = trans_expr env lo ri header in
    trans_expr env hi rlimit init_i
  | Minic.Ast.Sreturn None ->
    let zero_ret =
      (* non-void function falling through a bare return: still return a
         zero value, in agreement with the interpreter *)
      match f.Rtl.f_ret with
      | None -> Rtl.add_instr f (Rtl.Ireturn None)
      | Some t ->
        let r = Rtl.fresh_reg f (Rtl.class_of_typ t) in
        let ret = Rtl.add_instr f (Rtl.Ireturn (Some r)) in
        (match t with
         | Minic.Ast.Tfloat ->
           Rtl.add_instr f (Rtl.Iop (Rtl.Ofloatconst 0.0, [], r, ret))
         | Minic.Ast.Tint | Minic.Ast.Tbool ->
           Rtl.add_instr f (Rtl.Iop (Rtl.Ointconst 0l, [], r, ret)))
    in
    zero_ret
  | Minic.Ast.Sreturn (Some e) ->
    let r = fresh_for env e in
    let ret = Rtl.add_instr f (Rtl.Ireturn (Some r)) in
    trans_expr env e r ret
  | Minic.Ast.Sannot (text, args) ->
    (* compute arguments left-to-right into fresh registers, then emit
       the annotation as a pro-forma effect over those registers *)
    let regs = List.map (fun e -> (e, fresh_for env e)) args in
    let annot =
      Rtl.add_instr f
        (Rtl.Iannot (text, List.map (fun (_, r) -> Rtl.RA_reg r) regs, k))
    in
    List.fold_right (fun (e, r) k' -> trans_expr env e r k') regs annot

(* Translate one function. *)
let trans_func (prog : Symtab.t) (fsrc : Minic.Ast.func) : Rtl.func =
  let f = Rtl.create_func fsrc.Minic.Ast.fn_name fsrc.Minic.Ast.fn_ret in
  let env =
    { env_prog = prog; env_scope = Symtab.scope prog fsrc; env_func = f;
      env_vars = Hashtbl.create 61 }
  in
  (* allocate pseudo-registers for parameters and locals *)
  let params =
    List.map
      (fun (x, t) ->
         let r = Rtl.fresh_reg f (Rtl.class_of_typ t) in
         Hashtbl.replace env.env_vars x r;
         (r, Rtl.class_of_typ t))
      fsrc.Minic.Ast.fn_params
  in
  List.iter
    (fun (x, t) ->
       let r = Rtl.fresh_reg f (Rtl.class_of_typ t) in
       Hashtbl.replace env.env_vars x r)
    fsrc.Minic.Ast.fn_locals;
  (* implicit return at the end of the body *)
  let implicit = trans_stmt env (Minic.Ast.Sreturn None) 0 in
  let entry = trans_stmt env fsrc.Minic.Ast.fn_body implicit in
  { f with Rtl.f_params = params; Rtl.f_entry = entry }

let trans_program (p : Minic.Ast.program) : Rtl.program =
  let prog = Symtab.of_program p in
  { Rtl.p_source = p;
    p_funcs = List.map (trans_func prog) p.Minic.Ast.prog_funcs;
    p_main = p.Minic.Ast.prog_main }
