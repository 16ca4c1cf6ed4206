(* Code generator of the COTS baseline compiler, in its three
   certification-relevant configurations (paper section 3.3):

   - O0 "pattern" mode ([o0]): every variable and every intermediate
     value lives in a stack slot; each operation loads its operands into
     fixed registers, computes, and stores the result back — exactly the
     reviewable per-symbol patterns of paper Listing 1. Register usage
     is fixed by the pattern library ("the register allocation is done
     manually for the non-optimized code").
   - O1 ([o1]): O0 plus AST constant folding and an assembly peephole;
     still no register allocation, hence the paper's -0.5% WCET.
   - O2 ([o2]): expression evaluation in a register stack, linear-scan
     allocation of locals to callee-class registers, small-data-area
     (SDA) addressing of global scalars — the feature the paper notes
     the default compiler has and CompCert 1.7 lacked — plus the
     peephole. *)

module Asm = Target.Asm
module Symtab = Minic.Symtab

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type config = {
  cg_fold : bool;
  cg_peephole : bool;
  cg_regstack : bool;
  cg_locals_in_regs : bool;
  cg_sda : bool;
  cg_fmadd : bool;
  (* Fused multiply-add contraction: a*b+c in a single rounding. This
     is a semantics-relaxing optimization (the result differs in the
     last bit from the two-rounding source semantics) — precisely the
     kind of transformation a mature -O2 performs and a formally
     verified compiler, or a pattern-based object-code review, must
     refuse. Trace-equivalence tests run with it disabled; the
     benchmark configuration enables it, like the paper's fully
     optimized default compiler. *)
}

let o0 : config =
  { cg_fold = false; cg_peephole = false; cg_regstack = false;
    cg_locals_in_regs = false; cg_sda = false; cg_fmadd = false }

let o1 : config = { o0 with cg_fold = true; cg_peephole = true }

let o2 : config =
  { cg_fold = true; cg_peephole = true; cg_regstack = true;
    cg_locals_in_regs = true; cg_sda = true; cg_fmadd = true }

(* Home of a source variable. *)
type home =
  | Hslot of int   (* byte offset from sp *)
  | Hireg of Asm.ireg
  | Hfreg of Asm.freg

(* Fixed pattern registers (O0/O1): operands and result per class. *)
let pat_int_a : Asm.ireg = 3
let pat_int_b : Asm.ireg = 4
let pat_int_r : Asm.ireg = 5
let pat_flt_a : Asm.freg = 3
let pat_flt_b : Asm.freg = 4
let pat_flt_r : Asm.freg = 5

(* Register stacks for O2 expression evaluation. *)
let istack = [| 3; 4; 5; 6; 7; 8; 9; 10 |]
let fstack = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 |]

type ctx = {
  cx_cfg : config;
  cx_prog : Symtab.t;
  cx_scope : Symtab.scope;     (* [cx_fsrc]'s names over [cx_prog] *)
  cx_fsrc : Minic.Ast.func;
  cx_homes : (string, home) Hashtbl.t;
  cx_buf : Asm.instr list ref; (* reversed *)
  mutable cx_temp : int;       (* next free temp byte offset *)
  mutable cx_temp_high : int;  (* high-water mark *)
  mutable cx_label : int;
  mutable cx_loop_depth : int; (* nesting level, for O2 limit registers *)
  cx_constregs : (int64, Asm.freg) Hashtbl.t; (* hoisted float constants *)
}

let emit (cx : ctx) (i : Asm.instr) : unit = cx.cx_buf := i :: !(cx.cx_buf)

let fresh_label (cx : ctx) : Asm.label =
  let l = cx.cx_label in
  cx.cx_label <- l + 1;
  l

let alloc_temp (cx : ctx) : int =
  let off = cx.cx_temp in
  cx.cx_temp <- off + 8;
  if cx.cx_temp > cx.cx_temp_high then cx.cx_temp_high <- cx.cx_temp;
  off

let home_of (cx : ctx) (x : string) : home =
  match Hashtbl.find_opt cx.cx_homes x with
  | Some h -> h
  | None -> fail "unbound variable %s" x

let is_float (t : Minic.Ast.typ) : bool =
  match t with
  | Minic.Ast.Tfloat -> true
  | Minic.Ast.Tint | Minic.Ast.Tbool -> false

(* Address of a global scalar under the configuration's data model. *)
let global_addr (cx : ctx) (x : string) : Asm.address =
  if cx.cx_cfg.cg_sda then Asm.Asda (x, 0l) else Asm.Aglob (x, 0l)

let fits_simm16 (n : int32) : bool =
  Int32.compare n (-32768l) >= 0 && Int32.compare n 32767l <= 0

let emit_intconst (cx : ctx) (d : Asm.ireg) (n : int32) : unit =
  if fits_simm16 n then emit cx (Asm.Paddi (d, 0, n))
  else begin
    let lo = Int32.logand n 0xFFFFl in
    let hi = Int32.logand (Int32.shift_right_logical n 16) 0xFFFFl in
    emit cx (Asm.Paddis (d, 0, hi));
    if not (Int32.equal lo 0l) then emit cx (Asm.Pori (d, d, lo))
  end

let cond_of_cmp = Asm.cond_of_cmp
let fconds_of_cmp = Asm.fconds_of_cmp

(* ================= O0/O1: slot-machine evaluation ================= *)

(* Evaluate [e] into the pattern result register of its class; returns
   that register (as a generic int; interpret by class). *)
let rec eval_to_reg0 (cx : ctx) (e : Minic.Ast.expr) : int =
  let t = Symtab.expr_typ cx.cx_scope e in
  match e with
  | Minic.Ast.Econst_int n ->
    emit_intconst cx pat_int_r n;
    pat_int_r
  | Minic.Ast.Econst_bool b ->
    emit_intconst cx pat_int_r (if b then 1l else 0l);
    pat_int_r
  | Minic.Ast.Econst_float c ->
    emit cx (Asm.Plfdc (pat_flt_r, c));
    pat_flt_r
  | Minic.Ast.Evar x ->
    (match home_of cx x, is_float t with
     | Hslot off, false ->
       emit cx (Asm.Plwz (pat_int_r, Asm.Aind (Asm.sp, Int32.of_int off)));
       pat_int_r
     | Hslot off, true ->
       emit cx (Asm.Plfd (pat_flt_r, Asm.Aind (Asm.sp, Int32.of_int off)));
       pat_flt_r
     | Hireg r, false ->
       emit cx (Asm.Pmr (pat_int_r, r));
       pat_int_r
     | Hfreg r, true ->
       emit cx (Asm.Pfmr (pat_flt_r, r));
       pat_flt_r
     | _, _ -> fail "class mismatch for %s" x)
  | Minic.Ast.Eglobal x ->
    if is_float t then begin
      emit cx (Asm.Plfd (pat_flt_r, global_addr cx x));
      pat_flt_r
    end
    else begin
      emit cx (Asm.Plwz (pat_int_r, global_addr cx x));
      pat_int_r
    end
  | Minic.Ast.Eindex (a, idx) ->
    let sidx = eval_to_slot0 cx idx in
    let arr = Symtab.array cx.cx_prog a in
    let sh = if is_float arr.Minic.Ast.arr_elt then 3 else 2 in
    emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int sidx)));
    emit cx (Asm.Pslwi (pat_int_b, pat_int_a, sh));
    emit cx (Asm.Pla (Asm.int_scratch1, a));
    if is_float t then begin
      emit cx (Asm.Plfd (pat_flt_r, Asm.Aindx (Asm.int_scratch1, pat_int_b)));
      pat_flt_r
    end
    else begin
      emit cx (Asm.Plwz (pat_int_r, Asm.Aindx (Asm.int_scratch1, pat_int_b)));
      pat_int_r
    end
  | Minic.Ast.Evolatile x ->
    if is_float t then begin
      emit cx (Asm.Pacqf (pat_flt_r, x));
      pat_flt_r
    end
    else begin
      emit cx (Asm.Pacqi (pat_int_r, x));
      pat_int_r
    end
  | Minic.Ast.Eunop (op, e1) ->
    let t1 = Symtab.expr_typ cx.cx_scope e1 in
    let s1 = eval_to_slot0 cx e1 in
    let load_int () =
      emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int s1)))
    in
    let load_flt () =
      emit cx (Asm.Plfd (pat_flt_a, Asm.Aind (Asm.sp, Int32.of_int s1)))
    in
    ignore t1;
    (match op with
     | Minic.Ast.Oneg ->
       load_int ();
       emit cx (Asm.Pneg (pat_int_r, pat_int_a));
       pat_int_r
     | Minic.Ast.Onot ->
       load_int ();
       emit cx (Asm.Pcmpwi (pat_int_a, 0l));
       emit cx (Asm.Psetcc (pat_int_r, Asm.BT Asm.CReq));
       pat_int_r
     | Minic.Ast.Ofneg ->
       load_flt ();
       emit cx (Asm.Pfneg (pat_flt_r, pat_flt_a));
       pat_flt_r
     | Minic.Ast.Ofabs ->
       load_flt ();
       emit cx (Asm.Pfabs (pat_flt_r, pat_flt_a));
       pat_flt_r
     | Minic.Ast.Ofloat_of_int ->
       load_int ();
       emit cx (Asm.Pfcfiw (pat_flt_r, pat_int_a));
       pat_flt_r
     | Minic.Ast.Oint_of_float ->
       load_flt ();
       emit cx (Asm.Pfctiwz (pat_int_r, pat_flt_a));
       pat_int_r)
  | Minic.Ast.Ebinop (op, e1, e2) ->
    let s1 = eval_to_slot0 cx e1 in
    let s2 = eval_to_slot0 cx e2 in
    let t1 = Symtab.expr_typ cx.cx_scope e1 in
    let load2_int () =
      emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int s1)));
      emit cx (Asm.Plwz (pat_int_b, Asm.Aind (Asm.sp, Int32.of_int s2)))
    in
    let load2_flt () =
      emit cx (Asm.Plfd (pat_flt_a, Asm.Aind (Asm.sp, Int32.of_int s1)));
      emit cx (Asm.Plfd (pat_flt_b, Asm.Aind (Asm.sp, Int32.of_int s2)))
    in
    (match op with
     | Minic.Ast.Oadd ->
       load2_int (); emit cx (Asm.Padd (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Osub ->
       load2_int (); emit cx (Asm.Psubf (pat_int_r, pat_int_b, pat_int_a)); pat_int_r
     | Minic.Ast.Omul ->
       load2_int (); emit cx (Asm.Pmullw (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Odiv ->
       load2_int (); emit cx (Asm.Pdivw (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Omod ->
       load2_int ();
       emit cx (Asm.Pdivw (pat_int_r, pat_int_a, pat_int_b));
       emit cx (Asm.Pmullw (pat_int_r, pat_int_r, pat_int_b));
       emit cx (Asm.Psubf (pat_int_r, pat_int_r, pat_int_a));
       pat_int_r
     | Minic.Ast.Oand | Minic.Ast.Oband ->
       load2_int (); emit cx (Asm.Pand (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Oor | Minic.Ast.Obor ->
       load2_int (); emit cx (Asm.Por (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Oxor ->
       load2_int (); emit cx (Asm.Pxor (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Oshl ->
       load2_int (); emit cx (Asm.Pslw (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Oshr ->
       load2_int (); emit cx (Asm.Psraw (pat_int_r, pat_int_a, pat_int_b)); pat_int_r
     | Minic.Ast.Ofadd ->
       load2_flt (); emit cx (Asm.Pfadd (pat_flt_r, pat_flt_a, pat_flt_b)); pat_flt_r
     | Minic.Ast.Ofsub ->
       load2_flt (); emit cx (Asm.Pfsub (pat_flt_r, pat_flt_a, pat_flt_b)); pat_flt_r
     | Minic.Ast.Ofmul ->
       load2_flt (); emit cx (Asm.Pfmul (pat_flt_r, pat_flt_a, pat_flt_b)); pat_flt_r
     | Minic.Ast.Ofdiv ->
       load2_flt (); emit cx (Asm.Pfdiv (pat_flt_r, pat_flt_a, pat_flt_b)); pat_flt_r
     | Minic.Ast.Ocmp c ->
       load2_int ();
       emit cx (Asm.Pcmpw (pat_int_a, pat_int_b));
       emit cx (Asm.Psetcc (pat_int_r, cond_of_cmp c));
       pat_int_r
     | Minic.Ast.Ofcmp c ->
       ignore t1;
       load2_flt ();
       emit cx (Asm.Pfcmpu (pat_flt_a, pat_flt_b));
       (match fconds_of_cmp c with
        | [ c1 ] -> emit cx (Asm.Psetcc (pat_int_r, c1))
        | [ c1; c2 ] ->
          emit cx (Asm.Psetcc (pat_int_r, c1));
          emit cx (Asm.Psetcc (pat_int_a, c2));
          emit cx (Asm.Por (pat_int_r, pat_int_r, pat_int_a))
        | _ -> fail "bad fconds");
       pat_int_r)
  | Minic.Ast.Econd (c, e1, e2) ->
    let ltrue = fresh_label cx in
    let lfalse = fresh_label cx in
    let lend = fresh_label cx in
    eval_cond0 cx c ltrue lfalse;
    emit cx (Asm.Plabel ltrue);
    let r1 = eval_to_reg0 cx e1 in
    emit cx (Asm.Pb lend);
    emit cx (Asm.Plabel lfalse);
    let r2 = eval_to_reg0 cx e2 in
    if r1 <> r2 then fail "conditional arms in different registers";
    emit cx (Asm.Plabel lend);
    r1

(* Evaluate into a stack slot; variables already in slots are returned
   directly (the Listing-1 pattern reads symbol inputs straight from
   their slots). *)
and eval_to_slot0 (cx : ctx) (e : Minic.Ast.expr) : int =
  match e with
  | Minic.Ast.Evar x ->
    (match home_of cx x with
     | Hslot off -> off
     | Hireg _ | Hfreg _ ->
       let r = eval_to_reg0 cx e in
       let off = alloc_temp cx in
       if is_float (Symtab.expr_typ cx.cx_scope e) then
         emit cx (Asm.Pstfd (r, Asm.Aind (Asm.sp, Int32.of_int off)))
       else emit cx (Asm.Pstw (r, Asm.Aind (Asm.sp, Int32.of_int off)));
       off)
  | _ ->
    let t = Symtab.expr_typ cx.cx_scope e in
    let r = eval_to_reg0 cx e in
    let off = alloc_temp cx in
    if is_float t then
      emit cx (Asm.Pstfd (r, Asm.Aind (Asm.sp, Int32.of_int off)))
    else emit cx (Asm.Pstw (r, Asm.Aind (Asm.sp, Int32.of_int off)));
    off

(* Branch on condition [c]: to [ltrue] when true, [lfalse] otherwise. *)
and eval_cond0 (cx : ctx) (c : Minic.Ast.expr) (ltrue : Asm.label)
    (lfalse : Asm.label) : unit =
  match c with
  | Minic.Ast.Eunop (Minic.Ast.Onot, c1) -> eval_cond0 cx c1 lfalse ltrue
  | Minic.Ast.Ebinop (Minic.Ast.Ocmp cmp, e1, e2) ->
    let s1 = eval_to_slot0 cx e1 in
    let s2 = eval_to_slot0 cx e2 in
    emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int s1)));
    emit cx (Asm.Plwz (pat_int_b, Asm.Aind (Asm.sp, Int32.of_int s2)));
    emit cx (Asm.Pcmpw (pat_int_a, pat_int_b));
    emit cx (Asm.Pbc (cond_of_cmp cmp, ltrue));
    emit cx (Asm.Pb lfalse)
  | Minic.Ast.Ebinop (Minic.Ast.Ofcmp cmp, e1, e2) ->
    let s1 = eval_to_slot0 cx e1 in
    let s2 = eval_to_slot0 cx e2 in
    emit cx (Asm.Plfd (pat_flt_a, Asm.Aind (Asm.sp, Int32.of_int s1)));
    emit cx (Asm.Plfd (pat_flt_b, Asm.Aind (Asm.sp, Int32.of_int s2)));
    emit cx (Asm.Pfcmpu (pat_flt_a, pat_flt_b));
    List.iter (fun cc -> emit cx (Asm.Pbc (cc, ltrue))) (fconds_of_cmp cmp);
    emit cx (Asm.Pb lfalse)
  | _ ->
    let r = eval_to_reg0 cx c in
    emit cx (Asm.Pcmpwi (r, 0l));
    emit cx (Asm.Pbc (Asm.BF Asm.CReq, ltrue));
    emit cx (Asm.Pb lfalse)

(* ================= O2: register-stack evaluation ================= *)

(* If-conversion predicates. A *then-arm* must be pure, cheap, and
   comparison-free (it is evaluated after the compare whose CR0 result
   the conditional move consumes). An *else-arm* may additionally be a
   nested conditional expression, compiled recursively before the outer
   compare. Volatile reads and array accesses are excluded everywhere:
   the unselected arm is executed too, and must be unobservable and
   unable to trap. Conditions must also be pure (they are evaluated even
   when the source's lazy evaluation would have skipped them). *)
let rec cmp_free_arm (budget : int) (e : Minic.Ast.expr) : int =
  if budget < 0 then budget
  else
    match e with
    | Minic.Ast.Econst_int _ | Minic.Ast.Econst_float _
    | Minic.Ast.Econst_bool _ | Minic.Ast.Evar _ | Minic.Ast.Eglobal _ ->
      budget
    | Minic.Ast.Eindex _ | Minic.Ast.Evolatile _ | Minic.Ast.Econd _ -> -1
    | Minic.Ast.Eunop (op, a) ->
      (match op with
       | Minic.Ast.Onot -> -1 (* emits a compare *)
       | Minic.Ast.Oneg | Minic.Ast.Ofneg | Minic.Ast.Ofabs
       | Minic.Ast.Ofloat_of_int | Minic.Ast.Oint_of_float ->
         cmp_free_arm (budget - 1) a)
    | Minic.Ast.Ebinop (op, a, b) ->
      (match op with
       | Minic.Ast.Ocmp _ | Minic.Ast.Ofcmp _ | Minic.Ast.Oband
       | Minic.Ast.Obor | Minic.Ast.Odiv | Minic.Ast.Omod
       | Minic.Ast.Ofdiv -> -1
       | Minic.Ast.Oadd | Minic.Ast.Osub | Minic.Ast.Omul
       | Minic.Ast.Oand | Minic.Ast.Oor | Minic.Ast.Oxor
       | Minic.Ast.Oshl | Minic.Ast.Oshr | Minic.Ast.Ofadd
       | Minic.Ast.Ofsub | Minic.Ast.Ofmul ->
         cmp_free_arm (cmp_free_arm (budget - 1) a) b)

(* Pure and cheap: allowed as a condition or condition operand. *)
let rec pure_cheap (budget : int) (e : Minic.Ast.expr) : int =
  if budget < 0 then budget
  else
    match e with
    | Minic.Ast.Econst_int _ | Minic.Ast.Econst_float _
    | Minic.Ast.Econst_bool _ | Minic.Ast.Evar _ | Minic.Ast.Eglobal _ ->
      budget
    | Minic.Ast.Eindex _ | Minic.Ast.Evolatile _ | Minic.Ast.Econd _ -> -1
    | Minic.Ast.Eunop (_, a) -> pure_cheap (budget - 1) a
    | Minic.Ast.Ebinop (op, a, b) ->
      (match op with
       | Minic.Ast.Odiv | Minic.Ast.Omod | Minic.Ast.Ofdiv -> -1
       | _ -> pure_cheap (pure_cheap (budget - 1) a) b)

let rec ifconvertible (depth : int) (e : Minic.Ast.expr) : bool =
  if depth > 3 then false
  else
    match e with
    | Minic.Ast.Econd (c, e1, e2) ->
      pure_cheap 4 c >= 0 && cmp_free_arm 3 e1 >= 0
      && ifconvertible (depth + 1) e2
    | _ -> cmp_free_arm 3 e >= 0

(* Evaluate [e] at expression-stack depth [d]; the result is returned in
   a machine register of the expression's class — either the stack
   register of depth [d] (which the evaluation wrote) or the register
   home of a variable (read-only). Depth overflow spills the left
   operand to a temporary slot around the right operand's evaluation. *)
let rec eval2 ?into (cx : ctx) (e : Minic.Ast.expr) (d : int) : int =
  let t = Symtab.expr_typ cx.cx_scope e in
  let flt = is_float t in
  let ireg k = istack.(k) and freg k = fstack.(k) in
  let dst =
    match into with
    | Some r -> r
    | None -> if flt then freg d else ireg d
  in
  match e with
  | Minic.Ast.Econst_int n -> emit_intconst cx dst n; dst
  | Minic.Ast.Econst_bool b ->
    emit_intconst cx dst (if b then 1l else 0l);
    dst
  | Minic.Ast.Econst_float c ->
    (match Hashtbl.find_opt cx.cx_constregs (Int64.bits_of_float c), into with
     | Some r, None -> r
     | Some r, Some _ ->
       if r <> dst then emit cx (Asm.Pfmr (dst, r));
       dst
     | None, _ -> emit cx (Asm.Plfdc (dst, c)); dst)
  | Minic.Ast.Evar x ->
    (match home_of cx x, into with
     | Hslot off, _ ->
       if flt then emit cx (Asm.Plfd (dst, Asm.Aind (Asm.sp, Int32.of_int off)))
       else emit cx (Asm.Plwz (dst, Asm.Aind (Asm.sp, Int32.of_int off)));
       dst
     | Hireg r, None -> r
     | Hfreg r, None -> r
     | Hireg r, Some _ ->
       if r <> dst then emit cx (Asm.Pmr (dst, r));
       dst
     | Hfreg r, Some _ ->
       if r <> dst then emit cx (Asm.Pfmr (dst, r));
       dst)
  | Minic.Ast.Eglobal x ->
    if flt then emit cx (Asm.Plfd (dst, global_addr cx x))
    else emit cx (Asm.Plwz (dst, global_addr cx x));
    dst
  | Minic.Ast.Eindex (a, idx) ->
    let arr = Symtab.array cx.cx_prog a in
    let sh = if is_float arr.Minic.Ast.arr_elt then 3 else 2 in
    let ri = eval2 cx idx d in
    let roff = ireg d in
    emit cx (Asm.Pslwi (roff, ri, sh));
    emit cx (Asm.Pla (Asm.int_scratch1, a));
    if flt then emit cx (Asm.Plfd (dst, Asm.Aindx (Asm.int_scratch1, roff)))
    else emit cx (Asm.Plwz (dst, Asm.Aindx (Asm.int_scratch1, roff)));
    dst
  | Minic.Ast.Evolatile x ->
    if flt then emit cx (Asm.Pacqf (dst, x)) else emit cx (Asm.Pacqi (dst, x));
    dst
  | Minic.Ast.Eunop (op, e1) ->
    let r1 = eval2 cx e1 d in
    (match op with
     | Minic.Ast.Oneg -> emit cx (Asm.Pneg (dst, r1))
     | Minic.Ast.Onot ->
       emit cx (Asm.Pcmpwi (r1, 0l));
       emit cx (Asm.Psetcc (dst, Asm.BT Asm.CReq))
     | Minic.Ast.Ofneg -> emit cx (Asm.Pfneg (dst, r1))
     | Minic.Ast.Ofabs -> emit cx (Asm.Pfabs (dst, r1))
     | Minic.Ast.Ofloat_of_int -> emit cx (Asm.Pfcfiw (dst, r1))
     | Minic.Ast.Oint_of_float -> emit cx (Asm.Pfctiwz (dst, r1)));
    dst
  | Minic.Ast.Ebinop
      ((Minic.Ast.Ofadd | Minic.Ast.Ofsub) as op, e1, e2)
    when cx.cx_cfg.cg_fmadd
      && d + 2 < Array.length fstack
      && (match op, e1, e2 with
          | _, Minic.Ast.Ebinop (Minic.Ast.Ofmul, _, _), _ -> true
          | Minic.Ast.Ofadd, _, Minic.Ast.Ebinop (Minic.Ast.Ofmul, _, _) ->
            true
          | _, _, _ -> false) ->
    (* fused multiply-add contraction (source evaluation order kept) *)
    (match op, e1, e2 with
     | _, Minic.Ast.Ebinop (Minic.Ast.Ofmul, a, b), c ->
       let ra = eval2 cx a d in
       let rb = eval2 cx b (d + 1) in
       let rc = eval2 cx c (d + 2) in
       (match op with
        | Minic.Ast.Ofadd -> emit cx (Asm.Pfmadd (dst, ra, rb, rc))
        | _ -> emit cx (Asm.Pfmsub (dst, ra, rb, rc)));
       dst
     | Minic.Ast.Ofadd, c, Minic.Ast.Ebinop (Minic.Ast.Ofmul, a, b) ->
       let rc = eval2 cx c d in
       let ra = eval2 cx a (d + 1) in
       let rb = eval2 cx b (d + 2) in
       emit cx (Asm.Pfmadd (dst, ra, rb, rc));
       dst
     | _, _, _ -> assert false)
  | Minic.Ast.Ebinop (op, e1, e2) ->
    let t1 = Symtab.expr_typ cx.cx_scope e1 in
    let flt1 = is_float t1 in
    let limit = if flt1 then Array.length fstack else Array.length istack in
    let r1, r2 =
      if d + 1 < limit then
        let r1 = eval2 cx e1 d in
        let r2 = eval2 cx e2 (d + 1) in
        (r1, r2)
      else begin
        (* spill the left operand around the right's evaluation *)
        let r1 = eval2 cx e1 d in
        let off = alloc_temp cx in
        if flt1 then
          emit cx (Asm.Pstfd (r1, Asm.Aind (Asm.sp, Int32.of_int off)))
        else emit cx (Asm.Pstw (r1, Asm.Aind (Asm.sp, Int32.of_int off)));
        let r2 = eval2 cx e2 d in
        let scratch =
          if flt1 then Asm.float_scratch1 else Asm.int_scratch1
        in
        if flt1 then
          emit cx (Asm.Plfd (scratch, Asm.Aind (Asm.sp, Int32.of_int off)))
        else emit cx (Asm.Plwz (scratch, Asm.Aind (Asm.sp, Int32.of_int off)));
        (scratch, r2)
      end
    in
    (match op with
     | Minic.Ast.Oadd -> emit cx (Asm.Padd (dst, r1, r2))
     | Minic.Ast.Osub -> emit cx (Asm.Psubf (dst, r2, r1))
     | Minic.Ast.Omul -> emit cx (Asm.Pmullw (dst, r1, r2))
     | Minic.Ast.Odiv -> emit cx (Asm.Pdivw (dst, r1, r2))
     | Minic.Ast.Omod ->
       emit cx (Asm.Pdivw (Asm.int_scratch, r1, r2));
       emit cx (Asm.Pmullw (Asm.int_scratch, Asm.int_scratch, r2));
       emit cx (Asm.Psubf (dst, Asm.int_scratch, r1))
     | Minic.Ast.Oand | Minic.Ast.Oband -> emit cx (Asm.Pand (dst, r1, r2))
     | Minic.Ast.Oor | Minic.Ast.Obor -> emit cx (Asm.Por (dst, r1, r2))
     | Minic.Ast.Oxor -> emit cx (Asm.Pxor (dst, r1, r2))
     | Minic.Ast.Oshl -> emit cx (Asm.Pslw (dst, r1, r2))
     | Minic.Ast.Oshr -> emit cx (Asm.Psraw (dst, r1, r2))
     | Minic.Ast.Ofadd -> emit cx (Asm.Pfadd (dst, r1, r2))
     | Minic.Ast.Ofsub -> emit cx (Asm.Pfsub (dst, r1, r2))
     | Minic.Ast.Ofmul -> emit cx (Asm.Pfmul (dst, r1, r2))
     | Minic.Ast.Ofdiv -> emit cx (Asm.Pfdiv (dst, r1, r2))
     | Minic.Ast.Ocmp c ->
       emit cx (Asm.Pcmpw (r1, r2));
       emit cx (Asm.Psetcc (dst, cond_of_cmp c))
     | Minic.Ast.Ofcmp c ->
       emit cx (Asm.Pfcmpu (r1, r2));
       (match fconds_of_cmp c with
        | [ c1 ] -> emit cx (Asm.Psetcc (dst, c1))
        | [ c1; c2 ] ->
          emit cx (Asm.Psetcc (dst, c1));
          emit cx (Asm.Psetcc (Asm.int_scratch2, c2));
          emit cx (Asm.Por (dst, dst, Asm.int_scratch2))
        | _ -> fail "bad fconds"));
    dst
  | Minic.Ast.Econd (c, e1, e2) ->
    (* if-conversion: when both arms are cheap, pure, comparison-free
       expressions, compute both and select with a conditional move —
       no branches, no pipeline-window resets. This is the optimization
       that keeps the full -O code straight-line where CompCert 1.7
       emits branch diamonds. *)
    if ifconvertible 0 e
       && d + 2 < Array.length istack && d + 2 < Array.length fstack then begin
      (* recursive straight-line compilation: else-arm first (possibly
         itself a conditional), then the compare, then the cmp-free
         then-arm, then the select. The destination is the stack
         register at depth [d]: an [into] home could be read by the
         condition or the then-arm, so it is only moved at the end. *)
      let sd = if flt then freg d else ireg d in
      let rec ifconv (e : Minic.Ast.expr) : unit =
        match e with
        | Minic.Ast.Econd (c, e1, e2) ->
          ifconv e2;
          let conds =
            match c with
            | Minic.Ast.Ebinop (Minic.Ast.Ocmp cmp, a, b) ->
              let r1 = eval2 cx a (d + 1) in
              let r2 = eval2 cx b (d + 2) in
              emit cx (Asm.Pcmpw (r1, r2));
              [ cond_of_cmp cmp ]
            | Minic.Ast.Ebinop (Minic.Ast.Ofcmp cmp, a, b) ->
              let r1 = eval2 cx a (d + 1) in
              let r2 = eval2 cx b (d + 2) in
              emit cx (Asm.Pfcmpu (r1, r2));
              fconds_of_cmp cmp
            | _ ->
              let r = eval2 cx c (d + 1) in
              emit cx (Asm.Pcmpwi (r, 0l));
              [ Asm.BF Asm.CReq ]
          in
          let rthen = eval2 cx e1 (d + 1) in
          List.iter
            (fun cc ->
               if flt then emit cx (Asm.Pfmovcc (sd, rthen, cc))
               else emit cx (Asm.Pmovcc (sd, rthen, cc)))
            conds
        | _ ->
          let r = eval2 cx e d in
          if r <> sd then begin
            if flt then emit cx (Asm.Pfmr (sd, r)) else emit cx (Asm.Pmr (sd, r))
          end
      in
      ifconv e;
      if sd <> dst then begin
        if flt then emit cx (Asm.Pfmr (dst, sd)) else emit cx (Asm.Pmr (dst, sd))
      end;
      dst
    end
    else begin
      let ltrue = fresh_label cx in
      let lfalse = fresh_label cx in
      let lend = fresh_label cx in
      eval_cond2 cx c d ltrue lfalse;
      emit cx (Asm.Plabel ltrue);
      let r1 = eval2 cx e1 d in
      if r1 <> dst then begin
        if flt then emit cx (Asm.Pfmr (dst, r1)) else emit cx (Asm.Pmr (dst, r1))
      end;
      emit cx (Asm.Pb lend);
      emit cx (Asm.Plabel lfalse);
      let r2 = eval2 cx e2 d in
      if r2 <> dst then begin
        if flt then emit cx (Asm.Pfmr (dst, r2)) else emit cx (Asm.Pmr (dst, r2))
      end;
      emit cx (Asm.Plabel lend);
      dst
    end

and eval_cond2 (cx : ctx) (c : Minic.Ast.expr) (d : int) (ltrue : Asm.label)
    (lfalse : Asm.label) : unit =
  match c with
  | Minic.Ast.Eunop (Minic.Ast.Onot, c1) -> eval_cond2 cx c1 d lfalse ltrue
  | Minic.Ast.Ebinop (Minic.Ast.Ocmp cmp, e1, e2) when d + 1 < Array.length istack ->
    let r1 = eval2 cx e1 d in
    let r2 = eval2 cx e2 (d + 1) in
    emit cx (Asm.Pcmpw (r1, r2));
    emit cx (Asm.Pbc (cond_of_cmp cmp, ltrue));
    emit cx (Asm.Pb lfalse)
  | Minic.Ast.Ebinop (Minic.Ast.Ofcmp cmp, e1, e2) when d + 1 < Array.length fstack ->
    let r1 = eval2 cx e1 d in
    let r2 = eval2 cx e2 (d + 1) in
    emit cx (Asm.Pfcmpu (r1, r2));
    List.iter (fun cc -> emit cx (Asm.Pbc (cc, ltrue))) (fconds_of_cmp cmp);
    emit cx (Asm.Pb lfalse)
  | _ ->
    let r = eval2 cx c d in
    emit cx (Asm.Pcmpwi (r, 0l));
    emit cx (Asm.Pbc (Asm.BF Asm.CReq, ltrue));
    emit cx (Asm.Pb lfalse)

(* ================= statements ================= *)

(* Evaluate [e] into a register (dispatching on the configuration). *)
let eval_expr (cx : ctx) (e : Minic.Ast.expr) : int =
  if cx.cx_cfg.cg_regstack then eval2 cx e 0 else eval_to_reg0 cx e

let eval_cond (cx : ctx) (c : Minic.Ast.expr) (ltrue : Asm.label)
    (lfalse : Asm.label) : unit =
  if cx.cx_cfg.cg_regstack then eval_cond2 cx c 0 ltrue lfalse
  else eval_cond0 cx c ltrue lfalse

(* Annotation argument for [e]: constants stay constants; variables use
   their final home; anything else is evaluated to a temporary slot. *)
let annot_arg (cx : ctx) (e : Minic.Ast.expr) : Asm.annot_arg =
  match e with
  | Minic.Ast.Econst_int n -> Asm.AA_const_int n
  | Minic.Ast.Econst_float c -> Asm.AA_const_float c
  | Minic.Ast.Evar x ->
    (match home_of cx x with
     | Hireg r -> Asm.AA_ireg r
     | Hfreg r -> Asm.AA_freg r
     | Hslot off ->
       if is_float (Symtab.var cx.cx_scope x) then
         Asm.AA_stack_float (Int32.of_int off)
       else Asm.AA_stack_int (Int32.of_int off))
  | _ ->
    let t = Symtab.expr_typ cx.cx_scope e in
    let r = eval_expr cx e in
    let off = alloc_temp cx in
    if is_float t then begin
      emit cx (Asm.Pstfd (r, Asm.Aind (Asm.sp, Int32.of_int off)));
      Asm.AA_stack_float (Int32.of_int off)
    end
    else begin
      emit cx (Asm.Pstw (r, Asm.Aind (Asm.sp, Int32.of_int off)));
      Asm.AA_stack_int (Int32.of_int off)
    end

let store_to_home (cx : ctx) (x : string) (r : int) : unit =
  let flt = is_float (Symtab.var cx.cx_scope x) in
  match home_of cx x with
  | Hslot off ->
    if flt then emit cx (Asm.Pstfd (r, Asm.Aind (Asm.sp, Int32.of_int off)))
    else emit cx (Asm.Pstw (r, Asm.Aind (Asm.sp, Int32.of_int off)))
  | Hireg h -> if h <> r then emit cx (Asm.Pmr (h, r))
  | Hfreg h -> if h <> r then emit cx (Asm.Pfmr (h, r))

let rec gen_stmt (cx : ctx) (epilogue : unit -> unit) (s : Minic.Ast.stmt) :
  unit =
  let saved_temp = cx.cx_temp in
  (match s with
   | Minic.Ast.Sskip -> ()
   | Minic.Ast.Sassign (x, e) ->
     if cx.cx_cfg.cg_regstack then begin
       match home_of cx x with
       | Hireg h | Hfreg h ->
         let r = eval2 ~into:h cx e 0 in
         ignore r
       | Hslot _ ->
         let r = eval2 cx e 0 in
         store_to_home cx x r
     end
     else begin
       let r = eval_expr cx e in
       store_to_home cx x r
     end
   | Minic.Ast.Sglobassign (x, e) ->
     let r = eval_expr cx e in
     if is_float (Symtab.global cx.cx_prog x) then
       emit cx (Asm.Pstfd (r, global_addr cx x))
     else emit cx (Asm.Pstw (r, global_addr cx x))
   | Minic.Ast.Sstore (a, idx, e) ->
     let arr = Symtab.array cx.cx_prog a in
     let sh = if is_float arr.Minic.Ast.arr_elt then 3 else 2 in
     (* index into a temp slot, value into a register, then combine *)
     let sidx = alloc_temp cx in
     let ri = eval_expr cx idx in
     emit cx (Asm.Pstw (ri, Asm.Aind (Asm.sp, Int32.of_int sidx)));
     let rv = eval_expr cx e in
     emit cx (Asm.Plwz (Asm.int_scratch2, Asm.Aind (Asm.sp, Int32.of_int sidx)));
     emit cx (Asm.Pslwi (Asm.int_scratch2, Asm.int_scratch2, sh));
     emit cx (Asm.Pla (Asm.int_scratch1, a));
     if is_float arr.Minic.Ast.arr_elt then
       emit cx (Asm.Pstfd (rv, Asm.Aindx (Asm.int_scratch1, Asm.int_scratch2)))
     else
       emit cx (Asm.Pstw (rv, Asm.Aindx (Asm.int_scratch1, Asm.int_scratch2)))
   | Minic.Ast.Svolstore (x, e) ->
     let r = eval_expr cx e in
     if is_float (fst (Symtab.volatile cx.cx_prog x)) then
       emit cx (Asm.Poutf (x, r))
     else emit cx (Asm.Pouti (x, r))
   | Minic.Ast.Sseq (a, b) ->
     gen_stmt cx epilogue a;
     gen_stmt cx epilogue b
   | Minic.Ast.Sif (c, a, b) ->
     let ltrue = fresh_label cx in
     let lfalse = fresh_label cx in
     let lend = fresh_label cx in
     eval_cond cx c ltrue lfalse;
     emit cx (Asm.Plabel ltrue);
     gen_stmt cx epilogue a;
     emit cx (Asm.Pb lend);
     emit cx (Asm.Plabel lfalse);
     gen_stmt cx epilogue b;
     emit cx (Asm.Plabel lend)
   | Minic.Ast.Swhile (c, body) ->
     let lhead = fresh_label cx in
     let lbody = fresh_label cx in
     let lend = fresh_label cx in
     emit cx (Asm.Plabel lhead);
     eval_cond cx c lbody lend;
     emit cx (Asm.Plabel lbody);
     gen_stmt cx epilogue body;
     emit cx (Asm.Pb lhead);
     emit cx (Asm.Plabel lend)
   | Minic.Ast.Sfor (i, lo, hi, body) ->
     (* i = lo; limit = hi; while (i < limit) { body; i = i + 1 }.
        At O2 the limit lives in a reserved register (r26+nesting) while
        registers last; the pattern configurations reload it from its
        slot every iteration. *)
     let rlo = eval_expr cx lo in
     store_to_home cx i rlo;
     let limit_reg =
       if cx.cx_cfg.cg_regstack && cx.cx_loop_depth < 4 then
         Some (28 + cx.cx_loop_depth)
       else None
     in
     let slimit =
       match limit_reg with
       | Some r ->
         let _ = eval2 ~into:r cx hi 0 in
         None
       | None ->
         let s = alloc_temp cx in
         let rhi = eval_expr cx hi in
         emit cx (Asm.Pstw (rhi, Asm.Aind (Asm.sp, Int32.of_int s)));
         Some s
     in
     let lhead = fresh_label cx in
     let lbody = fresh_label cx in
     let lend = fresh_label cx in
     emit cx (Asm.Plabel lhead);
     let ri =
       match home_of cx i with
       | Hireg r -> r
       | Hslot off ->
         emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int off)));
         pat_int_a
       | Hfreg _ -> fail "float loop counter"
     in
     let rlimit =
       match limit_reg, slimit with
       | Some r, _ -> r
       | None, Some s ->
         emit cx (Asm.Plwz (Asm.int_scratch2, Asm.Aind (Asm.sp, Int32.of_int s)));
         Asm.int_scratch2
       | None, None -> assert false
     in
     emit cx (Asm.Pcmpw (ri, rlimit));
     emit cx (Asm.Pbc (Asm.BT Asm.CRlt, lbody));
     emit cx (Asm.Pb lend);
     emit cx (Asm.Plabel lbody);
     cx.cx_loop_depth <- cx.cx_loop_depth + 1;
     gen_stmt cx epilogue body;
     cx.cx_loop_depth <- cx.cx_loop_depth - 1;
     (* i = i + 1 *)
     (match home_of cx i with
      | Hireg r -> emit cx (Asm.Paddi (r, r, 1l))
      | Hslot off ->
        emit cx (Asm.Plwz (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int off)));
        emit cx (Asm.Paddi (pat_int_a, pat_int_a, 1l));
        emit cx (Asm.Pstw (pat_int_a, Asm.Aind (Asm.sp, Int32.of_int off)))
      | Hfreg _ -> fail "float loop counter");
     emit cx (Asm.Pb lhead);
     emit cx (Asm.Plabel lend)
   | Minic.Ast.Sreturn None ->
     (match cx.cx_fsrc.Minic.Ast.fn_ret with
      | None -> ()
      | Some Minic.Ast.Tfloat -> emit cx (Asm.Plfdc (1, 0.0))
      | Some (Minic.Ast.Tint | Minic.Ast.Tbool) ->
        emit cx (Asm.Paddi (3, 0, 0l)));
     epilogue ()
   | Minic.Ast.Sreturn (Some e) ->
     let r = eval_expr cx e in
     (match cx.cx_fsrc.Minic.Ast.fn_ret with
      | Some Minic.Ast.Tfloat -> if r <> 1 then emit cx (Asm.Pfmr (1, r))
      | Some (Minic.Ast.Tint | Minic.Ast.Tbool) ->
        if r <> 3 then emit cx (Asm.Pmr (3, r))
      | None -> fail "return value in void function");
     epilogue ()
   | Minic.Ast.Sannot (text, args) ->
     let aargs = List.map (annot_arg cx) args in
     emit cx (Asm.Pannot (text, aargs)));
  cx.cx_temp <- saved_temp

(* ================= function & program translation ================= *)

(* Collect float constants of a function body with occurrence counts. *)
let float_consts (f : Minic.Ast.func) : (float * int) list =
  let counts : (int64, float * int) Hashtbl.t = Hashtbl.create 31 in
  let rec expr e =
    match e with
    | Minic.Ast.Econst_float c ->
      let bits = Int64.bits_of_float c in
      let _, n = Option.value ~default:(c, 0) (Hashtbl.find_opt counts bits) in
      Hashtbl.replace counts bits (c, n + 1)
    | Minic.Ast.Econst_int _ | Minic.Ast.Econst_bool _ | Minic.Ast.Evar _
    | Minic.Ast.Eglobal _ | Minic.Ast.Evolatile _ -> ()
    | Minic.Ast.Eindex (_, i) -> expr i
    | Minic.Ast.Eunop (_, a) -> expr a
    | Minic.Ast.Ebinop (_, a, b) -> expr a; expr b
    | Minic.Ast.Econd (c, a, b) -> expr c; expr a; expr b
  in
  Minic.Ast.iter_stmt
    (fun s ->
       match s with
       | Minic.Ast.Sassign (_, e) | Minic.Ast.Sglobassign (_, e)
       | Minic.Ast.Svolstore (_, e) | Minic.Ast.Sreturn (Some e) -> expr e
       | Minic.Ast.Sstore (_, i, e) -> expr i; expr e
       | Minic.Ast.Sif (c, _, _) | Minic.Ast.Swhile (c, _) -> expr c
       | Minic.Ast.Sfor (_, lo, hi, _) -> expr lo; expr hi
       | Minic.Ast.Sannot (_, args) -> List.iter expr args
       | Minic.Ast.Sskip | Minic.Ast.Sseq _ | Minic.Ast.Sreturn None -> ())
    f.Minic.Ast.fn_body;
  Hashtbl.fold (fun _ cv acc -> cv :: acc) counts []

let gen_func (cfg : config) (prog : Symtab.t) (fsrc : Minic.Ast.func) :
  Asm.func =
  let fsrc = if cfg.cg_fold then Fold.fold_func fsrc else fsrc in
  (* chain fusion exposes new folding opportunities: fold again after *)
  let fsrc =
    if cfg.cg_regstack then Fold.fold_func (Chainfuse.fuse_func fsrc)
    else fsrc
  in
  let cx =
    { cx_cfg = cfg;
      cx_prog = prog;
      cx_scope = Symtab.scope prog fsrc;
      cx_fsrc = fsrc;
      cx_homes = Hashtbl.create 61;
      cx_buf = ref [];
      cx_temp = 0;
      cx_temp_high = 0;
      cx_label = 1;
      cx_loop_depth = 0;
      cx_constregs = Hashtbl.create 7 }
  in
  let vars = fsrc.Minic.Ast.fn_params @ fsrc.Minic.Ast.fn_locals in
  (* variable homes. At O2 a linear scan over the live ranges of the
     (mostly single-assignment, short-lived) locals assigns them to the
     callee-class registers r14-r27 / f14-f28, recycling registers as
     ranges expire; the remainder spills to slots. The pattern
     configurations put everything in slots. *)
  let next_var_slot = ref 0 in
  let free_const_regs = ref [] in (* float regs unused by locals *)
  let give_slot (x : string) : unit =
    Hashtbl.replace cx.cx_homes x (Hslot !next_var_slot);
    next_var_slot := !next_var_slot + 8
  in
  if cfg.cg_locals_in_regs then begin
    (* live ranges at top-level statement granularity *)
    let stmts = Array.of_list (Chainfuse.flatten fsrc.Minic.Ast.fn_body []) in
    let first = Hashtbl.create 61 and last = Hashtbl.create 61 in
    List.iter
      (fun (x, _) -> Hashtbl.replace first x (-1))
      fsrc.Minic.Ast.fn_params;
    Array.iteri
      (fun i s ->
         List.iter
           (fun (x, _) ->
              if Chainfuse.stmt_uses x s > 0 || Chainfuse.stmt_assigns x s > 0
              then begin
                if not (Hashtbl.mem first x) then Hashtbl.replace first x i;
                Hashtbl.replace last x i
              end)
           vars)
      stmts;
    let events =
      List.filter_map
        (fun (x, t) ->
           match Hashtbl.find_opt first x with
           | Some fi ->
             Some (x, t, fi, Option.value ~default:fi (Hashtbl.find_opt last x))
           | None -> None)
        vars
      |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b)
    in
    let ipool = ref (List.init 14 (fun i -> 14 + i)) in
    let fpool = ref (List.init 15 (fun i -> 14 + i)) in
    let active = ref [] in (* (last, is_float, reg) *)
    let fregs_ever_used = Hashtbl.create 17 in
    List.iter
      (fun (x, t, fi, la) ->
         (* expire finished ranges *)
         let expired, still =
           List.partition (fun (l, _, _) -> l < fi) !active
         in
         active := still;
         List.iter
           (fun (_, isf, r) ->
              if isf then fpool := r :: !fpool else ipool := r :: !ipool)
           expired;
         let pool = if is_float t then fpool else ipool in
         match !pool with
         | r :: rest ->
           pool := rest;
           active := (la, is_float t, r) :: !active;
           if is_float t then Hashtbl.replace fregs_ever_used r ();
           Hashtbl.replace cx.cx_homes x
             (if is_float t then Hfreg r else Hireg r)
         | [] -> give_slot x)
      events;
    (* float registers the scan never touched are available for
       constant hoisting below *)
    List.iter
      (fun r ->
         if not (Hashtbl.mem fregs_ever_used r) then
           free_const_regs := r :: !free_const_regs)
      (List.init 15 (fun i -> 14 + i));
    (* locals never mentioned still need a home *)
    List.iter
      (fun (x, _) ->
         if not (Hashtbl.mem cx.cx_homes x) then give_slot x)
      vars
  end
  else List.iter (fun (x, _) -> give_slot x) vars;
  (* variable area sits at [8, 8 + vs); temps follow. The generator
     allocates temps from 0 upward; all offsets are shifted at the end.
     To keep the code simple we instead generate with final offsets:
     variables first (known now), temps from the var area end. *)
  Hashtbl.iter
    (fun x h ->
       match h with
       | Hslot off -> Hashtbl.replace cx.cx_homes x (Hslot (8 + off))
       | Hireg _ | Hfreg _ -> ())
    (Hashtbl.copy cx.cx_homes);
  cx.cx_temp <- 8 + !next_var_slot;
  cx.cx_temp_high <- cx.cx_temp;
  (* O2 constant hoisting: the most frequent float constants are loaded
     once in the prologue into f29-f31 plus every callee-class float
     register the locals allocation left untouched *)
  if cfg.cg_regstack then begin
    let consts =
      List.sort (fun (_, a) (_, b) -> compare b a) (float_consts fsrc)
      |> List.filter (fun (_, n) -> n >= 2)
    in
    let available = ref ([ 29; 30; 31 ] @ List.rev !free_const_regs) in
    List.iter
      (fun (c, _) ->
         match !available with
         | r :: rest ->
           available := rest;
           Hashtbl.replace cx.cx_constregs (Int64.bits_of_float c) r;
           emit cx (Asm.Plfdc (r, c))
         | [] -> ())
      consts
  end;
  (* prologue: the frame size is patched after generation *)
  let epilogue () =
    emit cx (Asm.Pfreeframe 0); (* patched below *)
    emit cx Asm.Pblr
  in
  (* move parameters from their EABI arrival registers to their homes *)
  let next_i = ref 3 and next_f = ref 1 in
  List.iter
    (fun (x, t) ->
       let arrival = if is_float t then (let r = !next_f in incr next_f; r)
                     else (let r = !next_i in incr next_i; r) in
       store_to_home cx x arrival)
    fsrc.Minic.Ast.fn_params;
  gen_stmt cx epilogue fsrc.Minic.Ast.fn_body;
  (* implicit return, unless the body already ended with one *)
  (match !(cx.cx_buf) with
   | Asm.Pblr :: _ -> ()
   | _ -> gen_stmt cx epilogue (Minic.Ast.Sreturn None));
  let frame = (cx.cx_temp_high + 15) / 16 * 16 in
  let code =
    List.rev_map
      (fun i ->
         match i with
         | Asm.Pfreeframe 0 -> Asm.Pfreeframe frame
         | _ -> i)
      !(cx.cx_buf)
  in
  let code = Asm.Pallocframe frame :: code in
  { Asm.fn_name = fsrc.Minic.Ast.fn_name; fn_code = code }

let gen_program (cfg : config) (p : Minic.Ast.program) : Asm.program =
  let prog = Symtab.of_program p in
  { Asm.pr_funcs = List.map (gen_func cfg prog) p.Minic.Ast.prog_funcs;
    pr_main = p.Minic.Ast.prog_main }
