(* Random well-typed mini-C program generator for the property tests.

   Generated programs are, by construction:
   - type-correct (checked again by the type checker in the tests);
   - terminating (loops are counted [for] loops with small constant
     bounds, or while loops with an explicit counter pattern);
   - memory-safe (array indices are masked to the power-of-two array
     size or taken from in-range loop counters);
   - free of reads of uninitialized locals (an initialized-set is
     threaded through generation).

   They exercise every statement and expression former, volatile
   acquisitions and outputs, annotations, nested control flow — the
   input space over which semantic preservation of all four compilers
   and soundness of the WCET analyzer are tested. *)

module A = Minic.Ast

type genv = {
  rng : Random.State.t;
  globals : (string * A.typ) list;
  arrays : A.array_def list;
  vol_ins : string list;
  vol_outs : (string * A.typ) list;
  mutable locals : (string * A.typ) list;
  mutable initialized : string list;
  mutable protected : string list; (* live loop counters: never assigned *)
  mutable fresh : int;
}

let pick (g : genv) (xs : 'a list) : 'a =
  List.nth xs (Random.State.int g.rng (List.length xs))

let chance (g : genv) (pct : int) : bool = Random.State.int g.rng 100 < pct

let small_int (g : genv) : int32 =
  Int32.of_int (Random.State.int g.rng 200 - 100)

let small_float (g : genv) : float =
  let mantissa = float_of_int (Random.State.int g.rng 4000 - 2000) in
  mantissa /. 16.0

let fresh_local (g : genv) (t : A.typ) : string =
  g.fresh <- g.fresh + 1;
  let name = Printf.sprintf "v%d_%s" g.fresh (A.string_of_typ t) in
  g.locals <- (name, t) :: g.locals;
  name

let initialized_locals (g : genv) (t : A.typ) : string list =
  List.filter_map
    (fun (x, t') ->
       if t = t' && List.mem x g.initialized then Some x else None)
    g.locals

(* assignment targets exclude protected loop counters *)
let assignable_locals (g : genv) (t : A.typ) : string list =
  List.filter
    (fun x -> not (List.mem x g.protected))
    (initialized_locals g t)

(* Typed expression generation. *)
let rec gen_expr (g : genv) (t : A.typ) (depth : int) : A.expr =
  let leaf () : A.expr =
    let candidates =
      (match t with
       | A.Tint -> [ `Const ]
       | A.Tfloat -> [ `Const ]
       | A.Tbool -> [ `Const ])
      @ (if initialized_locals g t <> [] then [ `Var ] else [])
      @ (if List.exists (fun (_, t') -> t = t') g.globals then [ `Glob ] else [])
      @
      (match t with
       | A.Tfloat when g.vol_ins <> [] && chance g 30 -> [ `Vol ]
       | _ -> [])
    in
    match pick g candidates with
    | `Const ->
      (match t with
       | A.Tint -> A.Econst_int (small_int g)
       | A.Tfloat -> A.Econst_float (small_float g)
       | A.Tbool -> A.Econst_bool (Random.State.bool g.rng))
    | `Var -> A.Evar (pick g (initialized_locals g t))
    | `Glob ->
      A.Eglobal
        (fst (pick g (List.filter (fun (_, t') -> t = t') g.globals)))
    | `Vol -> A.Evolatile (pick g g.vol_ins)
  in
  if depth <= 0 || chance g 30 then leaf ()
  else
    match t with
    | A.Tint ->
      (match Random.State.int g.rng 8 with
       | 0 ->
         A.Ebinop
           ( pick g [ A.Oadd; A.Osub; A.Omul; A.Odiv; A.Omod ],
             gen_expr g A.Tint (depth - 1), gen_expr g A.Tint (depth - 1) )
       | 1 ->
         A.Ebinop
           ( pick g [ A.Oand; A.Oor; A.Oxor; A.Oshl; A.Oshr ],
             gen_expr g A.Tint (depth - 1), gen_expr g A.Tint (depth - 1) )
       | 2 -> A.Eunop (A.Oneg, gen_expr g A.Tint (depth - 1))
       | 3 -> A.Eunop (A.Oint_of_float, gen_expr g A.Tfloat (depth - 1))
       | 4 when g.arrays <> [] ->
         let arr = pick g g.arrays in
         if arr.A.arr_elt = A.Tint then
           A.Eindex (arr.A.arr_name, gen_index g arr (depth - 1))
         else A.Ebinop (A.Oadd, gen_expr g A.Tint (depth - 1), leaf ())
       | 5 ->
         A.Econd
           ( gen_expr g A.Tbool (depth - 1),
             gen_expr g A.Tint (depth - 1), gen_expr g A.Tint (depth - 1) )
       | _ ->
         A.Ebinop
           (A.Oadd, gen_expr g A.Tint (depth - 1), gen_expr g A.Tint (depth - 1)))
    | A.Tfloat ->
      (match Random.State.int g.rng 8 with
       | 0 | 1 ->
         A.Ebinop
           ( pick g [ A.Ofadd; A.Ofsub; A.Ofmul; A.Ofdiv ],
             gen_expr g A.Tfloat (depth - 1), gen_expr g A.Tfloat (depth - 1) )
       | 2 ->
         A.Eunop
           (pick g [ A.Ofneg; A.Ofabs ], gen_expr g A.Tfloat (depth - 1))
       | 3 -> A.Eunop (A.Ofloat_of_int, gen_expr g A.Tint (depth - 1))
       | 4 when g.arrays <> [] ->
         let farrays =
           List.filter (fun a -> a.A.arr_elt = A.Tfloat) g.arrays
         in
         if farrays <> [] then begin
           let arr = pick g farrays in
           A.Eindex (arr.A.arr_name, gen_index g arr (depth - 1))
         end
         else A.Eunop (A.Ofneg, gen_expr g A.Tfloat (depth - 1))
       | 5 ->
         A.Econd
           ( gen_expr g A.Tbool (depth - 1),
             gen_expr g A.Tfloat (depth - 1), gen_expr g A.Tfloat (depth - 1) )
       | _ ->
         A.Ebinop
           ( A.Ofadd, gen_expr g A.Tfloat (depth - 1),
             gen_expr g A.Tfloat (depth - 1) ))
    | A.Tbool ->
      (match Random.State.int g.rng 6 with
       | 0 ->
         A.Ebinop
           ( A.Ocmp (pick g [ A.Ceq; A.Cne; A.Clt; A.Cle; A.Cgt; A.Cge ]),
             gen_expr g A.Tint (depth - 1), gen_expr g A.Tint (depth - 1) )
       | 1 | 2 ->
         A.Ebinop
           ( A.Ofcmp (pick g [ A.Ceq; A.Cne; A.Clt; A.Cle; A.Cgt; A.Cge ]),
             gen_expr g A.Tfloat (depth - 1), gen_expr g A.Tfloat (depth - 1) )
       | 3 ->
         A.Ebinop
           ( pick g [ A.Oband; A.Obor ],
             gen_expr g A.Tbool (depth - 1), gen_expr g A.Tbool (depth - 1) )
       | 4 -> A.Eunop (A.Onot, gen_expr g A.Tbool (depth - 1))
       | _ ->
         A.Econd
           ( gen_expr g A.Tbool (depth - 1),
             gen_expr g A.Tbool (depth - 1), gen_expr g A.Tbool (depth - 1) ))

(* A provably in-range index for [arr]: masked, constant, or an
   in-range initialized counter variable is too hard to prove here, so
   mask or constant only (array sizes are powers of two). *)
and gen_index (g : genv) (arr : A.array_def) (depth : int) : A.expr =
  let n = List.length arr.A.arr_init in
  if chance g 40 then A.Econst_int (Int32.of_int (Random.State.int g.rng n))
  else
    A.Ebinop
      (A.Oand, gen_expr g A.Tint depth, A.Econst_int (Int32.of_int (n - 1)))

let rec gen_stmt (g : genv) (depth : int) : A.stmt =
  match Random.State.int g.rng 12 with
  | 0 | 1 | 2 ->
    (* assignment to a (possibly fresh) local *)
    let t = pick g [ A.Tint; A.Tfloat; A.Tfloat; A.Tbool ] in
    let x =
      if chance g 50 && assignable_locals g t <> [] then
        pick g (assignable_locals g t)
      else fresh_local g t
    in
    let e = gen_expr g t 3 in
    g.initialized <- x :: g.initialized;
    A.Sassign (x, e)
  | 3 ->
    let x, t = pick g g.globals in
    A.Sglobassign (x, gen_expr g t 3)
  | 4 when g.arrays <> [] ->
    let arr = pick g g.arrays in
    A.Sstore
      (arr.A.arr_name, gen_index g arr 2, gen_expr g arr.A.arr_elt 2)
  | 5 when g.vol_outs <> [] ->
    let x, t = pick g g.vol_outs in
    A.Svolstore (x, gen_expr g t 2)
  | 6 when depth > 0 ->
    A.Sif (gen_expr g A.Tbool 2, gen_block g (depth - 1), gen_block g (depth - 1))
  | 7 when depth > 0 ->
    (* counted for loop, constant bounds; the counter is readable but
       protected against assignment in the body (MISRA 13.6) *)
    let i = fresh_local g A.Tint in
    g.initialized <- i :: g.initialized;
    g.protected <- i :: g.protected;
    let lo = Random.State.int g.rng 3 in
    let hi = lo + Random.State.int g.rng 6 in
    let body = gen_block g (depth - 1) in
    g.protected <- List.filter (fun x -> x <> i) g.protected;
    A.Sfor
      (i, A.Econst_int (Int32.of_int lo), A.Econst_int (Int32.of_int hi), body)
  | 8 when depth > 0 ->
    (* while loop with an explicit counter: exercises the slot/register
       counter detection of the bound analysis *)
    let i = fresh_local g A.Tint in
    g.initialized <- i :: g.initialized;
    g.protected <- i :: g.protected;
    let bound = 1 + Random.State.int g.rng 5 in
    let body = gen_block g 0 in
    g.protected <- List.filter (fun x -> x <> i) g.protected;
    A.Sseq
      ( A.Sassign (i, A.Econst_int 0l),
        A.Swhile
          ( A.Ebinop (A.Ocmp A.Clt, A.Evar i, A.Econst_int (Int32.of_int bound)),
            A.Sseq
              ( body,
                A.Sassign (i, A.Ebinop (A.Oadd, A.Evar i, A.Econst_int 1l)) ) ) )
  | 9 ->
    (* annotation over an int or float value *)
    let args =
      if chance g 50 && initialized_locals g A.Tint <> [] then
        [ A.Evar (pick g (initialized_locals g A.Tint)) ]
      else [ A.Econst_int (small_int g) ]
    in
    A.Sannot ("checkpoint %1", args)
  | _ ->
    let t = pick g [ A.Tfloat; A.Tint ] in
    let x = fresh_local g t in
    let e = gen_expr g t 3 in
    (* mark initialized only after generating the right-hand side *)
    g.initialized <- x :: g.initialized;
    A.Sassign (x, e)

and gen_block (g : genv) (depth : int) : A.stmt =
  let n = 1 + Random.State.int g.rng 4 in
  let saved_init = g.initialized in
  let stmts = ref [] in
  for _ = 1 to n do
    stmts := gen_stmt g depth :: !stmts
  done;
  (* locals initialized inside conditional blocks may not be
     initialized on other paths: restore the initialized set, keeping
     only what was known before (conservative) *)
  g.initialized <- saved_init;
  List.fold_left (fun acc s -> A.Sseq (acc, s)) A.Sskip (List.rev !stmts)

(* Generate a whole program. *)
let gen_program ?(size = 12) (seed : int) : A.program =
  let rng = Random.State.make [| seed; 0xBEEF |] in
  let g =
    { rng;
      globals =
        [ ("g_f1", A.Tfloat); ("g_f2", A.Tfloat); ("g_i1", A.Tint);
          ("g_b1", A.Tbool) ];
      arrays =
        [ { A.arr_name = "t_f"; arr_elt = A.Tfloat;
            arr_init = List.init 8 (fun i -> float_of_int i *. 0.5) };
          { A.arr_name = "t_i"; arr_elt = A.Tint;
            arr_init = List.init 4 (fun i -> float_of_int (i * 3)) } ];
      vol_ins = [ "sens_a"; "sens_b" ];
      vol_outs = [ ("act_a", A.Tfloat); ("act_b", A.Tbool) ];
      locals = [];
      initialized = [];
      protected = [];
      fresh = 0 }
  in
  let stmts = ref [] in
  for _ = 1 to size do
    stmts := gen_stmt g 2 :: !stmts
  done;
  let stmts = List.rev !stmts in
  let body = List.fold_left (fun acc s -> A.Sseq (acc, s)) A.Sskip stmts in
  let ret_t = pick g [ None; Some A.Tfloat; Some A.Tint ] in
  let body =
    match ret_t with
    | None -> body
    | Some t -> A.Sseq (body, A.Sreturn (Some (gen_expr g t 2)))
  in
  { A.prog_globals = g.globals;
    prog_arrays = g.arrays;
    prog_volatiles =
      List.map (fun v -> (v, A.Tfloat, A.Vol_in)) g.vol_ins
      @ List.map (fun (v, t) -> (v, t, A.Vol_out)) g.vol_outs;
    prog_funcs =
      [ { A.fn_name = "prop_main";
          fn_params = [];
          fn_locals = List.rev g.locals;
          fn_ret = ret_t;
          fn_body = body } ];
    prog_main = "prop_main" }

(* ---- random machine code ----

   Instruction sequences for the oracles of the timing model and the
   analysis-cache key: every constructor of [Target.Asm.instr], over
   few registers (so operands collide and windows overlap), a small
   symbol and volatile pool, and pool constants that include both
   zeros. They need not be meaningful programs. *)

module Asm = Target.Asm

let asm_syms = [ "g_a"; "g_b"; "t_c"; "s_d" ]
let asm_vols = [ "sig_a"; "sig_b"; "act_c" ]
let asm_consts = [ 0.0; -0.0; 1.5; -2.25; 1e300; Float.nan ]
let asm_texts = [ "loopbound 4"; "0 <= %1 <= 8"; "" ]

let asm_instr : Asm.instr QCheck.Gen.t =
 fun st ->
  let int n = Random.State.int st n in
  let one xs = List.nth xs (int (List.length xs)) in
  (* mostly r0..r5 (r1 is the stack pointer), sometimes any of 32 *)
  let r () = if int 4 = 0 then int 32 else int 6 in
  let imm () = Int32.of_int (int 64 - 32) in
  let lbl () = int 4 in
  let cond () =
    let b = one [ Asm.CRlt; Asm.CRgt; Asm.CReq ] in
    if int 2 = 0 then Asm.BT b else Asm.BF b
  in
  let addr () =
    match int 4 with
    | 0 -> Asm.Aind (r (), imm ())
    | 1 -> Asm.Aindx (r (), r ())
    | 2 -> Asm.Aglob (one asm_syms, imm ())
    | _ -> Asm.Asda (one asm_syms, imm ())
  in
  let annot_arg () =
    match int 6 with
    | 0 -> Asm.AA_ireg (r ())
    | 1 -> Asm.AA_freg (r ())
    | 2 -> Asm.AA_const_int (imm ())
    | 3 -> Asm.AA_const_float (one asm_consts)
    | 4 -> Asm.AA_stack_int (imm ())
    | _ -> Asm.AA_stack_float (imm ())
  in
  match int 49 with
  | 0 -> Asm.Plabel (lbl ())
  | 1 -> Asm.Pb (lbl ())
  | 2 -> Asm.Pbc (cond (), lbl ())
  | 3 -> Asm.Pblr
  | 4 -> Asm.Pannot (one asm_texts, List.init (int 3) (fun _ -> annot_arg ()))
  | 5 -> Asm.Padd (r (), r (), r ())
  | 6 -> Asm.Psubf (r (), r (), r ())
  | 7 -> Asm.Pmullw (r (), r (), r ())
  | 8 -> Asm.Pdivw (r (), r (), r ())
  | 9 -> Asm.Pand (r (), r (), r ())
  | 10 -> Asm.Por (r (), r (), r ())
  | 11 -> Asm.Pxor (r (), r (), r ())
  | 12 -> Asm.Pslw (r (), r (), r ())
  | 13 -> Asm.Psraw (r (), r (), r ())
  | 14 -> Asm.Pneg (r (), r ())
  | 15 -> Asm.Pmr (r (), r ())
  | 16 -> Asm.Paddi (r (), r (), imm ())
  | 17 -> Asm.Paddis (r (), r (), imm ())
  | 18 -> Asm.Pori (r (), r (), imm ())
  | 19 -> Asm.Pslwi (r (), r (), int 32)
  | 20 -> Asm.Plwz (r (), addr ())
  | 21 -> Asm.Pstw (r (), addr ())
  | 22 -> Asm.Plfd (r (), addr ())
  | 23 -> Asm.Pstfd (r (), addr ())
  | 24 -> Asm.Plfdc (r (), one asm_consts)
  | 25 -> Asm.Pla (r (), one asm_syms)
  | 26 -> Asm.Pcmpw (r (), r ())
  | 27 -> Asm.Pcmpwi (r (), imm ())
  | 28 -> Asm.Pfcmpu (r (), r ())
  | 29 -> Asm.Psetcc (r (), cond ())
  | 30 -> Asm.Pmovcc (r (), r (), cond ())
  | 31 -> Asm.Pfmovcc (r (), r (), cond ())
  | 32 -> Asm.Pfadd (r (), r (), r ())
  | 33 -> Asm.Pfsub (r (), r (), r ())
  | 34 -> Asm.Pfmul (r (), r (), r ())
  | 35 -> Asm.Pfdiv (r (), r (), r ())
  | 36 -> Asm.Pfmadd (r (), r (), r (), r ())
  | 37 -> Asm.Pfmsub (r (), r (), r (), r ())
  | 38 -> Asm.Pfneg (r (), r ())
  | 39 -> Asm.Pfabs (r (), r ())
  | 40 -> Asm.Pfmr (r (), r ())
  | 41 -> Asm.Pfcfiw (r (), r ())
  | 42 -> Asm.Pfctiwz (r (), r ())
  | 43 -> Asm.Pacqi (r (), one asm_vols)
  | 44 -> Asm.Pacqf (r (), one asm_vols)
  | 45 -> Asm.Pouti (one asm_vols, r ())
  | 46 -> Asm.Poutf (one asm_vols, r ())
  | 47 -> Asm.Pallocframe (8 * int 8)
  | _ -> Asm.Pfreeframe (8 * int 8)

let asm_code : Asm.instr list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 1 80) asm_instr)
