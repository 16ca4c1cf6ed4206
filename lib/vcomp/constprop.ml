(* Constant propagation over RTL: forward dataflow analysis on the flat
   lattice of values, followed by code rewriting, as in CompCert's
   Constprop pass.

   Folding reuses [Rtl_interp.eval_operation], i.e. the exact dynamic
   semantics, so a folded operation is correct by construction (same
   IEEE-754 float results, same total division). Conditions on constant
   arguments turn into unconditional jumps; annotation arguments that
   became constants are rewritten to [RA_cint]/[RA_cfloat], which is how
   constants reach the emitted annotation comments of the paper.

   The fixpoint is [Regmap.forward] over one [Rtl.walk]: in- and
   out-environments in arrays by node, instructions and predecessors
   from the walk. A join keeps the registers both sides bind to the
   same constant, and skips the subtrees the two environments share. *)

(* Flat lattice: Unknown (bottom, unreached) < constants < Top. *)
type approx =
  | Vtop
  | Vcint of int32
  | Vcfloat of float

let approx_equal (a : approx) (b : approx) : bool =
  match a, b with
  | Vtop, Vtop -> true
  | Vcint x, Vcint y -> Int32.equal x y
  | Vcfloat x, Vcfloat y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Vtop | Vcint _ | Vcfloat _), _ -> false

(* Abstract environment: registers absent from the map are Top, and the
   map never binds Top, so it holds only the constants — one
   representation per abstract value. (Registers never written before
   use are parameters or garbage; Top is the sound default.) *)
type aenv = approx Regmap.t

let get (env : aenv) (r : Rtl.reg) : approx =
  Option.value ~default:Vtop (Regmap.find r env)

let set (env : aenv) (r : Rtl.reg) (a : approx) : aenv =
  match a with
  | Vtop -> Regmap.remove r env
  | Vcint _ | Vcfloat _ -> Regmap.add r a env

let value_of_approx (a : approx) : Minic.Value.t option =
  match a with
  | Vcint n -> Some (Minic.Value.Vint n)
  | Vcfloat f -> Some (Minic.Value.Vfloat f)
  | Vtop -> None

let approx_of_value (v : Minic.Value.t) : approx =
  match v with
  | Minic.Value.Vint n -> Vcint n
  | Minic.Value.Vfloat f -> Vcfloat f
  | Minic.Value.Vbool b -> Vcint (if b then 1l else 0l)

(* Abstract evaluation of an operation. *)
let eval_op_abstract (op : Rtl.operation) (args : approx list) : approx =
  let concrete_args =
    List.fold_right
      (fun a acc ->
         match acc, value_of_approx a with
         | Some vs, Some v -> Some (v :: vs)
         | _, _ -> None)
      args (Some [])
  in
  match op, concrete_args with
  | Rtl.Ointconst n, _ -> Vcint n
  | Rtl.Ofloatconst f, _ -> Vcfloat f
  | _, Some vs ->
    (try approx_of_value (Rtl_interp.eval_operation op vs)
     with Rtl_interp.Stuck _ -> Vtop)
  | _, None -> Vtop

(* Abstract evaluation of a condition: Some b when statically decided. *)
let eval_cond_abstract (c : Rtl.condition) (args : approx list) : bool option =
  let concrete =
    List.fold_right
      (fun a acc ->
         match acc, value_of_approx a with
         | Some vs, Some v -> Some (v :: vs)
         | _, _ -> None)
      args (Some [])
  in
  match concrete with
  | Some vs ->
    (try Some (Rtl_interp.eval_condition c vs) with Rtl_interp.Stuck _ -> None)
  | None -> None

let transfer (i : Rtl.instruction) (env : aenv) : aenv =
  match i with
  | Rtl.Iop (op, args, d, _) ->
    set env d (eval_op_abstract op (List.map (fun r -> get env r) args))
  | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) -> Regmap.remove d env
  | Rtl.Inop _ | Rtl.Istore _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _
  | Rtl.Ireturn _ -> env

(* Forward fixpoint: in_env(n) for every reachable node, by node. *)
let analyze (f : Rtl.func) (w : Rtl.walk) : aenv array =
  Option.get
    (Regmap.forward ~eq:approx_equal ~fuel:max_int ~entry:f.Rtl.f_entry
       ~entry_env:Regmap.empty ~transfer:(fun _ i e -> transfer i e) w)

(* Rewrite the function in place using the analysis results. An
   immediate must fit the 16-bit signed field of [addi]. *)
let transform_func (f : Rtl.func) : unit =
  let w = Rtl.walk f in
  let in_env = analyze f w in
  let small c = c > -32000l && c < 32000l in
  Array.iter
    (fun n ->
       let approx_of r = get in_env.(n) r in
       match w.Rtl.w_code.(n) with
       | Rtl.Iop (op, args, d, s) ->
         let result = eval_op_abstract op (List.map approx_of args) in
         (match result, op with
          | Vcint c, (Rtl.Ointconst _ | Rtl.Ofloatconst _) ->
            ignore c (* already a constant; leave as is *)
          | Vcint c, _ ->
            Rtl.set_instr f n (Rtl.Iop (Rtl.Ointconst c, [], d, s))
          | Vcfloat c, Rtl.Ofloatconst _ -> ignore c
          | Vcfloat c, _ ->
            Rtl.set_instr f n (Rtl.Iop (Rtl.Ofloatconst c, [], d, s))
          | Vtop, _ ->
            (* strength reduction: add/sub with one constant arg *)
            (match op, args with
             | Rtl.Oadd, [ a; b ] ->
               (match approx_of a, approx_of b with
                | Vcint c, _ when small c ->
                  Rtl.set_instr f n (Rtl.Iop (Rtl.Oaddimm c, [ b ], d, s))
                | _, Vcint c when small c ->
                  Rtl.set_instr f n (Rtl.Iop (Rtl.Oaddimm c, [ a ], d, s))
                | _, _ -> ())
             | Rtl.Osub, [ a; b ] ->
               (match approx_of b with
                | Vcint c when small c ->
                  Rtl.set_instr f n
                    (Rtl.Iop (Rtl.Oaddimm (Int32.neg c), [ a ], d, s))
                | _ -> ())
             | _, _ -> ()))
       | Rtl.Icond (c, args, s1, s2) ->
         (match eval_cond_abstract c (List.map approx_of args) with
          | Some true -> Rtl.set_instr f n (Rtl.Inop s1)
          | Some false -> Rtl.set_instr f n (Rtl.Inop s2)
          | None -> ())
       | Rtl.Iannot (text, aargs, s) ->
         let aargs' =
           List.map
             (fun a ->
                match a with
                | Rtl.RA_reg r ->
                  (match approx_of r with
                   | Vcint c -> Rtl.RA_cint c
                   | Vcfloat c -> Rtl.RA_cfloat c
                   | Vtop -> a)
                | Rtl.RA_cint _ | Rtl.RA_cfloat _ -> a)
             aargs
         in
         Rtl.set_instr f n (Rtl.Iannot (text, aargs', s))
       | Rtl.Inop _ | Rtl.Iload _ | Rtl.Istore _ | Rtl.Iacq _ | Rtl.Iout _
       | Rtl.Ireturn _ -> ())
    w.Rtl.w_order

let transform (p : Rtl.program) : Rtl.program =
  List.iter transform_func p.Rtl.p_funcs;
  p
