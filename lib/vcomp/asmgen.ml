(* Linearization of allocated RTL into target assembly.

   The pass orders reachable nodes in reverse postorder (tunneling Inop
   chains), lays out fall-through edges, and expands each RTL
   instruction into machine instructions using the register allocation:
   pseudo-registers colored to machine registers become direct operands;
   spilled pseudo-registers are reloaded into the reserved scratch
   registers around each use.

   Condition emission is careful about IEEE float comparisons: le/ge
   compile to two condition-bit branches (lt-or-eq / gt-or-eq) so that
   NaN operands fall through to the false branch, matching the source
   semantics exactly. *)

module Asm = Target.Asm

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let slot_offset (s : int) : int32 = Int32.of_int (8 + (8 * s))

let frame_size (nslots : int) : int =
  if nslots = 0 then 0 else (8 + (8 * nslots) + 15) / 16 * 16

type ctx = {
  cx_func : Rtl.func;
  cx_alloc : Regalloc.result;
  cx_buf : Asm.instr list ref; (* reversed *)
}

let emit (cx : ctx) (i : Asm.instr) : unit = cx.cx_buf := i :: !(cx.cx_buf)

let loc_of (cx : ctx) (r : Rtl.reg) : Regalloc.loc =
  Regalloc.location cx.cx_alloc r

(* Read an integer pseudo-register; returns the machine register holding
   it, reloading spilled values into the given scratch. *)
let read_ireg (cx : ctx) ?(scratch = Asm.int_scratch1) (r : Rtl.reg) : Asm.ireg =
  match loc_of cx r with
  | Regalloc.Lireg m -> m
  | Regalloc.Lslot s ->
    emit cx (Asm.Plwz (scratch, Asm.Aind (Asm.sp, slot_offset s)));
    scratch
  | Regalloc.Lfreg _ -> fail "integer register expected for x%d" r

let read_freg (cx : ctx) ?(scratch = Asm.float_scratch1) (r : Rtl.reg) : Asm.freg =
  match loc_of cx r with
  | Regalloc.Lfreg m -> m
  | Regalloc.Lslot s ->
    emit cx (Asm.Plfd (scratch, Asm.Aind (Asm.sp, slot_offset s)));
    scratch
  | Regalloc.Lireg _ -> fail "float register expected for x%d" r

(* Destination handling: returns the machine register to compute into and
   a "finish" continuation that spills it if needed. *)
let dest_ireg (cx : ctx) (r : Rtl.reg) : Asm.ireg * (unit -> unit) =
  match loc_of cx r with
  | Regalloc.Lireg m -> (m, fun () -> ())
  | Regalloc.Lslot s ->
    ( Asm.int_scratch1,
      fun () ->
        emit cx
          (Asm.Pstw (Asm.int_scratch1, Asm.Aind (Asm.sp, slot_offset s))) )
  | Regalloc.Lfreg _ -> fail "integer destination expected for x%d" r

let dest_freg (cx : ctx) (r : Rtl.reg) : Asm.freg * (unit -> unit) =
  match loc_of cx r with
  | Regalloc.Lfreg m -> (m, fun () -> ())
  | Regalloc.Lslot s ->
    ( Asm.float_scratch1,
      fun () ->
        emit cx
          (Asm.Pstfd (Asm.float_scratch1, Asm.Aind (Asm.sp, slot_offset s))) )
  | Regalloc.Lireg _ -> fail "float destination expected for x%d" r

let fits_simm16 (n : int32) : bool =
  Int32.compare n (-32768l) >= 0 && Int32.compare n 32767l <= 0

(* Load a 32-bit constant into an integer register. *)
let emit_intconst (cx : ctx) (d : Asm.ireg) (n : int32) : unit =
  if fits_simm16 n then emit cx (Asm.Paddi (d, 0, n))
  else begin
    let lo = Int32.logand n 0xFFFFl in
    let hi = Int32.logand (Int32.shift_right_logical n 16) 0xFFFFl in
    emit cx (Asm.Paddis (d, 0, hi));
    if not (Int32.equal lo 0l) then emit cx (Asm.Pori (d, d, lo))
  end

(* Materialize a CR0 test disjunction into 0/1 in register [d]. *)
let emit_setcc_list (cx : ctx) (d : Asm.ireg) (conds : Asm.branch_cond list) :
  unit =
  match conds with
  | [ c ] -> emit cx (Asm.Psetcc (d, c))
  | [ c1; c2 ] ->
    emit cx (Asm.Psetcc (d, c1));
    emit cx (Asm.Psetcc (Asm.int_scratch2, c2));
    emit cx (Asm.Por (d, d, Asm.int_scratch2))
  | _ -> fail "emit_setcc_list: bad condition list"

(* Expand one Iop. *)
let emit_op (cx : ctx) (op : Rtl.operation) (args : Rtl.reg list)
    (dst : Rtl.reg) : unit =
  let f = cx.cx_func in
  match op, args with
  | Rtl.Omove, [ s ] ->
    (match Rtl.reg_class f dst with
     | Rtl.Cint ->
       let d, fin = dest_ireg cx dst in
       let s = read_ireg cx s ~scratch:d in
       if s <> d then emit cx (Asm.Pmr (d, s));
       fin ()
     | Rtl.Cfloat ->
       let d, fin = dest_freg cx dst in
       let s = read_freg cx s ~scratch:d in
       if s <> d then emit cx (Asm.Pfmr (d, s));
       fin ())
  | Rtl.Ointconst n, [] ->
    let d, fin = dest_ireg cx dst in
    emit_intconst cx d n;
    fin ()
  | Rtl.Ofloatconst c, [] ->
    let d, fin = dest_freg cx dst in
    emit cx (Asm.Plfdc (d, c));
    fin ()
  | (Rtl.Oadd | Rtl.Osub | Rtl.Omul | Rtl.Odivs | Rtl.Oand | Rtl.Oor
    | Rtl.Oxor | Rtl.Oshl | Rtl.Oshr), [ a; b ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let rb = read_ireg cx b ~scratch:Asm.int_scratch2 in
    let d, fin = dest_ireg cx dst in
    (match op with
     | Rtl.Oadd -> emit cx (Asm.Padd (d, ra, rb))
     | Rtl.Osub -> emit cx (Asm.Psubf (d, rb, ra)) (* d = ra - rb *)
     | Rtl.Omul -> emit cx (Asm.Pmullw (d, ra, rb))
     | Rtl.Odivs -> emit cx (Asm.Pdivw (d, ra, rb))
     | Rtl.Oand -> emit cx (Asm.Pand (d, ra, rb))
     | Rtl.Oor -> emit cx (Asm.Por (d, ra, rb))
     | Rtl.Oxor -> emit cx (Asm.Pxor (d, ra, rb))
     | Rtl.Oshl -> emit cx (Asm.Pslw (d, ra, rb))
     | Rtl.Oshr -> emit cx (Asm.Psraw (d, ra, rb))
     | _ -> assert false);
    fin ()
  | Rtl.Omods, [ a; b ] ->
    (* a mod b = a - (a / b) * b, total per Minic.Value.rem32; the
       division result lives in a scratch register. *)
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let rb = read_ireg cx b ~scratch:Asm.int_scratch2 in
    emit cx (Asm.Pdivw (Asm.int_scratch, ra, rb));
    emit cx (Asm.Pmullw (Asm.int_scratch, Asm.int_scratch, rb));
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Psubf (d, Asm.int_scratch, ra));
    fin ()
  | Rtl.Oshlimm k, [ a ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Pslwi (d, ra, k));
    fin ()
  | Rtl.Oaddimm k, [ a ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Paddi (d, ra, k));
    fin ()
  | Rtl.Oneg, [ a ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Pneg (d, ra));
    fin ()
  | Rtl.Onotbool, [ a ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Pcmpwi (ra, 0l));
    emit cx (Asm.Psetcc (d, Asm.BT Asm.CReq));
    fin ()
  | (Rtl.Ofadd | Rtl.Ofsub | Rtl.Ofmul | Rtl.Ofdiv), [ a; b ] ->
    let ra = read_freg cx a ~scratch:Asm.float_scratch1 in
    let rb = read_freg cx b ~scratch:Asm.float_scratch2 in
    let d, fin = dest_freg cx dst in
    (match op with
     | Rtl.Ofadd -> emit cx (Asm.Pfadd (d, ra, rb))
     | Rtl.Ofsub -> emit cx (Asm.Pfsub (d, ra, rb))
     | Rtl.Ofmul -> emit cx (Asm.Pfmul (d, ra, rb))
     | Rtl.Ofdiv -> emit cx (Asm.Pfdiv (d, ra, rb))
     | _ -> assert false);
    fin ()
  | Rtl.Ofneg, [ a ] ->
    let ra = read_freg cx a ~scratch:Asm.float_scratch1 in
    let d, fin = dest_freg cx dst in
    emit cx (Asm.Pfneg (d, ra));
    fin ()
  | Rtl.Ofabs, [ a ] ->
    let ra = read_freg cx a ~scratch:Asm.float_scratch1 in
    let d, fin = dest_freg cx dst in
    emit cx (Asm.Pfabs (d, ra));
    fin ()
  | Rtl.Ofloatofint, [ a ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let d, fin = dest_freg cx dst in
    emit cx (Asm.Pfcfiw (d, ra));
    fin ()
  | Rtl.Ointoffloat, [ a ] ->
    let ra = read_freg cx a ~scratch:Asm.float_scratch1 in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Pfctiwz (d, ra));
    fin ()
  | Rtl.Ocmp c, [ a; b ] ->
    let ra = read_ireg cx a ~scratch:Asm.int_scratch1 in
    let rb = read_ireg cx b ~scratch:Asm.int_scratch2 in
    emit cx (Asm.Pcmpw (ra, rb));
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Psetcc (d, Asm.cond_of_cmp c));
    fin ()
  | Rtl.Ofcmp c, [ a; b ] ->
    let ra = read_freg cx a ~scratch:Asm.float_scratch1 in
    let rb = read_freg cx b ~scratch:Asm.float_scratch2 in
    emit cx (Asm.Pfcmpu (ra, rb));
    let d, fin = dest_ireg cx dst in
    emit_setcc_list cx d (Asm.fconds_of_cmp c);
    fin ()
  | _, _ -> fail "emit_op: malformed %s" (Rtl.string_of_operation op)

(* Global addressing: the verified-style compiler does not use small
   data areas (as noted in the paper, CompCert's SDA support was not
   used in the evaluation), so scalars go through [Aglob]. *)
let emit_load (cx : ctx) (chunk : Rtl.chunk) (addr : Rtl.addressing)
    (args : Rtl.reg list) (dst : Rtl.reg) : unit =
  let mk_addr () : Asm.address =
    match addr, args with
    | Rtl.ADglob g, [] -> Asm.Aglob (g, 0l)
    | Rtl.ADarr g, [ roff ] ->
      let ro = read_ireg cx roff ~scratch:Asm.int_scratch2 in
      emit cx (Asm.Pla (Asm.int_scratch1, g));
      Asm.Aindx (Asm.int_scratch1, ro)
    | _, _ -> fail "emit_load: malformed addressing"
  in
  match chunk with
  | Rtl.Mint32 ->
    let a = mk_addr () in
    let d, fin = dest_ireg cx dst in
    emit cx (Asm.Plwz (d, a));
    fin ()
  | Rtl.Mfloat64 ->
    let a = mk_addr () in
    let d, fin = dest_freg cx dst in
    emit cx (Asm.Plfd (d, a));
    fin ()

let emit_store (cx : ctx) (chunk : Rtl.chunk) (addr : Rtl.addressing)
    (args : Rtl.reg list) (src : Rtl.reg) : unit =
  match chunk with
  | Rtl.Mint32 ->
    let s = read_ireg cx src ~scratch:Asm.int_scratch2 in
    (match addr, args with
     | Rtl.ADglob g, [] -> emit cx (Asm.Pstw (s, Asm.Aglob (g, 0l)))
     | Rtl.ADarr g, [ roff ] ->
       let ro = read_ireg cx roff ~scratch:Asm.int_scratch in
       emit cx (Asm.Pla (Asm.int_scratch1, g));
       emit cx (Asm.Pstw (s, Asm.Aindx (Asm.int_scratch1, ro)))
     | _, _ -> fail "emit_store: malformed addressing")
  | Rtl.Mfloat64 ->
    let s = read_freg cx src ~scratch:Asm.float_scratch2 in
    (match addr, args with
     | Rtl.ADglob g, [] -> emit cx (Asm.Pstfd (s, Asm.Aglob (g, 0l)))
     | Rtl.ADarr g, [ roff ] ->
       let ro = read_ireg cx roff ~scratch:Asm.int_scratch2 in
       emit cx (Asm.Pla (Asm.int_scratch1, g));
       emit cx (Asm.Pstfd (s, Asm.Aindx (Asm.int_scratch1, ro)))
     | _, _ -> fail "emit_store: malformed addressing")

let annot_arg_of (cx : ctx) (f : Rtl.func) (a : Rtl.annot_arg) : Asm.annot_arg =
  match a with
  | Rtl.RA_cint n -> Asm.AA_const_int n
  | Rtl.RA_cfloat c -> Asm.AA_const_float c
  | Rtl.RA_reg r ->
    (match loc_of cx r with
     | Regalloc.Lireg m -> Asm.AA_ireg m
     | Regalloc.Lfreg m -> Asm.AA_freg m
     | Regalloc.Lslot s ->
       (match Rtl.reg_class f r with
        | Rtl.Cint -> Asm.AA_stack_int (slot_offset s)
        | Rtl.Cfloat -> Asm.AA_stack_float (slot_offset s)))

(* ---- parallel moves at function entry ----------------------------- *)

(* Move each parameter from its EABI arrival register to its allocated
   location without clobbering pending sources. Slot destinations are
   never sources; register destinations may be, so we emit "safe" moves
   first and break cycles through a scratch register. *)
type pmove = {
  pm_src : Regalloc.loc; (* always Lireg/Lfreg: arrival register *)
  pm_dst : Regalloc.loc;
}

let emit_loc_move (cx : ctx) (src : Regalloc.loc) (dst : Regalloc.loc) : unit =
  match src, dst with
  | Regalloc.Lireg s, Regalloc.Lireg d ->
    if s <> d then emit cx (Asm.Pmr (d, s))
  | Regalloc.Lfreg s, Regalloc.Lfreg d ->
    if s <> d then emit cx (Asm.Pfmr (d, s))
  | Regalloc.Lireg s, Regalloc.Lslot sl ->
    emit cx (Asm.Pstw (s, Asm.Aind (Asm.sp, slot_offset sl)))
  | Regalloc.Lfreg s, Regalloc.Lslot sl ->
    emit cx (Asm.Pstfd (s, Asm.Aind (Asm.sp, slot_offset sl)))
  | _, _ -> fail "emit_loc_move: malformed move"

let rec emit_parallel_moves (cx : ctx) (pending : pmove list) : unit =
  (* a move is safe once no pending move still reads its destination,
     or when it moves a location onto itself *)
  let safe m =
    Regalloc.loc_equal m.pm_src m.pm_dst
    || not (List.exists (fun m' -> Regalloc.loc_equal m'.pm_src m.pm_dst) pending)
  in
  match List.find_opt safe pending, pending with
  | Some m, _ ->
    emit_loc_move cx m.pm_src m.pm_dst;
    emit_parallel_moves cx (List.filter (fun m' -> m' != m) pending)
  | None, [] -> ()
  | None, m :: rest ->
    (* cycle: break it by saving one source to scratch *)
    let src =
      match m.pm_src with
      | Regalloc.Lireg s ->
        emit cx (Asm.Pmr (Asm.int_scratch1, s));
        Regalloc.Lireg Asm.int_scratch1
      | Regalloc.Lfreg s ->
        emit cx (Asm.Pfmr (Asm.float_scratch1, s));
        Regalloc.Lfreg Asm.float_scratch1
      | Regalloc.Lslot _ -> fail "slot source in parallel move"
    in
    emit_parallel_moves cx ({ m with pm_src = src } :: rest)

(* ---- linearization ------------------------------------------------- *)

let translate_func (f : Rtl.func) : Asm.func =
  let lv = Liveness.analyze f in
  let alloc = Regalloc.allocate f lv in
  (match Regalloc.verify f lv alloc with
   | Ok () -> ()
   | Error msg -> fail "register allocation validator rejected %s: %s" f.Rtl.f_name msg);
  let fsize = frame_size alloc.Regalloc.ra_nslots in
  let cx = { cx_func = f; cx_alloc = alloc; cx_buf = ref [] } in
  (* [target.(n)]: the node a jump to [n] lands on, past [Inop] chains;
     -1 until known, -2 while its chain is being followed. A chain that
     runs into itself lands on the node that closes the cycle, which is
     laid out as a branch to itself. *)
  let target = Array.make (Rtl.node_bound f) (-1) in
  let rec resolve (n : Rtl.node) : Rtl.node =
    if target.(n) >= 0 then target.(n)
    else
      match Liveness.instr lv n with
      | Rtl.Inop s ->
        target.(n) <- -2;
        let t = if target.(s) = -2 then s else resolve s in
        target.(n) <- t;
        t
      | _ ->
        target.(n) <- n;
        n
  in
  (* layout order: reverse postorder over resolved nodes, the entry's
     resolved target first *)
  let entry = resolve f.Rtl.f_entry in
  let rest = ref [] in
  Liveness.iter_nodes lv (fun n _ ->
      if n <> entry && resolve n = n then rest := n :: !rest);
  let order = Array.of_list (entry :: List.rev !rest) in
  let next_of (i : int) : Rtl.node option =
    if i + 1 < Array.length order then Some order.(i + 1) else None
  in
  (* which nodes need labels *)
  let needs_label = Bytes.make (Array.length target) '\000' in
  let label n = Bytes.set needs_label n '\001' in
  Array.iteri
    (fun idx n ->
       match Liveness.instr lv n with
       | Rtl.Icond (_, _, s1, s2) ->
         (* both targets need labels: two-condition float branches jump
            to the taken target by label even when it is the next block *)
         label (resolve s1);
         label (resolve s2)
       | i ->
         Rtl.iter_successors
           (fun s -> if next_of idx <> Some (resolve s) then label (resolve s))
           i)
    order;
  (* prologue *)
  if fsize > 0 then emit cx (Asm.Pallocframe fsize);
  let moves =
    let next_i = ref 3 and next_f = ref 1 in
    List.map
      (fun (r, c) ->
         let src =
           match c with
           | Rtl.Cint ->
             let s = !next_i in
             incr next_i;
             Regalloc.Lireg s
           | Rtl.Cfloat ->
             let s = !next_f in
             incr next_f;
             Regalloc.Lfreg s
         in
         { pm_src = src; pm_dst = Regalloc.location alloc r })
      f.Rtl.f_params
  in
  emit_parallel_moves cx moves;
  Array.iteri
    (fun i n ->
       if Bytes.get needs_label n <> '\000' then emit cx (Asm.Plabel n);
       let instr = Liveness.instr lv n in
       (match instr with
        | Rtl.Inop _ -> () (* a cycle of [Inop]s: the branch below *)
        | Rtl.Iop (op, args, d, _) -> emit_op cx op args d
        | Rtl.Iload (chunk, addr, args, d, _) -> emit_load cx chunk addr args d
        | Rtl.Istore (chunk, addr, args, src, _) ->
          emit_store cx chunk addr args src
        | Rtl.Iacq (x, d, _) ->
          (match Rtl.reg_class f d with
           | Rtl.Cfloat ->
             let m, fin = dest_freg cx d in
             emit cx (Asm.Pacqf (m, x));
             fin ()
           | Rtl.Cint ->
             let m, fin = dest_ireg cx d in
             emit cx (Asm.Pacqi (m, x));
             fin ())
        | Rtl.Iout (x, src, _) ->
          (match Rtl.reg_class f src with
           | Rtl.Cfloat ->
             let m = read_freg cx src ~scratch:Asm.float_scratch1 in
             emit cx (Asm.Poutf (x, m))
           | Rtl.Cint ->
             let m = read_ireg cx src ~scratch:Asm.int_scratch1 in
             emit cx (Asm.Pouti (x, m)))
        | Rtl.Iannot (text, aargs, _) ->
          emit cx (Asm.Pannot (text, List.map (annot_arg_of cx f) aargs))
        | Rtl.Icond (c, args, s1, s2) ->
          let conds =
            match c with
            | Rtl.Ccomp cmp ->
              let ra = read_ireg cx (List.nth args 0) ~scratch:Asm.int_scratch1 in
              let rb = read_ireg cx (List.nth args 1) ~scratch:Asm.int_scratch2 in
              emit cx (Asm.Pcmpw (ra, rb));
              [ Asm.cond_of_cmp cmp ]
            | Rtl.Ccompimm (cmp, imm) ->
              let ra = read_ireg cx (List.nth args 0) ~scratch:Asm.int_scratch1 in
              if fits_simm16 imm then emit cx (Asm.Pcmpwi (ra, imm))
              else begin
                emit_intconst cx Asm.int_scratch2 imm;
                emit cx (Asm.Pcmpw (ra, Asm.int_scratch2))
              end;
              [ Asm.cond_of_cmp cmp ]
            | Rtl.Cfcomp cmp ->
              let ra = read_freg cx (List.nth args 0) ~scratch:Asm.float_scratch1 in
              let rb = read_freg cx (List.nth args 1) ~scratch:Asm.float_scratch2 in
              emit cx (Asm.Pfcmpu (ra, rb));
              Asm.fconds_of_cmp cmp
          in
          let s1 = resolve s1 and s2 = resolve s2 in
          let next = next_of i in
          (match conds with
           | [ c1 ] ->
             if next = Some s1 then emit cx (Asm.Pbc (Asm.negate_cond c1, s2))
             else begin
               emit cx (Asm.Pbc (c1, s1));
               if next <> Some s2 then emit cx (Asm.Pb s2)
             end
           | cs ->
             List.iter (fun cc -> emit cx (Asm.Pbc (cc, s1))) cs;
             if next <> Some s2 then emit cx (Asm.Pb s2))
        | Rtl.Ireturn ret ->
          (match ret, f.Rtl.f_ret with
           | Some r, Some Minic.Ast.Tfloat ->
             let m = read_freg cx r ~scratch:1 in
             if m <> 1 then emit cx (Asm.Pfmr (1, m))
           | Some r, (Some Minic.Ast.Tint | Some Minic.Ast.Tbool) ->
             let m = read_ireg cx r ~scratch:3 in
             if m <> 3 then emit cx (Asm.Pmr (3, m))
           | Some _, None | None, Some _ | None, None -> ());
          if fsize > 0 then emit cx (Asm.Pfreeframe fsize);
          emit cx Asm.Pblr);
       (* fall-through repair for straight-line successors *)
       match instr with
       | Rtl.Icond _ | Rtl.Ireturn _ -> ()
       | _ ->
         Rtl.iter_successors
           (fun s -> if next_of i <> Some (resolve s) then emit cx (Asm.Pb (resolve s)))
           instr)
    order;
  { Asm.fn_name = f.Rtl.f_name; fn_code = List.rev !(cx.cx_buf) }

let translate_program (p : Rtl.program) : Asm.program =
  { Asm.pr_funcs = List.map translate_func p.Rtl.p_funcs;
    pr_main = p.Rtl.p_main }
