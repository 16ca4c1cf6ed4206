(* Value analysis: interval-based abstract interpretation of the machine
   code, at basic-block granularity with branch refinement and widening
   at join points. Corresponds to aiT's "value analysis" phase: it
   delivers the register and stack-slot contents used by the loop-bound
   analysis and the access addresses used by the data-cache analysis.

   Abstract values distinguish pure integers from symbol- and
   stack-relative addresses, so that every load/store resolves to a
   region (stack slot, global, array, constant pool) or is reported as
   imprecise. *)

module Asm = Target.Asm
module Intmap = Flow.Intmap

type absval =
  | Vint of Interval.t            (* plain 32-bit data *)
  | Vsym of string * Interval.t   (* address of symbol + offset *)
  | Vsp of Interval.t             (* stack pointer + offset (from entry sp) *)
  | Vtop                          (* anything, including unknown addresses *)

let vint_top = Vint Interval.top

let absval_equal (a : absval) (b : absval) : bool =
  match a, b with
  | Vint x, Vint y -> Interval.equal x y
  | Vsym (s1, x), Vsym (s2, y) -> String.equal s1 s2 && Interval.equal x y
  | Vsp x, Vsp y -> Interval.equal x y
  | Vtop, Vtop -> true
  | (Vint _ | Vsym _ | Vsp _ | Vtop), _ -> false

(* [b] over-approximates [a]: their join is [b]. *)
let absval_leq (a : absval) (b : absval) : bool =
  match a, b with
  | _, Vtop -> true
  | Vint x, Vint y | Vsp x, Vsp y -> Interval.leq x y
  | Vsym (s1, x), Vsym (s2, y) -> String.equal s1 s2 && Interval.leq x y
  | (Vint _ | Vsym _ | Vsp _ | Vtop), _ -> false

(* The join and the widening return an argument itself when the result
   equals it, as [Interval]'s do. *)
let join_absval (a : absval) (b : absval) : absval =
  match a, b with
  | Vint x, Vint y ->
    let z = Interval.join x y in
    if z == x then a else if z == y then b else Vint z
  | Vsym (s1, x), Vsym (s2, y) when String.equal s1 s2 ->
    let z = Interval.join x y in
    if z == x then a else if z == y then b else Vsym (s1, z)
  | Vsp x, Vsp y ->
    let z = Interval.join x y in
    if z == x then a else if z == y then b else Vsp z
  | _, _ -> Vtop

let widen_absval (old_v : absval) (new_v : absval) : absval =
  match old_v, new_v with
  | Vint x, Vint y ->
    let z = Interval.widen x y in
    if z == x then old_v else Vint z
  | Vsym (s1, x), Vsym (s2, y) when String.equal s1 s2 ->
    let z = Interval.widen x y in
    if z == x then old_v else Vsym (s1, z)
  | Vsp x, Vsp y ->
    let z = Interval.widen x y in
    if z == x then old_v else Vsp z
  | _, _ -> if absval_equal old_v new_v then old_v else Vtop

(* Abstract machine state: integer registers and stack slots (keyed by
   offset from the *entry* value of sp). Float registers carry no
   analysis information (loop guards are integer — MISRA rule 13.4).
   Both live in shared Patricia maps, so a register write rebuilds one
   path and a join or an order test skips what both states share. A
   register absent from [regs] is [Vtop], and [regs] never binds [Vtop],
   so equal states have one shape. A slot absent from [slots] reads as
   [vint_top], which differs from a [Vtop] binding (a slot a float
   occupies, or one known on one side of a join only). *)
type state = {
  regs : absval Intmap.t;
  slots : absval Intmap.t;
}

let get_reg (st : state) (r : Asm.ireg) : absval =
  match Intmap.find_opt r st.regs with
  | Some v -> v
  | None -> Vtop

let set_reg (st : state) (r : Asm.ireg) (v : absval) : state =
  let regs =
    match v with
    | Vtop -> Intmap.remove r st.regs
    | Vint _ | Vsym _ | Vsp _ -> Intmap.add r v st.regs
  in
  if regs == st.regs then st else { st with regs }

let find_slot (st : state) (key : int) : absval option =
  Intmap.find_opt key st.slots

let set_slot (st : state) (key : int) (v : absval) : state =
  { st with slots = Intmap.add key v st.slots }

let init_state : state =
  set_reg
    (set_reg { regs = Intmap.empty; slots = Intmap.empty } Asm.sp
       (Vsp (Interval.of_int_const 0)))
    0 vint_top

let state_equal (a : state) (b : state) : bool =
  a == b
  || (Intmap.equal absval_equal a.regs b.regs
      && Intmap.equal absval_equal a.slots b.slots)

(* Registers only one side binds are [Vtop] on the other, and so in the
   result; a slot only one side binds becomes a [Vtop] binding. *)
let combine (f : absval -> absval -> absval) (a : state) (b : state) : state =
  let regs =
    Intmap.inter
      (fun _ x y ->
         match f x y with
         | Vtop -> None
         | v -> Some v)
      a.regs b.regs
  and slots =
    Intmap.merge
      (fun _ x y ->
         match x, y with
         | Some x, Some y -> Some (f x y)
         | Some _, None | None, Some _ | None, None -> Some Vtop)
      a.slots b.slots
  in
  if regs == a.regs && slots == a.slots then a
  else if regs == b.regs && slots == b.slots then b
  else { regs; slots }

let join_state (a : state) (b : state) : state = combine join_absval a b

let widen_state (old_s : state) (new_s : state) : state =
  combine widen_absval old_s new_s

(* [b] over-approximates [a]: their join is [b]. *)
let state_leq (a : state) (b : state) : bool =
  a == b
  || Intmap.leq
       (fun _ x y ->
          match x, y with
          | Some x, Some y -> absval_leq x y
          | _, None -> true
          | None, Some _ -> false)
       a.regs b.regs
     && Intmap.leq
          (fun _ x y ->
             match x, y with
             | Some x, Some y -> absval_leq x y
             | Some _, None -> false
             | None, Some y -> y = Vtop
             | None, None -> true)
          a.slots b.slots

(* Exact stack-slot key of an address, if statically known. *)
let slot_key (st : state) (a : Asm.address) : int option =
  match a with
  | Asm.Aind (b, off) ->
    (match get_reg st b with
     | Vsp itv ->
       (match Interval.is_const itv with
        | Some sp_off -> Some (sp_off + Int32.to_int off)
        | None -> None)
     | Vint _ | Vsym _ | Vtop -> None)
  | Asm.Aindx _ | Asm.Aglob _ | Asm.Asda _ -> None

(* Resolved memory region of an access. *)
type region =
  | Rslot of int                       (* exact stack slot (sp0-relative) *)
  | Rstack of Interval.t               (* imprecise stack range *)
  | Rsym of string * Interval.t        (* symbol + byte-offset interval *)
  | Rpool of float                     (* constant pool entry *)
  | Runknown

let region_of_address (st : state) (a : Asm.address) : region =
  match a with
  | Asm.Aglob (s, off) | Asm.Asda (s, off) ->
    Rsym (s, Interval.of_const off)
  | Asm.Aind (b, off) ->
    (match get_reg st b with
     | Vsp itv ->
       let shifted = Interval.add itv (Interval.of_const off) in
       (match Interval.is_const shifted with
        | Some k -> Rslot k
        | None -> Rstack shifted)
     | Vsym (s, itv) -> Rsym (s, Interval.add itv (Interval.of_const off))
     | Vint _ | Vtop -> Runknown)
  | Asm.Aindx (b, x) ->
    (match get_reg st b, get_reg st x with
     | Vsym (s, itv), Vint i -> Rsym (s, Interval.add itv i)
     | Vsym (s, itv), Vtop -> Rsym (s, Interval.add itv Interval.top)
     | Vsp itv, Vint i ->
       let r = Interval.add itv i in
       (match Interval.is_const r with
        | Some k -> Rslot k
        | None -> Rstack r)
     | Vint i, Vsym (s, itv) -> Rsym (s, Interval.add itv i)
     | _, _ -> Runknown)

let eval_addi (base : absval) (imm : int) : absval =
  let itv_imm = Interval.of_int_const imm in
  match base with
  | Vint i -> Vint (Interval.add i itv_imm)
  | Vsym (s, i) -> Vsym (s, Interval.add i itv_imm)
  | Vsp i -> Vsp (Interval.add i itv_imm)
  | Vtop -> Vtop

let eval_add (a : absval) (b : absval) : absval =
  match a, b with
  | Vint x, Vint y -> Vint (Interval.add x y)
  | Vsym (s, x), Vint y | Vint y, Vsym (s, x) -> Vsym (s, Interval.add x y)
  | Vsp x, Vint y | Vint y, Vsp x -> Vsp (Interval.add x y)
  | _, _ -> Vtop

let eval_sub (a : absval) (b : absval) : absval =
  (* a - b *)
  match a, b with
  | Vint x, Vint y -> Vint (Interval.sub x y)
  | Vsym (s, x), Vint y -> Vsym (s, Interval.sub x y)
  | Vsp x, Vint y -> Vsp (Interval.sub x y)
  | Vsym (s1, x), Vsym (s2, y) when String.equal s1 s2 ->
    Vint (Interval.sub x y)
  | Vsp x, Vsp y -> Vint (Interval.sub x y)
  | _, _ -> Vtop

let as_int_itv (v : absval) : Interval.t =
  match v with
  | Vint i -> i
  | Vsym _ | Vsp _ | Vtop -> Interval.top

(* Annotation handling: a value-range annotation constrains the (single)
   argument's location at this program point. Two source forms are
   understood:
     __builtin_annotation("range 0 359", x)
     __builtin_annotation("0 <= %1 <= 359", x)   (paper section 3.4 style)
   The %1 placeholder is substituted by the final location at emission;
   the analyzer works on the pre-substitution text plus the argument. *)
let parse_range_annot (text : string) : (int * int) option =
  let words =
    List.filter
      (fun s -> not (String.equal s ""))
      (String.split_on_char ' ' (String.trim text))
  in
  match words with
  | [ "range"; lo; hi ] | [ lo; "<="; "%1"; "<="; hi ] ->
    (match int_of_string_opt lo, int_of_string_opt hi with
     | Some l, Some h when l <= h -> Some (l, h)
     | _, _ -> None)
  | _ -> None

let apply_annot (st : state) (text : string) (args : Asm.annot_arg list) :
  state =
  match parse_range_annot text, args with
  | Some (lo, hi), [ Asm.AA_ireg r ] ->
    let refined =
      match Interval.meet (as_int_itv (get_reg st r)) (Interval.make lo hi) with
      | Some itv -> Vint itv
      | None -> Vint (Interval.make lo hi) (* contradiction: trust annotation *)
    in
    set_reg st r refined
  | Some (lo, hi), [ Asm.AA_stack_int off ] ->
    (match slot_key st (Asm.Aind (Asm.sp, off)) with
     | Some key -> set_slot st key (Vint (Interval.make lo hi))
     | None -> st)
  | _, _ -> st

(* Transfer function of a single instruction. *)
let transfer (st : state) (i : Asm.instr) : state =
  match i with
  | Asm.Plabel _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr -> st
  | Asm.Pannot (text, args) -> apply_annot st text args
  | Asm.Padd (d, a, b) -> set_reg st d (eval_add (get_reg st a) (get_reg st b))
  | Asm.Psubf (d, a, b) -> set_reg st d (eval_sub (get_reg st b) (get_reg st a))
  | Asm.Pmullw (d, a, b) ->
    set_reg st d
      (Vint (Interval.mul (as_int_itv (get_reg st a)) (as_int_itv (get_reg st b))))
  | Asm.Pdivw (d, _, _) -> set_reg st d vint_top
  | Asm.Pand (d, _, _) | Asm.Por (d, _, _) | Asm.Pxor (d, _, _)
  | Asm.Pslw (d, _, _) | Asm.Psraw (d, _, _) -> set_reg st d vint_top
  | Asm.Pneg (d, a) -> set_reg st d (Vint (Interval.neg (as_int_itv (get_reg st a))))
  | Asm.Pmr (d, a) -> set_reg st d (get_reg st a)
  | Asm.Paddi (d, a, imm) ->
    let base = if a = 0 then Vint (Interval.of_int_const 0) else get_reg st a in
    set_reg st d (eval_addi base (Int32.to_int imm))
  | Asm.Paddis (d, a, imm) ->
    let base = if a = 0 then Vint (Interval.of_int_const 0) else get_reg st a in
    let imm16 = Int32.to_int imm * 65536 in
    (match eval_addi base imm16 with
     | v -> set_reg st d v)
  | Asm.Pori (d, a, imm) ->
    (match get_reg st a with
     | Vint itv ->
       (match Interval.is_const itv with
        | Some v ->
          let result = v lor Int32.to_int imm in
          set_reg st d
            (if Interval.in_range result then Vint (Interval.of_int_const result)
             else vint_top)
        | None -> set_reg st d vint_top)
     | _ -> set_reg st d vint_top)
  | Asm.Pslwi (d, a, k) ->
    set_reg st d (Vint (Interval.shift_left_const (as_int_itv (get_reg st a)) k))
  | Asm.Plwz (d, a) ->
    (match slot_key st a with
     | Some key ->
       (match find_slot st key with
        | Some v -> set_reg st d v
        | None -> set_reg st d vint_top)
     | None -> set_reg st d vint_top)
  | Asm.Pstw (s, a) ->
    (match slot_key st a with
     | Some key -> set_slot st key (get_reg st s)
     | None ->
       (match region_of_address st a with
        | Rstack _ | Runknown ->
          (* imprecise store that may hit the stack: kill all slots *)
          { st with slots = Intmap.empty }
        | Rslot _ | Rsym _ | Rpool _ -> st))
  | Asm.Plfd _ | Asm.Pfadd _ | Asm.Pfsub _ | Asm.Pfmul _ | Asm.Pfdiv _
  | Asm.Pfneg _ | Asm.Pfabs _ | Asm.Pfmr _ | Asm.Plfdc _ | Asm.Pfcfiw _
  | Asm.Pfmadd _ | Asm.Pfmsub _
  | Asm.Pacqf _ | Asm.Poutf _ -> st
  | Asm.Pstfd (_, a) ->
    (match slot_key st a with
     | Some key ->
       (* a float occupies the slot: integer reads would be malformed *)
       set_slot st key Vtop
     | None ->
       (match region_of_address st a with
        | Rstack _ | Runknown -> { st with slots = Intmap.empty }
        | Rslot _ | Rsym _ | Rpool _ -> st))
  | Asm.Pcmpw _ | Asm.Pcmpwi _ | Asm.Pfcmpu _ -> st
  | Asm.Psetcc (d, _) -> set_reg st d (Vint (Interval.make 0 1))
  | Asm.Pfctiwz (d, _) -> set_reg st d vint_top
  | Asm.Pacqi (d, _) -> set_reg st d vint_top
  | Asm.Pouti _ -> st
  | Asm.Pla (d, sym) -> set_reg st d (Vsym (sym, Interval.of_int_const 0))
  | Asm.Pmovcc (d, s, _) -> set_reg st d (join_absval (get_reg st d) (get_reg st s))
  | Asm.Pfmovcc _ -> st
  | Asm.Pallocframe sz ->
    (match get_reg st Asm.sp with
     | Vsp itv ->
       set_reg st Asm.sp (Vsp (Interval.sub itv (Interval.of_int_const sz)))
     | _ -> set_reg st Asm.sp Vtop)
  | Asm.Pfreeframe sz ->
    (match get_reg st Asm.sp with
     | Vsp itv ->
       set_reg st Asm.sp (Vsp (Interval.add itv (Interval.of_int_const sz)))
     | _ -> set_reg st Asm.sp Vtop)

(* The comparison guarding a block's conditional exit: scans backwards
   from the end of the block for the Pcmpw/Pcmpwi feeding the final Pbc.
   Returns (left operand as register, right operand description). *)
type cmp_operand =
  | CmpReg of Asm.ireg
  | CmpImm of int32

let block_compare (blk : Cfg.block) : (Asm.ireg * cmp_operand) option =
  let n = Array.length blk.Cfg.b_instrs in
  let rec scan i =
    if i < 0 then None
    else
      match blk.Cfg.b_instrs.(i) with
      | Asm.Pcmpw (a, b) -> Some (a, CmpReg b)
      | Asm.Pcmpwi (a, imm) -> Some (a, CmpImm imm)
      | Asm.Pfcmpu _ -> None (* float guards are not loop-bound material *)
      | Asm.Pbc _ | Asm.Pannot _ -> scan (i - 1)
      | _ -> None
  in
  scan (n - 1)

(* The branch condition of the block's terminating Pbc, if any. *)
let block_branch_cond (blk : Cfg.block) : Asm.branch_cond option =
  let n = Array.length blk.Cfg.b_instrs in
  if n = 0 then None
  else
    match blk.Cfg.b_instrs.(n - 1) with
    | Asm.Pbc (c, _) -> Some c
    | _ -> None

(* Comparison satisfied on the taken edge of [Pbc cond] after
   cmpw(a, b): cond bit holds. *)
let comparison_of_cond (c : Asm.branch_cond) : Minic.Ast.comparison =
  match c with
  | Asm.BT Asm.CRlt -> Minic.Ast.Clt
  | Asm.BT Asm.CRgt -> Minic.Ast.Cgt
  | Asm.BT Asm.CReq -> Minic.Ast.Ceq
  | Asm.BF Asm.CRlt -> Minic.Ast.Cge
  | Asm.BF Asm.CRgt -> Minic.Ast.Cle
  | Asm.BF Asm.CReq -> Minic.Ast.Cne

(* Refine [st] assuming the block's comparison holds with [cmp]. *)
let refine_state (st : state) (blk : Cfg.block) (cmp : Minic.Ast.comparison) :
  state =
  match block_compare blk with
  | None -> st
  | Some (left, right) ->
    let right_itv =
      match right with
      | CmpReg r -> as_int_itv (get_reg st r)
      | CmpImm imm -> Interval.of_const imm
    in
    let left_itv = as_int_itv (get_reg st left) in
    let st =
      match Interval.refine_cmp cmp left_itv right_itv with
      | Some itv when (match get_reg st left with Vint _ | Vtop -> true | _ -> false) ->
        set_reg st left (Vint itv)
      | _ -> st
    in
    (match right with
     | CmpReg r ->
       (match
          Interval.refine_cmp (Minic.Ast.swap_comparison cmp)
            (as_int_itv (get_reg st r)) left_itv
        with
        | Some itv when (match get_reg st r with Vint _ | Vtop -> true | _ -> false) ->
          set_reg st r (Vint itv)
        | _ -> st)
     | CmpImm _ -> st)

(* Run the transfer over a whole block. *)
let transfer_block (blk : Cfg.block) (st : state) : state =
  Array.fold_left transfer st blk.Cfg.b_instrs

(* Out-state along a given edge, with branch refinement. *)
let edge_state (blk : Cfg.block) (out_st : state) (kind : Cfg.edge_kind) :
  state =
  match block_branch_cond blk with
  | None -> out_st
  | Some c ->
    let cmp = comparison_of_cond c in
    (match kind with
     | Cfg.Etaken -> refine_state out_st blk cmp
     | Cfg.Efall ->
       refine_state out_st blk (Minic.Ast.negate_comparison cmp))

type result = {
  r_entry_states : state option array; (* per block; None = unreachable *)
  r_cfg : Cfg.t;
}

(* Joins at one block before its state is widened. *)
let widen_after = 3

(* Fixpoint with widening after [widen_after] joins at the same block,
   on the shared reverse-postorder worklist [Cfg.fixpoint]. Widening
   makes the result depend on the iteration order in principle; the
   test suite pins the reports of the flight program, so a change of
   order that moved a bound would show there. Widening bounds the chain
   height in theory; [fuel] bounds the worklist iterations
   unconditionally (one per processed block), so a transfer-function
   bug or a pathological CFG yields a refusal upstream, never a hang. *)
let analyze ?(fuel = Fuel.default.Fuel.fl_widen) (cfg : Cfg.t) : result =
  let visits = Array.make (Cfg.num_blocks cfg) 0 in
  let step b st_in =
    let blk = Cfg.block cfg b in
    let st_out = transfer_block blk st_in in
    List.map (fun (s, kind) -> (s, edge_state blk st_out kind)) blk.Cfg.b_succs
  in
  let merge s old st_edge =
    if state_leq st_edge old then None
    else begin
      let joined = join_state old st_edge in
      visits.(s) <- visits.(s) + 1;
      if visits.(s) > widen_after then Some (widen_state old joined)
      else Some joined
    end
  in
  { r_entry_states =
      Cfg.fixpoint ~fuel ~what:"value-analysis widening fixpoint" cfg
        init_state ~step ~merge;
    r_cfg = cfg }

(* [iter_block res b f] calls [f idx st instr] for each instruction of
   block [b] in order, [st] being the state just before it: one
   incremental walk per block. Nothing is called for an unreachable
   block. *)
let iter_block (res : result) (b : int) (f : int -> state -> Asm.instr -> unit)
  : unit =
  match res.r_entry_states.(b) with
  | None -> ()
  | Some st ->
    let cur = ref st in
    Array.iteri
      (fun idx i ->
         f idx !cur i;
         cur := transfer !cur i)
      (Cfg.block res.r_cfg b).Cfg.b_instrs

(* Post-fixpoint check, independent of the order, widening and visit
   counts that produced [res]: the entry block's state covers
   [init_state], and along every edge out of a reachable block the
   target's entry state absorbs the source's transfer. *)
let stable (cfg : Cfg.t) (res : result) : bool =
  let covers (e : state option) (st : state) =
    match e with
    | Some e -> state_leq st e
    | None -> false
  in
  let entries = res.r_entry_states in
  covers entries.(cfg.Cfg.c_entry) init_state
  && Seq.for_all
       (fun b ->
          match entries.(b) with
          | None -> true
          | Some st_in ->
            let blk = Cfg.block cfg b in
            let st_out = transfer_block blk st_in in
            List.for_all
              (fun (s, kind) -> covers entries.(s) (edge_state blk st_out kind))
              blk.Cfg.b_succs)
       (Seq.init (Cfg.num_blocks cfg) Fun.id)
