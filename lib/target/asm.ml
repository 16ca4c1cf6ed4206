(* The target machine: a PPC755-flavoured instruction set in the style
   of CompCert's PowerPC Asm language — a small subset of real PPC
   augmented with CompCert-like pseudo-instructions (constant-pool
   loads, conditional moves, frame handling, MMIO acquisitions and the
   pro-forma annotation marker of paper section 3.4).

   Everything downstream — both compilers, the simulator, the WCET
   analyzer — speaks this one type. *)

type ireg = int  (* r0..r31; r0 reads as literal 0 in addi/addis bases *)
type freg = int  (* f0..f31 *)
type label = int

(* ---- register conventions (EABI-ish, function-call free) ----

   The generated programs never contain calls (flight-control nodes are
   fully inlined by the ACG), so there is no caller/callee-save split;
   the conventions only fix parameter arrival (r3.., f1..), return
   registers (r3 / f1) and which registers compilers may allocate
   freely versus keep as emission scratch. *)

let sp = 1

let int_scratch = 2    (* remainder expansion *)
let int_scratch1 = 11  (* address formation, spill reloads *)
let int_scratch2 = 12  (* second reload / setcc combination *)
let float_scratch1 = 12
let float_scratch2 = 13

(* Palette of the graph-coloring allocator (vcomp). The COTS compiler
   uses fixed sub-ranges of the same palette (expression stack r3-r10 /
   f1-f11, locals r14-r27 / f14-f28, loop limits r28-r31, hoisted
   constants f29-f31). *)
let allocatable_iregs : int list =
  [ 3; 4; 5; 6; 7; 8; 9; 10 ] @ List.init 18 (fun i -> 14 + i)

let allocatable_fregs : int list =
  List.init 11 (fun i -> 1 + i) @ List.init 15 (fun i -> 14 + i)

(* ---- condition register (CR0) conditions ---- *)

type crbit = CRlt | CRgt | CReq

type branch_cond =
  | BT of crbit  (* branch if bit set *)
  | BF of crbit  (* branch if bit clear *)

let negate_cond (c : branch_cond) : branch_cond =
  match c with BT b -> BF b | BF b -> BT b

(* Condition bit satisfied after [cmpw a, b] when [a cmp b] holds. *)
let cond_of_cmp (c : Minic.Ast.comparison) : branch_cond =
  match c with
  | Minic.Ast.Ceq -> BT CReq
  | Minic.Ast.Cne -> BF CReq
  | Minic.Ast.Clt -> BT CRlt
  | Minic.Ast.Cge -> BF CRlt
  | Minic.Ast.Cgt -> BT CRgt
  | Minic.Ast.Cle -> BF CRgt

(* Float comparisons via [fcmpu]: on unordered operands (NaN) no CR bit
   is set, so the IEEE behaviour — every ordered comparison false, <>
   true — falls out of testing the positive bits only. A disjunction
   (two conditions) encodes <= and >=. *)
let fconds_of_cmp (c : Minic.Ast.comparison) : branch_cond list =
  match c with
  | Minic.Ast.Ceq -> [ BT CReq ]
  | Minic.Ast.Cne -> [ BF CReq ]
  | Minic.Ast.Clt -> [ BT CRlt ]
  | Minic.Ast.Cgt -> [ BT CRgt ]
  | Minic.Ast.Cle -> [ BT CRlt; BT CReq ]
  | Minic.Ast.Cge -> [ BT CRgt; BT CReq ]

(* ---- addressing modes ---- *)

type address =
  | Aind of ireg * int32    (* register + 16-bit displacement *)
  | Aindx of ireg * ireg    (* register + register *)
  | Aglob of string * int32 (* absolute symbol + displacement (pseudo) *)
  | Asda of string * int32  (* small-data-area symbol (r13-relative) *)

(* ---- annotation arguments (paper section 3.4) ---- *)

type annot_arg =
  | AA_ireg of ireg
  | AA_freg of freg
  | AA_const_int of int32
  | AA_const_float of float
  | AA_stack_int of int32   (* sp-relative slot holding an int *)
  | AA_stack_float of int32

(* ---- instructions ---- *)

type instr =
  (* control *)
  | Plabel of label
  | Pb of label
  | Pbc of branch_cond * label
  | Pblr
  | Pannot of string * annot_arg list
  (* integer ALU *)
  | Padd of ireg * ireg * ireg
  | Psubf of ireg * ireg * ireg  (* subtract-from: d := rb - ra *)
  | Pmullw of ireg * ireg * ireg
  | Pdivw of ireg * ireg * ireg  (* total: x/0 = 0, INT_MIN / -1 = 0 *)
  | Pand of ireg * ireg * ireg
  | Por of ireg * ireg * ireg
  | Pxor of ireg * ireg * ireg
  | Pslw of ireg * ireg * ireg   (* shift amount masked to 5 bits *)
  | Psraw of ireg * ireg * ireg
  | Pneg of ireg * ireg
  | Pmr of ireg * ireg
  | Paddi of ireg * ireg * int32  (* base r0 reads as 0 *)
  | Paddis of ireg * ireg * int32
  | Pori of ireg * ireg * int32
  | Pslwi of ireg * ireg * int
  (* memory *)
  | Plwz of ireg * address
  | Pstw of ireg * address
  | Plfd of freg * address
  | Pstfd of freg * address
  | Plfdc of freg * float        (* constant-pool load (pseudo) *)
  | Pla of ireg * string         (* load symbol address (pseudo) *)
  (* compares, set/move on condition *)
  | Pcmpw of ireg * ireg
  | Pcmpwi of ireg * int32
  | Pfcmpu of freg * freg
  | Psetcc of ireg * branch_cond          (* d := cond ? 1 : 0 (pseudo) *)
  | Pmovcc of ireg * ireg * branch_cond   (* if cond then d := s *)
  | Pfmovcc of freg * freg * branch_cond
  (* float arithmetic *)
  | Pfadd of freg * freg * freg
  | Pfsub of freg * freg * freg
  | Pfmul of freg * freg * freg
  | Pfdiv of freg * freg * freg
  | Pfmadd of freg * freg * freg * freg  (* d := a*b + c, single rounding *)
  | Pfmsub of freg * freg * freg * freg  (* d := a*b - c *)
  | Pfneg of freg * freg
  | Pfabs of freg * freg
  | Pfmr of freg * freg
  | Pfcfiw of freg * ireg   (* float of signed int *)
  | Pfctiwz of ireg * freg  (* int of float, truncating, saturating *)
  (* volatile MMIO (observable) *)
  | Pacqi of ireg * string   (* acquire integer/boolean signal *)
  | Pacqf of freg * string
  | Pouti of string * ireg   (* actuator command *)
  | Poutf of string * freg
  (* frame handling *)
  | Pallocframe of int
  | Pfreeframe of int

type func = { fn_name : string; fn_code : instr list }

type program = { pr_funcs : func list; pr_main : string }

(* ---- sizes ----

   Labels and annotations occupy no code bytes; pseudo-instructions
   that expand to two real instructions (immediate-pair constant
   formation, cr-bit extraction, MMIO sequences) take 8 bytes; plain
   instructions take 4. The sizes feed block addresses, hence the
   instruction-cache analysis. *)

let instr_size (i : instr) : int =
  match i with
  | Plabel _ | Pannot _ -> 0
  | Plfdc _ | Pla _ | Psetcc _ | Pmovcc _ | Pfmovcc _
  | Pacqi _ | Pacqf _ | Pouti _ | Poutf _ -> 8
  | _ -> 4

let func_size (f : func) : int =
  List.fold_left (fun acc i -> acc + instr_size i) 0 f.fn_code

let program_size (p : program) : int =
  List.fold_left (fun acc f -> acc + func_size f) 0 p.pr_funcs

let find_func (p : program) (name : string) : func option =
  List.find_opt (fun f -> String.equal f.fn_name name) p.pr_funcs

(* ---- def/use sets (scheduling, loop-bound analysis, timing) ----

   Register sets are bit masks, bit [n] for register n of the class (32
   of each), split by class: [idefs_mask i] holds the integer registers
   [i] writes, [fuses_mask i] the float registers it reads, and so on.
   Testing one register is one [land], and nothing allocates. *)

(* One register of either class, as a value (the stored register of a
   store, in [Wcet.Smt]'s store-to-load forwarding). *)
type reg = IR of int | FR of int

let bit (r : int) : int = 1 lsl r

let addr_mask (a : address) : int =
  match a with
  | Aind (b, _) -> bit b
  | Aindx (b, x) -> bit b lor bit x
  | Aglob _ | Asda _ -> 0

let idefs_mask (i : instr) : int =
  match i with
  | Padd (d, _, _) | Psubf (d, _, _) | Pmullw (d, _, _) | Pdivw (d, _, _)
  | Pand (d, _, _) | Por (d, _, _) | Pxor (d, _, _) | Pslw (d, _, _)
  | Psraw (d, _, _) | Pneg (d, _) | Pmr (d, _) | Paddi (d, _, _)
  | Paddis (d, _, _) | Pori (d, _, _) | Pslwi (d, _, _) | Plwz (d, _)
  | Pla (d, _) | Psetcc (d, _) | Pmovcc (d, _, _) | Pacqi (d, _)
  | Pfctiwz (d, _) -> bit d
  | Pallocframe _ | Pfreeframe _ -> bit sp
  | Plfd _ | Plfdc _ | Pfadd _ | Pfsub _ | Pfmul _ | Pfdiv _ | Pfmadd _
  | Pfmsub _ | Pfneg _ | Pfabs _ | Pfmr _ | Pfmovcc _ | Pacqf _ | Pfcfiw _
  | Pstw _ | Pstfd _ | Pouti _ | Poutf _ | Pcmpw _ | Pcmpwi _ | Pfcmpu _
  | Pannot _ | Plabel _ | Pb _ | Pbc _ | Pblr -> 0

let fdefs_mask (i : instr) : int =
  match i with
  | Plfd (d, _) | Plfdc (d, _) | Pfadd (d, _, _) | Pfsub (d, _, _)
  | Pfmul (d, _, _) | Pfdiv (d, _, _) | Pfmadd (d, _, _, _)
  | Pfmsub (d, _, _, _) | Pfneg (d, _) | Pfabs (d, _) | Pfmr (d, _)
  | Pfmovcc (d, _, _) | Pacqf (d, _) | Pfcfiw (d, _) -> bit d
  | Padd _ | Psubf _ | Pmullw _ | Pdivw _ | Pand _ | Por _ | Pxor _
  | Pslw _ | Psraw _ | Pneg _ | Pmr _ | Paddi _ | Paddis _ | Pori _
  | Pslwi _ | Plwz _ | Pla _ | Psetcc _ | Pmovcc _ | Pacqi _ | Pfctiwz _
  | Pallocframe _ | Pfreeframe _ | Pstw _ | Pstfd _ | Pouti _ | Poutf _
  | Pcmpw _ | Pcmpwi _ | Pfcmpu _ | Pannot _ | Plabel _ | Pb _ | Pbc _
  | Pblr -> 0

let iuses_mask (i : instr) : int =
  match i with
  | Padd (_, a, b) | Psubf (_, a, b) | Pmullw (_, a, b) | Pdivw (_, a, b)
  | Pand (_, a, b) | Por (_, a, b) | Pxor (_, a, b) | Pslw (_, a, b)
  | Psraw (_, a, b) | Pcmpw (a, b) | Pmovcc (a, b, _) -> bit a lor bit b
  | Pneg (_, a) | Pmr (_, a) | Pori (_, a, _) | Pslwi (_, a, _)
  | Pcmpwi (a, _) | Pfcfiw (_, a) | Pouti (_, a) -> bit a
  | Paddi (_, a, _) | Paddis (_, a, _) -> if a = 0 then 0 else bit a
  | Plwz (_, a) | Plfd (_, a) | Pstfd (_, a) -> addr_mask a
  | Pstw (s, a) -> bit s lor addr_mask a
  | Pannot (_, args) ->
    List.fold_left
      (fun m a -> match a with AA_ireg r -> m lor bit r | _ -> m)
      0 args
  | Pallocframe _ | Pfreeframe _ -> bit sp
  | Pfmovcc _ | Pfadd _ | Pfsub _ | Pfmul _ | Pfdiv _ | Pfcmpu _
  | Pfmadd _ | Pfmsub _ | Pfneg _ | Pfabs _ | Pfmr _ | Pfctiwz _
  | Poutf _ | Plfdc _ | Pla _ | Psetcc _ | Pacqi _ | Pacqf _ | Plabel _
  | Pb _ | Pbc _ | Pblr -> 0

let fuses_mask (i : instr) : int =
  match i with
  | Pstfd (s, _) -> bit s
  | Pfmovcc (a, b, _) | Pfadd (_, a, b) | Pfsub (_, a, b)
  | Pfmul (_, a, b) | Pfdiv (_, a, b) | Pfcmpu (a, b) -> bit a lor bit b
  | Pfmadd (_, a, b, c) | Pfmsub (_, a, b, c) -> bit a lor bit b lor bit c
  | Pfneg (_, a) | Pfabs (_, a) | Pfmr (_, a) | Pfctiwz (_, a)
  | Poutf (_, a) -> bit a
  | Pannot (_, args) ->
    List.fold_left
      (fun m a -> match a with AA_freg f -> m lor bit f | _ -> m)
      0 args
  | Padd _ | Psubf _ | Pmullw _ | Pdivw _ | Pand _ | Por _ | Pxor _
  | Pslw _ | Psraw _ | Pcmpw _ | Pmovcc _ | Pneg _ | Pmr _ | Pori _
  | Pslwi _ | Pcmpwi _ | Pfcfiw _ | Pouti _ | Paddi _ | Paddis _ | Plwz _
  | Plfd _ | Pstw _ | Pallocframe _ | Pfreeframe _ | Plfdc _ | Pla _
  | Psetcc _ | Pacqi _ | Pacqf _ | Plabel _ | Pb _ | Pbc _ | Pblr -> 0
