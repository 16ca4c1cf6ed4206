(* RTL: register transfer language, the optimization IR of the
   verified-style compiler, closely following CompCert's RTL.

   A function is a control-flow graph whose nodes each carry one
   instruction and the index of their successor(s). Values live in an
   unbounded supply of typed pseudo-registers; booleans are represented
   as the integers 0/1 (machine view). Optimization passes are CFG
   transformations; register allocation maps pseudo-registers to machine
   registers or stack slots.

   Nodes and pseudo-registers are small dense integers ([node_bound],
   [reg_bound]), so the analyses keep their per-node and per-register
   tables in arrays. [walk] gives, in one depth-first walk, what a
   dataflow pass reads about the CFG: the reachable nodes in reverse
   postorder, and their instructions and predecessors by node. *)

type reg = int
type node = int

(* Register class: which bank a pseudo-register will be allocated to. *)
type mclass =
  | Cint
  | Cfloat

type operation =
  | Omove
  | Ointconst of int32
  | Ofloatconst of float
  | Oadd
  | Osub
  | Omul
  | Odivs            (* signed division, total per Minic.Value.div32 *)
  | Omods
  | Oand
  | Oor
  | Oxor
  | Oshl
  | Oshr
  | Oshlimm of int   (* shift left by compile-time constant *)
  | Oaddimm of int32
  | Oneg
  | Onotbool         (* 0/1 -> 1/0 *)
  | Ofadd
  | Ofsub
  | Ofmul
  | Ofdiv
  | Ofneg
  | Ofabs
  | Ofloatofint
  | Ointoffloat
  | Ocmp of Minic.Ast.comparison   (* int x int -> 0/1 *)
  | Ofcmp of Minic.Ast.comparison  (* float x float -> 0/1 *)

type condition =
  | Ccomp of Minic.Ast.comparison      (* two int args *)
  | Ccompimm of Minic.Ast.comparison * int32 (* one int arg vs immediate *)
  | Cfcomp of Minic.Ast.comparison     (* two float args *)

type chunk =
  | Mint32
  | Mfloat64

(* Addressing modes for RTL memory accesses. *)
type addressing =
  | ADglob of string           (* global scalar; no register argument *)
  | ADarr of string            (* array base + one byte-offset register *)

(* Annotation argument before location assignment. *)
type annot_arg =
  | RA_reg of reg
  | RA_cint of int32
  | RA_cfloat of float

type instruction =
  | Inop of node
  | Iop of operation * reg list * reg * node
  | Iload of chunk * addressing * reg list * reg * node
  | Istore of chunk * addressing * reg list * reg * node
  | Icond of condition * reg list * node * node  (* if-so, if-not *)
  | Iacq of string * reg * node      (* volatile signal acquisition *)
  | Iout of string * reg * node      (* volatile actuator write *)
  | Iannot of string * annot_arg list * node
  | Ireturn of reg option

type func = {
  f_name : string;
  f_params : (reg * mclass) list;
  f_ret : Minic.Ast.typ option;  (* source return type, for the EABI *)
  f_entry : node;
  f_code : (node, instruction) Hashtbl.t;
  f_classes : (reg, mclass) Hashtbl.t;
  mutable f_next_reg : reg;
  mutable f_next_node : node;
}

let create_func (name : string) (ret : Minic.Ast.typ option) : func =
  { f_name = name;
    f_params = [];
    f_ret = ret;
    f_entry = 0;
    f_code = Hashtbl.create 251;
    f_classes = Hashtbl.create 251;
    f_next_reg = 1;
    f_next_node = 1 }

let fresh_reg (f : func) (c : mclass) : reg =
  let r = f.f_next_reg in
  f.f_next_reg <- r + 1;
  Hashtbl.replace f.f_classes r c;
  r

let reg_class (f : func) (r : reg) : mclass =
  match Hashtbl.find_opt f.f_classes r with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Rtl.reg_class: unknown register %d" r)

let class_of_typ (t : Minic.Ast.typ) : mclass =
  match t with
  | Minic.Ast.Tint | Minic.Ast.Tbool -> Cint
  | Minic.Ast.Tfloat -> Cfloat

let get_instr (f : func) (n : node) : instruction =
  match Hashtbl.find_opt f.f_code n with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Rtl.get_instr: no node %d" n)

let successors (i : instruction) : node list =
  match i with
  | Inop s
  | Iop (_, _, _, s)
  | Iload (_, _, _, _, s)
  | Istore (_, _, _, _, s)
  | Iacq (_, _, s)
  | Iout (_, _, s)
  | Iannot (_, _, s) -> [ s ]
  | Icond (_, _, s1, s2) -> [ s1; s2 ]
  | Ireturn _ -> []

(* Registers used (read) by an instruction. *)
let instr_uses (i : instruction) : reg list =
  match i with
  | Inop _ -> []
  | Iop (_, args, _, _) -> args
  | Iload (_, _, args, _, _) -> args
  | Istore (_, _, args, src, _) -> src :: args
  | Icond (_, args, _, _) -> args
  | Iacq (_, _, _) -> []
  | Iout (_, src, _) -> [ src ]
  | Iannot (_, args, _) ->
    List.filter_map
      (fun a -> match a with RA_reg r -> Some r | RA_cint _ | RA_cfloat _ -> None)
      args
  | Ireturn (Some r) -> [ r ]
  | Ireturn None -> []

(* Register defined (written) by an instruction, if any. *)
let instr_def (i : instruction) : reg option =
  match i with
  | Iop (_, _, d, _) | Iload (_, _, _, d, _) | Iacq (_, d, _) -> Some d
  | Inop _ | Istore _ | Icond _ | Iout _ | Iannot _ | Ireturn _ -> None

(* Raise [f_next_reg] above every register [i] reads or writes, so
   that [fresh_reg] never hands out one that code already names. This
   runs on every instruction the selection adds, so it matches on [i]
   rather than allocate [instr_uses]'s list. *)
let cover (f : func) (r : reg) : unit =
  if r >= f.f_next_reg then f.f_next_reg <- r + 1

let rec cover_list (f : func) (rs : reg list) : unit =
  match rs with
  | [] -> ()
  | r :: rs ->
    cover f r;
    cover_list f rs

let cover_regs (f : func) (i : instruction) : unit =
  match i with
  | Inop _ | Ireturn None -> ()
  | Iop (_, args, d, _) | Iload (_, _, args, d, _) ->
    cover_list f args;
    cover f d
  | Istore (_, _, args, src, _) ->
    cover_list f args;
    cover f src
  | Icond (_, args, _, _) -> cover_list f args
  | Iacq (_, r, _) | Iout (_, r, _) | Ireturn (Some r) -> cover f r
  | Iannot (_, _, _) -> cover_list f (instr_uses i)

(* Add an instruction on a fresh node; returns the node index. *)
let add_instr (f : func) (i : instruction) : node =
  let n = f.f_next_node in
  f.f_next_node <- n + 1;
  cover_regs f i;
  Hashtbl.replace f.f_code n i;
  n

(* Put [i] at node [n], which need not come from [add_instr]: the
   counters move past it, so [add_instr] never returns a node in use. *)
let set_instr (f : func) (n : node) (i : instruction) : unit =
  if n >= f.f_next_node then f.f_next_node <- n + 1;
  cover_regs f i;
  Hashtbl.replace f.f_code n i

(* Exclusive upper bounds of the register and node numbers a function
   uses, for tables indexed by register or by node. [f_code] is written
   only through [add_instr] and [set_instr], and [f_classes] only
   through [fresh_reg], which keep the counters above every node key and
   every register an instruction or the class table names; so the
   counters are the bounds. They are not tight once nodes are removed
   from the code table or registers fall out of use. *)
let reg_bound (f : func) : int = f.f_next_reg

let node_bound (f : func) : int = f.f_next_node

(* [k s] for every successor [s] of [i], in [successors] order, without
   building the list. *)
let iter_successors (k : node -> unit) (i : instruction) : unit =
  match i with
  | Inop s
  | Iop (_, _, _, s)
  | Iload (_, _, _, _, s)
  | Istore (_, _, _, _, s)
  | Iacq (_, _, s)
  | Iout (_, _, s)
  | Iannot (_, _, s) -> k s
  | Icond (_, _, s1, s2) ->
    k s1;
    k s2
  | Ireturn _ -> ()

(* All nodes reachable from the entry, in reverse postorder, marking
   visited nodes in a byte per node. *)
let reverse_postorder (f : func) : node list =
  let bound = node_bound f in
  let visited = Bytes.make bound '\000' in
  let order = ref [] in
  let rec dfs (n : node) : unit =
    if n < 0 || n >= bound then ignore (get_instr f n) (* not a node: raises *)
    else if Bytes.get visited n = '\000' then begin
      Bytes.set visited n '\001';
      iter_successors dfs (get_instr f n);
      order := n :: !order
    end
  in
  dfs f.f_entry;
  !order

(* One depth-first walk from the entry, for the passes that need more
   than the order: the reachable nodes in reverse postorder, and by node
   their instructions and their predecessors. Dataflow fixpoints then
   read these arrays instead of the code table. *)
type walk = {
  w_order : node array;          (* reachable nodes, reverse postorder *)
  w_code : instruction array;    (* by node; meaningful where reachable *)
  w_preds : node list array;
      (* by node: reachable predecessors, one entry per edge (an [Icond]
         whose successors are equal is listed twice); empty for the
         unreachable nodes *)
}

(* Successors are visited in [successors] order, as in
   [reverse_postorder], so both give the same order. *)
let walk (f : func) : walk =
  let bound = node_bound f in
  let code = Array.make bound (Ireturn None) in
  let preds = Array.make bound [] in
  let visited = Bytes.make bound '\000' in
  let post = Array.make bound 0 in
  let count = ref 0 in
  (* [iter_successors] without its closure: this runs on every analysis *)
  let rec dfs (n : node) : unit =
    if n < 0 || n >= bound then ignore (get_instr f n) (* not a node: raises *)
    else if Bytes.get visited n = '\000' then begin
      Bytes.set visited n '\001';
      let i = get_instr f n in
      code.(n) <- i;
      (match i with
       | Inop s
       | Iop (_, _, _, s)
       | Iload (_, _, _, _, s)
       | Istore (_, _, _, _, s)
       | Iacq (_, _, s)
       | Iout (_, _, s)
       | Iannot (_, _, s) -> edge n s
       | Icond (_, _, s1, s2) ->
         edge n s1;
         edge n s2
       | Ireturn _ -> ());
      post.(!count) <- n;
      incr count
    end
  and edge (n : node) (s : node) : unit =
    dfs s;
    preds.(s) <- n :: preds.(s)
  in
  dfs f.f_entry;
  let k = !count in
  { w_order = Array.init k (fun j -> post.(k - 1 - j)); w_code = code;
    w_preds = preds }

type program = {
  p_source : Minic.Ast.program; (* globals / arrays / volatiles context *)
  p_funcs : func list;
  p_main : string;
}

(* -- printing, for debug dumps ------------------------------------- *)

let string_of_comparison (c : Minic.Ast.comparison) : string =
  match c with
  | Minic.Ast.Ceq -> "eq"
  | Minic.Ast.Cne -> "ne"
  | Minic.Ast.Clt -> "lt"
  | Minic.Ast.Cle -> "le"
  | Minic.Ast.Cgt -> "gt"
  | Minic.Ast.Cge -> "ge"

let string_of_operation (op : operation) : string =
  match op with
  | Omove -> "move"
  | Ointconst n -> Printf.sprintf "intconst %ld" n
  | Ofloatconst f -> Printf.sprintf "floatconst %h" f
  | Oadd -> "add" | Osub -> "sub" | Omul -> "mul" | Odivs -> "divs"
  | Omods -> "mods" | Oand -> "and" | Oor -> "or" | Oxor -> "xor"
  | Oshl -> "shl" | Oshr -> "shr"
  | Oshlimm k -> Printf.sprintf "shlimm %d" k
  | Oaddimm k -> Printf.sprintf "addimm %ld" k
  | Oneg -> "neg" | Onotbool -> "notbool"
  | Ofadd -> "fadd" | Ofsub -> "fsub" | Ofmul -> "fmul" | Ofdiv -> "fdiv"
  | Ofneg -> "fneg" | Ofabs -> "fabs"
  | Ofloatofint -> "floatofint" | Ointoffloat -> "intoffloat"
  | Ocmp c -> "cmp " ^ string_of_comparison c
  | Ofcmp c -> "fcmp " ^ string_of_comparison c

let string_of_instruction (i : instruction) : string =
  let regs rs = String.concat ", " (List.map (Printf.sprintf "x%d") rs) in
  match i with
  | Inop s -> Printf.sprintf "nop -> %d" s
  | Iop (op, args, d, s) ->
    Printf.sprintf "x%d = %s(%s) -> %d" d (string_of_operation op) (regs args) s
  | Iload (_, ADglob g, _, d, s) -> Printf.sprintf "x%d = load %s -> %d" d g s
  | Iload (_, ADarr g, args, d, s) ->
    Printf.sprintf "x%d = load %s[%s] -> %d" d g (regs args) s
  | Istore (_, ADglob g, _, src, s) ->
    Printf.sprintf "store %s = x%d -> %d" g src s
  | Istore (_, ADarr g, args, src, s) ->
    Printf.sprintf "store %s[%s] = x%d -> %d" g (regs args) src s
  | Icond (_, args, s1, s2) ->
    Printf.sprintf "cond(%s) -> %d | %d" (regs args) s1 s2
  | Iacq (x, d, s) -> Printf.sprintf "x%d = acquire %s -> %d" d x s
  | Iout (x, src, s) -> Printf.sprintf "out %s = x%d -> %d" x src s
  | Iannot (text, _, s) -> Printf.sprintf "annot %S -> %d" text s
  | Ireturn None -> "return"
  | Ireturn (Some r) -> Printf.sprintf "return x%d" r

let dump_func (f : func) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "function %s (entry %d)\n" f.f_name f.f_entry);
  List.iter
    (fun n ->
       Buffer.add_string buf
         (Printf.sprintf "  %4d: %s\n" n (string_of_instruction (get_instr f n))))
    (reverse_postorder f);
  Buffer.contents buf

(* Deep copy of a function's code graph, used by the per-pass validators
   to snapshot the IR before a transformation runs in place. *)
let copy_func (f : func) : func =
  { f with f_code = Hashtbl.copy f.f_code; f_classes = Hashtbl.copy f.f_classes }

let copy_program (p : program) : program =
  { p with p_funcs = List.map copy_func p.p_funcs }
