(* Executable simulator for the target machine: concrete registers,
   concrete memory laid out by [Layout], a concrete LRU data cache, and
   the shared [Timing] cost model. It produces the same observable
   trace type as the mini-C reference interpreter ([Minic.Interp])
   plus performance counters, so one differential harness checks
   semantic preservation (traces equal) and one property harness checks
   timing soundness (analyzer WCET >= [rr_stats.cycles]).

   Differential validation runs the simulator on every node, so a run
   costs what the node touches, not the size of the machine: memory is
   paged lazily (untouched pages share one zero page), and the entry
   point is prepared once per [run] — code array, per-instruction costs
   from [Timing.static_costs] (the very function the analyzer's pipeline
   phase folds over each block), resolved branch targets and symbol
   addresses. Precomputing the costs is exact: overlap windows reset at
   labels and branches, and every jump lands on a label.

   The instruction cache is deliberately NOT simulated: the analyzer
   classifies instruction fetches against a worst-case abstract cache
   and charges the misses it cannot exclude, so leaving concrete
   fetches free keeps the comparison sound (analyzer >= simulator)
   without a fetch model the paper does not need. *)

type stats = {
  mutable cycles : int;
  mutable dcache_reads : int;
  mutable dcache_writes : int;
}

type run_result = {
  rr_result : Minic.Interp.result;
  rr_stats : stats;
}

type machine = {
  src : Minic.Ast.program;
  asm : Asm.program;
  lay : Layout.t;
  world : Minic.Interp.world;
  regs : int32 array;   (* r0..r31; r1 = sp *)
  fregs : float array;  (* f0..f31 *)
  mutable cr_lt : bool;
  mutable cr_gt : bool;
  mutable cr_eq : bool;
  pages : Bytes.t array;  (* [lay_mem_size] bytes, [page_size] per page *)
  dcache : Cache.t;
  vol_counts : (string, int) Hashtbl.t;
  mutable events_rev : Minic.Interp.event list;
  st : stats;
  mutable fuel : int;
}

let runtime_error msg = raise (Minic.Interp.Runtime_error msg)

(* ---- memory ---- *)

(* Every page starts as the shared [zero_page], which is never written
   (so domains can share it), and gets its own buffer on its first
   write. Loads and stores are big-endian; the rare access that
   straddles a page goes byte by byte. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

let writable_page (m : machine) (a : int) : Bytes.t =
  let p = a lsr page_bits in
  let page = m.pages.(p) in
  if page != zero_page then page
  else begin
    let page = Bytes.make page_size '\000' in
    m.pages.(p) <- page;
    page
  end

let load_bytes (m : machine) (a : int) (n : int) : int64 =
  let v = ref 0L in
  for k = a to a + n - 1 do
    let b = Bytes.get_uint8 m.pages.(k lsr page_bits) (k land page_mask) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let store_bytes (m : machine) (a : int) (n : int) (v : int64) : unit =
  for k = 0 to n - 1 do
    let b = Int64.to_int (Int64.shift_right_logical v (8 * (n - 1 - k))) in
    Bytes.set_uint8 (writable_page m (a + k)) ((a + k) land page_mask) (b land 0xff)
  done

let load32 (m : machine) (a : int) : int32 =
  let off = a land page_mask in
  if off <= page_size - 4 then Bytes.get_int32_be m.pages.(a lsr page_bits) off
  else Int64.to_int32 (load_bytes m a 4)

let store32 (m : machine) (a : int) (v : int32) : unit =
  let off = a land page_mask in
  if off <= page_size - 4 then Bytes.set_int32_be (writable_page m a) off v
  else store_bytes m a 4 (Int64.of_int32 v)

let loadf (m : machine) (a : int) : float =
  let off = a land page_mask in
  Int64.float_of_bits
    (if off <= page_size - 8 then Bytes.get_int64_be m.pages.(a lsr page_bits) off
     else load_bytes m a 8)

let storef (m : machine) (a : int) (v : float) : unit =
  let off = a land page_mask in
  let v = Int64.bits_of_float v in
  if off <= page_size - 8 then Bytes.set_int64_be (writable_page m a) off v
  else store_bytes m a 8 v

let ea (m : machine) (a : Asm.address) : int =
  match a with
  | Asm.Aind (b, off) -> Int32.to_int m.regs.(b) + Int32.to_int off
  | Asm.Aindx (b, x) -> Int32.to_int m.regs.(b) + Int32.to_int m.regs.(x)
  | Asm.Aglob (s, off) | Asm.Asda (s, off) ->
    Layout.sym_addr m.lay s + Int32.to_int off

let check_range (m : machine) (addr : int) (size : int) : unit =
  if addr < 0 || addr + size > m.lay.Layout.lay_mem_size then
    runtime_error (Printf.sprintf "memory access out of range: 0x%x" addr)

(* Concrete data-cache access: charge the miss penalty, bump the
   matching performance counter. *)
let daccess (m : machine) ~(write : bool) (addr : int) (size : int) : unit =
  check_range m addr size;
  let misses = Cache.access m.dcache addr size in
  m.st.cycles <- m.st.cycles + (misses * Timing.cache_miss_penalty);
  if write then m.st.dcache_writes <- m.st.dcache_writes + 1
  else m.st.dcache_reads <- m.st.dcache_reads + 1

(* ---- machine construction ---- *)

let init_memory (m : machine) : unit =
  (* Globals are zero already (fresh pages are); arrays take their
     initializer, converted to the element type exactly like the
     reference interpreter's [initial_state]. *)
  List.iter
    (fun a ->
       let base = Layout.sym_addr m.lay a.Minic.Ast.arr_name in
       let elt = a.Minic.Ast.arr_elt in
       List.iteri
         (fun i f ->
            match elt with
            | Minic.Ast.Tfloat -> storef m (base + (8 * i)) f
            | Minic.Ast.Tint ->
              store32 m (base + (4 * i)) (Minic.Value.int32_of_float_trunc f)
            | Minic.Ast.Tbool ->
              store32 m (base + (4 * i)) (if f > 0.0 then 1l else 0l))
         a.Minic.Ast.arr_init)
    m.src.Minic.Ast.prog_arrays

let create (src : Minic.Ast.program) (asm : Asm.program) (lay : Layout.t)
    (world : Minic.Interp.world) ~(fuel : int) : machine =
  let m =
    { src;
      asm;
      lay;
      world;
      regs = Array.make 32 0l;
      fregs = Array.make 32 0.0;
      cr_lt = false;
      cr_gt = false;
      cr_eq = false;
      pages =
        Array.make ((lay.Layout.lay_mem_size + page_mask) lsr page_bits) zero_page;
      dcache = Cache.create Cache.mpc755_l1;
      vol_counts = Hashtbl.create 17;
      events_rev = [];
      st = { cycles = 0; dcache_reads = 0; dcache_writes = 0 };
      fuel }
  in
  m.regs.(Asm.sp) <- Int32.of_int lay.Layout.lay_stack_top;
  init_memory m;
  m

(* ---- volatiles ---- *)

let vol_typ (m : machine) (x : string) : Minic.Ast.typ =
  match Minic.Ast.find_volatile m.src x with
  | Some (t, _) -> t
  | None -> runtime_error ("unbound volatile " ^ x)

let acquire (m : machine) (x : string) : Minic.Value.t =
  let t = vol_typ m x in
  let k = Option.value ~default:0 (Hashtbl.find_opt m.vol_counts x) in
  Hashtbl.replace m.vol_counts x (k + 1);
  let v = Minic.Interp.world_value m.world t x k in
  m.events_rev <- Minic.Interp.Ev_vol_read (x, v) :: m.events_rev;
  v

(* ---- condition register ---- *)

let set_cr_int (m : machine) (a : int32) (b : int32) : unit =
  let c = Int32.compare a b in
  m.cr_lt <- c < 0;
  m.cr_gt <- c > 0;
  m.cr_eq <- c = 0

let set_cr_float (m : machine) (a : float) (b : float) : unit =
  (* fcmpu: unordered (NaN) sets no ordering bit *)
  m.cr_lt <- a < b;
  m.cr_gt <- a > b;
  m.cr_eq <- a = b

let eval_cond (m : machine) (c : Asm.branch_cond) : bool =
  let bit b =
    match b with
    | Asm.CRlt -> m.cr_lt
    | Asm.CRgt -> m.cr_gt
    | Asm.CReq -> m.cr_eq
  in
  match c with Asm.BT b -> bit b | Asm.BF b -> not (bit b)

(* ---- annotation arguments ---- *)

(* Stack slots are range-checked like any access, but annotations are
   pro-forma: reading one goes through no data cache and costs nothing. *)
let annot_value (m : machine) (a : Asm.annot_arg) : Minic.Value.t =
  let slot off size =
    let addr = Int32.to_int m.regs.(Asm.sp) + Int32.to_int off in
    check_range m addr size;
    addr
  in
  match a with
  | Asm.AA_ireg r -> Minic.Value.Vint m.regs.(r)
  | Asm.AA_freg f -> Minic.Value.Vfloat m.fregs.(f)
  | Asm.AA_const_int n -> Minic.Value.Vint n
  | Asm.AA_const_float c -> Minic.Value.Vfloat c
  | Asm.AA_stack_int off -> Minic.Value.Vint (load32 m (slot off 4))
  | Asm.AA_stack_float off -> Minic.Value.Vfloat (loadf m (slot off 8))

(* ---- one function activation ---- *)

(* A function prepared once per [run]. [resolved.(i)] is the branch
   target index of a [Pb]/[Pbc], or the address of an [Aglob]/[Asda]
   operand, a [Pla] symbol or a [Plfdc] constant; it is [unresolved]
   for every other instruction and for an undefined label or symbol,
   whose error is raised only if the instruction executes. *)
type prepared = {
  code : Asm.instr array;
  costs : int array;  (* [Timing.static_costs] over the whole body *)
  resolved : int array;
}

let unresolved = min_int

let prepare (lay : Layout.t) (f : Asm.func) : prepared =
  let code = Array.of_list f.Asm.fn_code in
  let labels = Hashtbl.create 31 in
  Array.iteri
    (fun i ins ->
       match ins with
       | Asm.Plabel l -> Hashtbl.replace labels l i
       | _ -> ())
    code;
  let lookup find x = try find x with Invalid_argument _ -> unresolved in
  let resolve ins =
    match ins with
    | Asm.Pb l | Asm.Pbc (_, l) ->
      Option.value ~default:unresolved (Hashtbl.find_opt labels l)
    | Asm.Plwz (_, a) | Asm.Pstw (_, a) | Asm.Plfd (_, a) | Asm.Pstfd (_, a) ->
      (match a with
       | Asm.Aglob (s, off) | Asm.Asda (s, off) ->
         let base = lookup (Layout.sym_addr lay) s in
         if base = unresolved then unresolved else base + Int32.to_int off
       | Asm.Aind _ | Asm.Aindx _ -> unresolved)
    | Asm.Pla (_, s) -> lookup (Layout.sym_addr lay) s
    | Asm.Plfdc (_, c) -> lookup (Layout.const_addr lay) c
    | _ -> unresolved
  in
  { code; costs = Timing.static_costs code; resolved = Array.map resolve code }

let exec_func (m : machine) (p : prepared) : unit =
  let code = p.code and costs = p.costs and resolved = p.resolved in
  let target pc l =
    let t = resolved.(pc) in
    if t = unresolved then runtime_error ("undefined label " ^ string_of_int l)
    else t
  in
  let addr pc a =
    let r = resolved.(pc) in
    if r = unresolved then ea m a else r
  in
  let regs = m.regs and fregs = m.fregs in
  let pc = ref 0 in
  let running = ref true in
  while !running && !pc < Array.length code do
    m.fuel <- m.fuel - 1;
    if m.fuel <= 0 then raise Minic.Interp.Out_of_fuel;
    let i = code.(!pc) in
    m.st.cycles <- m.st.cycles + costs.(!pc);
    let next = ref (!pc + 1) in
    (match i with
     | Asm.Plabel _ -> ()
     | Asm.Pb l ->
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken:true;
       next := target !pc l
     | Asm.Pbc (c, l) ->
       let taken = eval_cond m c in
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken;
       if taken then next := target !pc l
     | Asm.Pblr ->
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken:true;
       running := false
     | Asm.Pannot (text, args) ->
       let vs = List.map (annot_value m) args in
       m.events_rev <- Minic.Interp.Ev_annot (text, vs) :: m.events_rev
     | Asm.Padd (d, a, b) -> regs.(d) <- Int32.add regs.(a) regs.(b)
     | Asm.Psubf (d, a, b) -> regs.(d) <- Int32.sub regs.(b) regs.(a)
     | Asm.Pmullw (d, a, b) -> regs.(d) <- Int32.mul regs.(a) regs.(b)
     | Asm.Pdivw (d, a, b) -> regs.(d) <- Minic.Value.div32 regs.(a) regs.(b)
     | Asm.Pand (d, a, b) -> regs.(d) <- Int32.logand regs.(a) regs.(b)
     | Asm.Por (d, a, b) -> regs.(d) <- Int32.logor regs.(a) regs.(b)
     | Asm.Pxor (d, a, b) -> regs.(d) <- Int32.logxor regs.(a) regs.(b)
     | Asm.Pslw (d, a, b) ->
       regs.(d) <- Int32.shift_left regs.(a) (Minic.Value.shift_amount regs.(b))
     | Asm.Psraw (d, a, b) ->
       regs.(d) <-
         Int32.shift_right regs.(a) (Minic.Value.shift_amount regs.(b))
     | Asm.Pneg (d, a) -> regs.(d) <- Int32.neg regs.(a)
     | Asm.Pmr (d, a) -> regs.(d) <- regs.(a)
     | Asm.Paddi (d, a, n) ->
       regs.(d) <- Int32.add (if a = 0 then 0l else regs.(a)) n
     | Asm.Paddis (d, a, n) ->
       regs.(d) <-
         Int32.add (if a = 0 then 0l else regs.(a)) (Int32.mul n 65536l)
     | Asm.Pori (d, a, n) -> regs.(d) <- Int32.logor regs.(a) n
     | Asm.Pslwi (d, a, n) -> regs.(d) <- Int32.shift_left regs.(a) (n land 31)
     | Asm.Plwz (d, a) ->
       let addr = addr !pc a in
       daccess m ~write:false addr 4;
       regs.(d) <- load32 m addr
     | Asm.Pstw (s, a) ->
       let addr = addr !pc a in
       daccess m ~write:true addr 4;
       store32 m addr regs.(s)
     | Asm.Plfd (d, a) ->
       let addr = addr !pc a in
       daccess m ~write:false addr 8;
       fregs.(d) <- loadf m addr
     | Asm.Pstfd (s, a) ->
       let addr = addr !pc a in
       daccess m ~write:true addr 8;
       storef m addr fregs.(s)
     | Asm.Plfdc (d, c) ->
       let r = resolved.(!pc) in
       daccess m ~write:false
         (if r = unresolved then Layout.const_addr m.lay c else r) 8;
       fregs.(d) <- c
     | Asm.Pla (d, s) ->
       let r = resolved.(!pc) in
       regs.(d) <-
         Int32.of_int (if r = unresolved then Layout.sym_addr m.lay s else r)
     | Asm.Pcmpw (a, b) -> set_cr_int m regs.(a) regs.(b)
     | Asm.Pcmpwi (a, n) -> set_cr_int m regs.(a) n
     | Asm.Pfcmpu (a, b) -> set_cr_float m fregs.(a) fregs.(b)
     | Asm.Psetcc (d, c) -> regs.(d) <- (if eval_cond m c then 1l else 0l)
     | Asm.Pmovcc (d, s, c) -> if eval_cond m c then regs.(d) <- regs.(s)
     | Asm.Pfmovcc (d, s, c) -> if eval_cond m c then fregs.(d) <- fregs.(s)
     | Asm.Pfadd (d, a, b) -> fregs.(d) <- fregs.(a) +. fregs.(b)
     | Asm.Pfsub (d, a, b) -> fregs.(d) <- fregs.(a) -. fregs.(b)
     | Asm.Pfmul (d, a, b) -> fregs.(d) <- fregs.(a) *. fregs.(b)
     | Asm.Pfdiv (d, a, b) -> fregs.(d) <- fregs.(a) /. fregs.(b)
     | Asm.Pfmadd (d, a, b, c) ->
       fregs.(d) <- Float.fma fregs.(a) fregs.(b) fregs.(c)
     | Asm.Pfmsub (d, a, b, c) ->
       fregs.(d) <- Float.fma fregs.(a) fregs.(b) (-.fregs.(c))
     | Asm.Pfneg (d, a) -> fregs.(d) <- -.fregs.(a)
     | Asm.Pfabs (d, a) -> fregs.(d) <- Float.abs fregs.(a)
     | Asm.Pfmr (d, a) -> fregs.(d) <- fregs.(a)
     | Asm.Pfcfiw (d, a) -> fregs.(d) <- Int32.to_float regs.(a)
     | Asm.Pfctiwz (d, a) ->
       regs.(d) <- Minic.Value.int32_of_float_trunc fregs.(a)
     | Asm.Pacqi (d, x) ->
       regs.(d) <-
         (match acquire m x with
          | Minic.Value.Vint n -> n
          | Minic.Value.Vbool b -> if b then 1l else 0l
          | Minic.Value.Vfloat _ ->
            runtime_error ("float value on integer acquisition of " ^ x))
     | Asm.Pacqf (d, x) ->
       fregs.(d) <-
         (match acquire m x with
          | Minic.Value.Vfloat f -> f
          | Minic.Value.Vint _ | Minic.Value.Vbool _ ->
            runtime_error ("integer value on float acquisition of " ^ x))
     | Asm.Pouti (x, s) ->
       let v =
         match vol_typ m x with
         | Minic.Ast.Tbool -> Minic.Value.Vbool (regs.(s) <> 0l)
         | Minic.Ast.Tint | Minic.Ast.Tfloat -> Minic.Value.Vint regs.(s)
       in
       m.events_rev <- Minic.Interp.Ev_vol_write (x, v) :: m.events_rev
     | Asm.Poutf (x, s) ->
       m.events_rev <-
         Minic.Interp.Ev_vol_write (x, Minic.Value.Vfloat fregs.(s))
         :: m.events_rev
     | Asm.Pallocframe n ->
       regs.(Asm.sp) <- Int32.sub regs.(Asm.sp) (Int32.of_int n)
     | Asm.Pfreeframe n ->
       regs.(Asm.sp) <- Int32.add regs.(Asm.sp) (Int32.of_int n));
    pc := !next
  done

(* ---- results ---- *)

let read_return (m : machine) (fsrc : Minic.Ast.func) : Minic.Value.t option =
  match fsrc.Minic.Ast.fn_ret with
  | None -> None
  | Some Minic.Ast.Tint -> Some (Minic.Value.Vint m.regs.(3))
  | Some Minic.Ast.Tbool -> Some (Minic.Value.Vbool (m.regs.(3) <> 0l))
  | Some Minic.Ast.Tfloat -> Some (Minic.Value.Vfloat m.fregs.(1))

let read_globals (m : machine) : (string * Minic.Value.t) list =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun (x, t) ->
          let addr = Layout.sym_addr m.lay x in
          let v =
            match t with
            | Minic.Ast.Tint -> Minic.Value.Vint (load32 m addr)
            | Minic.Ast.Tbool -> Minic.Value.Vbool (load32 m addr <> 0l)
            | Minic.Ast.Tfloat -> Minic.Value.Vfloat (loadf m addr)
          in
          (x, v))
       m.src.Minic.Ast.prog_globals)

let place_args (m : machine) (fsrc : Minic.Ast.func)
    (args : Minic.Value.t list) : unit =
  if List.length args <> List.length fsrc.Minic.Ast.fn_params then
    runtime_error ("bad arity for " ^ fsrc.Minic.Ast.fn_name);
  let next_ir = ref 3 and next_fr = ref 1 in
  List.iter2
    (fun (_, t) v ->
       match t with
       | Minic.Ast.Tfloat ->
         m.fregs.(!next_fr) <- Minic.Value.as_float v;
         incr next_fr
       | Minic.Ast.Tint ->
         m.regs.(!next_ir) <- Minic.Value.as_int v;
         incr next_ir
       | Minic.Ast.Tbool ->
         m.regs.(!next_ir) <- (if Minic.Value.as_bool v then 1l else 0l);
         incr next_ir)
    fsrc.Minic.Ast.fn_params args

(* Run the entry point of [asm] (once, or [cycles] consecutive control
   cycles with memory, cache and volatile counters persisting — the
   machine-level mirror of [Minic.Interp.run_cycles]). *)
let run ?cycles ?(fuel = 10_000_000) ~(source : Minic.Ast.program)
    (asm : Asm.program) (lay : Layout.t) (world : Minic.Interp.world)
    (args : Minic.Value.t list) : run_result =
  let fname = asm.Asm.pr_main in
  let fasm =
    match Asm.find_func asm fname with
    | Some f -> f
    | None -> runtime_error ("no compiled function " ^ fname)
  in
  let fsrc =
    match Minic.Ast.find_func source fname with
    | Some f -> f
    | None -> runtime_error ("no source function " ^ fname)
  in
  let m = create source asm lay world ~fuel in
  let fasm = prepare lay fasm in
  (match cycles with
   | None ->
     place_args m fsrc args;
     exec_func m fasm
   | Some n ->
     if fsrc.Minic.Ast.fn_params <> [] then
       runtime_error "Sim.run ~cycles: entry point must be nullary";
     for _ = 1 to n do
       exec_func m fasm
     done);
  { rr_result =
      { Minic.Interp.res_return = read_return m fsrc;
        res_events = List.rev m.events_rev;
        res_globals = read_globals m };
    rr_stats = m.st }
