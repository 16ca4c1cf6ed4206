(* Executable simulator for the target machine: concrete registers,
   concrete memory laid out by [Layout], a concrete LRU data cache, and
   the shared [Timing] cost model. It produces the same observable
   trace type as the mini-C reference interpreter ([Minic.Interp])
   plus performance counters, so one differential harness checks
   semantic preservation (traces equal) and one property harness checks
   timing soundness (analyzer WCET >= [rr_stats.cycles]).

   Differential validation runs the simulator on every node and several
   worlds, so the work splits in two. [load] turns the entry point into
   an immutable [image] once per node: code array, per-instruction costs
   from [Timing.static_costs] (the very function the analyzer's pipeline
   phase folds over each block), resolved branch targets, symbol
   addresses and volatile types, and the sorted global addresses.
   Precomputing the costs is exact: overlap windows reset at labels and
   branches, and every jump lands on a label. [exec] then builds a fresh
   machine per world, and costs what the node touches, not the size of
   the machine: memory is paged lazily (untouched pages share one zero
   page), data-cache sets get their slots on first use, and the step
   loop allocates only for events (loads, stores and the cache box
   nothing).

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

(* ---- the image ---- *)

(* [code.(i)]'s resolution is [resolved.(i)]: the branch target index of
   a [Pb]/[Pbc]; the address of an [Aglob]/[Asda] operand, a [Pla]
   symbol or a [Plfdc] constant; the volatile index (into [vol_typs]) of
   a [Pacqi]/[Pacqf]/[Pouti]. It is [unresolved] for every other
   instruction and for an undefined label, symbol or volatile, whose
   error is raised only if the instruction executes. The image has no
   mutable field and no run writes its arrays, so domains may share
   it. *)
type image = {
  lay : Layout.t;
  fsrc : Minic.Ast.func;
  code : Asm.instr array;
  costs : int array;  (* [Timing.static_costs] over the whole body *)
  resolved : int array;
  vol_typs : Minic.Ast.typ array;  (* per distinct volatile name *)
  arrays : (string * int * Minic.Ast.typ * float list) list;
      (* name, base address or [unresolved], element type, initializer *)
  globals : (string * Minic.Ast.typ * int) list;
      (* sorted by name, with their address or [unresolved] *)
}

let unresolved = min_int

let runtime_error msg = raise (Minic.Interp.Runtime_error msg)

let load ~(source : Minic.Ast.program) (asm : Asm.program) (lay : Layout.t) :
  image =
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
  let code = Array.of_list fasm.Asm.fn_code in
  let labels = Hashtbl.create 31 in
  Array.iteri
    (fun i ins ->
       match ins with
       | Asm.Plabel l -> Hashtbl.replace labels l i
       | _ -> ())
    code;
  (* volatile index per distinct name, typed by its first declaration
     (as [Minic.Ast.find_volatile] finds it) *)
  let vols = Hashtbl.create 17 in
  let vol_typs =
    List.filter_map
      (fun (x, t, _) ->
         if Hashtbl.mem vols x then None
         else begin
           Hashtbl.replace vols x (Hashtbl.length vols);
           Some t
         end)
      source.Minic.Ast.prog_volatiles
  in
  let lookup find x = try find x with Invalid_argument _ -> unresolved in
  let addr x = lookup (Layout.sym_addr lay) x in
  let resolve ins =
    match ins with
    | Asm.Pb l | Asm.Pbc (_, l) ->
      Option.value ~default:unresolved (Hashtbl.find_opt labels l)
    | Asm.Plwz (_, a) | Asm.Pstw (_, a) | Asm.Plfd (_, a) | Asm.Pstfd (_, a) ->
      (match a with
       | Asm.Aglob (s, off) | Asm.Asda (s, off) ->
         let base = addr s in
         if base = unresolved then unresolved else base + Int32.to_int off
       | Asm.Aind _ | Asm.Aindx _ -> unresolved)
    | Asm.Pla (_, s) -> addr s
    | Asm.Plfdc (_, c) -> lookup (Layout.const_addr lay) c
    | Asm.Pacqi (_, x) | Asm.Pacqf (_, x) | Asm.Pouti (x, _) ->
      Option.value ~default:unresolved (Hashtbl.find_opt vols x)
    | _ -> unresolved
  in
  { lay;
    fsrc;
    code;
    costs = Timing.static_costs code;
    resolved = Array.map resolve code;
    vol_typs = Array.of_list vol_typs;
    arrays =
      List.map
        (fun a ->
           let x = a.Minic.Ast.arr_name in
           (x, addr x, a.Minic.Ast.arr_elt, a.Minic.Ast.arr_init))
        source.Minic.Ast.prog_arrays;
    globals =
      List.sort
        (fun (a, _, _) (b, _, _) -> String.compare a b)
        (List.map
           (fun (x, t) -> (x, t, addr x))
           source.Minic.Ast.prog_globals) }

(* ---- the machine ---- *)

type machine = {
  im : image;
  world : Minic.Interp.world;
  regs : Bytes.t;       (* r0..r31, 4 bytes each; r1 = sp *)
  fregs : float array;  (* f0..f31 *)
  mutable cr_lt : bool;
  mutable cr_gt : bool;
  mutable cr_eq : bool;
  pages : Bytes.t array;  (* [lay_mem_size] bytes, [page_size] per page *)
  dcache : Cache.t;
  vol_counts : int array;  (* reads so far, per volatile index *)
  mutable events_rev : Minic.Interp.event list;
  st : stats;
  mutable fuel : int;
}

(* ---- registers ---- *)

(* An int32 lives unboxed in [regs]: writing a register stores four
   bytes where an [int32 array] would allocate a box. *)
let[@inline] ireg (m : machine) (r : int) : int32 =
  Bytes.get_int32_ne m.regs (r lsl 2)

let[@inline] set_ireg (m : machine) (r : int) (v : int32) : unit =
  Bytes.set_int32_ne m.regs (r lsl 2) v

(* ---- memory ---- *)

(* Every page starts as the shared [zero_page], which is never written
   (so domains can share it), and gets its own buffer on its first
   write. Loads and stores are big-endian; the rare access that
   straddles a page goes byte by byte. The accessors are inlined so
   that, without flambda, an int32 or a float crosses them unboxed. *)
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

let[@inline] load32 (m : machine) (a : int) : int32 =
  let off = a land page_mask in
  if off <= page_size - 4 then Bytes.get_int32_be m.pages.(a lsr page_bits) off
  else Int64.to_int32 (load_bytes m a 4)

let[@inline] store32 (m : machine) (a : int) (v : int32) : unit =
  let off = a land page_mask in
  if off <= page_size - 4 then Bytes.set_int32_be (writable_page m a) off v
  else store_bytes m a 4 (Int64.of_int32 v)

let[@inline] loadf (m : machine) (a : int) : float =
  let off = a land page_mask in
  Int64.float_of_bits
    (if off <= page_size - 8 then Bytes.get_int64_be m.pages.(a lsr page_bits) off
     else load_bytes m a 8)

let[@inline] storef (m : machine) (a : int) (v : float) : unit =
  let off = a land page_mask in
  let v = Int64.bits_of_float v in
  if off <= page_size - 8 then Bytes.set_int64_be (writable_page m a) off v
  else store_bytes m a 8 v

let[@inline] ea (m : machine) (a : Asm.address) : int =
  match a with
  | Asm.Aind (b, off) -> Int32.to_int (ireg m b) + Int32.to_int off
  | Asm.Aindx (b, x) -> Int32.to_int (ireg m b) + Int32.to_int (ireg m x)
  | Asm.Aglob (s, off) | Asm.Asda (s, off) ->
    Layout.sym_addr m.im.lay s + Int32.to_int off

let out_of_range (addr : int) =
  runtime_error (Printf.sprintf "memory access out of range: 0x%x" addr)

let[@inline] check_range (m : machine) (addr : int) (size : int) : unit =
  if addr < 0 || addr + size > m.im.lay.Layout.lay_mem_size then
    out_of_range addr

(* Concrete data-cache access: charge the miss penalty, bump the
   matching performance counter. *)
let[@inline] daccess (m : machine) ~(write : bool) (addr : int) (size : int) :
  unit =
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
    (fun (x, base, elt, init) ->
       let base =
         if base = unresolved then Layout.sym_addr m.im.lay x else base
       in
       List.iteri
         (fun i f ->
            match elt with
            | Minic.Ast.Tfloat -> storef m (base + (8 * i)) f
            | Minic.Ast.Tint ->
              store32 m (base + (4 * i)) (Minic.Value.int32_of_float_trunc f)
            | Minic.Ast.Tbool ->
              store32 m (base + (4 * i)) (if f > 0.0 then 1l else 0l))
         init)
    m.im.arrays

let create (im : image) (world : Minic.Interp.world) ~(fuel : int) : machine =
  let lay = im.lay in
  let m =
    { im;
      world;
      regs = Bytes.make (4 * 32) '\000';
      fregs = Array.make 32 0.0;
      cr_lt = false;
      cr_gt = false;
      cr_eq = false;
      pages =
        Array.make ((lay.Layout.lay_mem_size + page_mask) lsr page_bits) zero_page;
      dcache = Cache.create Cache.mpc755_l1;
      vol_counts = Array.make (Array.length im.vol_typs) 0;
      events_rev = [];
      st = { cycles = 0; dcache_reads = 0; dcache_writes = 0 };
      fuel }
  in
  set_ireg m Asm.sp (Int32.of_int lay.Layout.lay_stack_top);
  init_memory m;
  m

(* ---- volatiles ---- *)

let vol_typ (m : machine) (v : int) (x : string) : Minic.Ast.typ =
  if v = unresolved then runtime_error ("unbound volatile " ^ x)
  else m.im.vol_typs.(v)

let acquire (m : machine) (v : int) (x : string) : Minic.Value.t =
  let t = vol_typ m v x in
  let k = m.vol_counts.(v) in
  m.vol_counts.(v) <- k + 1;
  let v = Minic.Interp.world_value m.world t x k in
  m.events_rev <- Minic.Interp.Ev_vol_read (x, v) :: m.events_rev;
  v

(* ---- condition register ---- *)

let[@inline] set_cr_int (m : machine) (a : int32) (b : int32) : unit =
  let c = Int32.compare a b in
  m.cr_lt <- c < 0;
  m.cr_gt <- c > 0;
  m.cr_eq <- c = 0

let[@inline] set_cr_float (m : machine) (a : float) (b : float) : unit =
  (* fcmpu: unordered (NaN) sets no ordering bit *)
  m.cr_lt <- a < b;
  m.cr_gt <- a > b;
  m.cr_eq <- a = b

let[@inline] eval_cond (m : machine) (c : Asm.branch_cond) : bool =
  match c with
  | Asm.BT Asm.CRlt -> m.cr_lt
  | Asm.BT Asm.CRgt -> m.cr_gt
  | Asm.BT Asm.CReq -> m.cr_eq
  | Asm.BF Asm.CRlt -> not m.cr_lt
  | Asm.BF Asm.CRgt -> not m.cr_gt
  | Asm.BF Asm.CReq -> not m.cr_eq

(* ---- annotation arguments ---- *)

(* Stack slots are range-checked like any access, but annotations are
   pro-forma: reading one goes through no data cache and costs nothing. *)
let annot_value (m : machine) (a : Asm.annot_arg) : Minic.Value.t =
  let slot off size =
    let addr = Int32.to_int (ireg m Asm.sp) + Int32.to_int off in
    check_range m addr size;
    addr
  in
  match a with
  | Asm.AA_ireg r -> Minic.Value.Vint (ireg m r)
  | Asm.AA_freg f -> Minic.Value.Vfloat m.fregs.(f)
  | Asm.AA_const_int n -> Minic.Value.Vint n
  | Asm.AA_const_float c -> Minic.Value.Vfloat c
  | Asm.AA_stack_int off -> Minic.Value.Vint (load32 m (slot off 4))
  | Asm.AA_stack_float off -> Minic.Value.Vfloat (loadf m (slot off 8))

(* ---- one activation of the entry point ---- *)

let exec_func (m : machine) : unit =
  let im = m.im in
  let code = im.code and costs = im.costs and resolved = im.resolved in
  let fregs = m.fregs in
  let pc = ref 0 in
  let running = ref true in
  while !running && !pc < Array.length code do
    m.fuel <- m.fuel - 1;
    if m.fuel <= 0 then raise Minic.Interp.Out_of_fuel;
    let i = code.(!pc) in
    let r = resolved.(!pc) in
    m.st.cycles <- m.st.cycles + costs.(!pc);
    let next = ref (!pc + 1) in
    (match i with
     | Asm.Plabel _ -> ()
     | Asm.Pb l ->
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken:true;
       if r = unresolved then
         runtime_error ("undefined label " ^ string_of_int l);
       next := r
     | Asm.Pbc (c, l) ->
       let taken = eval_cond m c in
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken;
       if taken then begin
         if r = unresolved then
           runtime_error ("undefined label " ^ string_of_int l);
         next := r
       end
     | Asm.Pblr ->
       m.st.cycles <- m.st.cycles + Timing.branch_cost ~taken:true;
       running := false
     | Asm.Pannot (text, args) ->
       let vs = List.map (annot_value m) args in
       m.events_rev <- Minic.Interp.Ev_annot (text, vs) :: m.events_rev
     | Asm.Padd (d, a, b) -> set_ireg m d (Int32.add (ireg m a) (ireg m b))
     | Asm.Psubf (d, a, b) -> set_ireg m d (Int32.sub (ireg m b) (ireg m a))
     | Asm.Pmullw (d, a, b) -> set_ireg m d (Int32.mul (ireg m a) (ireg m b))
     | Asm.Pdivw (d, a, b) ->
       set_ireg m d (Minic.Value.div32 (ireg m a) (ireg m b))
     | Asm.Pand (d, a, b) -> set_ireg m d (Int32.logand (ireg m a) (ireg m b))
     | Asm.Por (d, a, b) -> set_ireg m d (Int32.logor (ireg m a) (ireg m b))
     | Asm.Pxor (d, a, b) -> set_ireg m d (Int32.logxor (ireg m a) (ireg m b))
     | Asm.Pslw (d, a, b) ->
       set_ireg m d
         (Int32.shift_left (ireg m a) (Minic.Value.shift_amount (ireg m b)))
     | Asm.Psraw (d, a, b) ->
       set_ireg m d
         (Int32.shift_right (ireg m a) (Minic.Value.shift_amount (ireg m b)))
     | Asm.Pneg (d, a) -> set_ireg m d (Int32.neg (ireg m a))
     | Asm.Pmr (d, a) -> set_ireg m d (ireg m a)
     | Asm.Paddi (d, a, n) ->
       set_ireg m d (Int32.add (if a = 0 then 0l else ireg m a) n)
     | Asm.Paddis (d, a, n) ->
       set_ireg m d
         (Int32.add (if a = 0 then 0l else ireg m a) (Int32.mul n 65536l))
     | Asm.Pori (d, a, n) -> set_ireg m d (Int32.logor (ireg m a) n)
     | Asm.Pslwi (d, a, n) ->
       set_ireg m d (Int32.shift_left (ireg m a) (n land 31))
     | Asm.Plwz (d, a) ->
       let addr = if r = unresolved then ea m a else r in
       daccess m ~write:false addr 4;
       set_ireg m d (load32 m addr)
     | Asm.Pstw (s, a) ->
       let addr = if r = unresolved then ea m a else r in
       daccess m ~write:true addr 4;
       store32 m addr (ireg m s)
     | Asm.Plfd (d, a) ->
       let addr = if r = unresolved then ea m a else r in
       daccess m ~write:false addr 8;
       fregs.(d) <- loadf m addr
     | Asm.Pstfd (s, a) ->
       let addr = if r = unresolved then ea m a else r in
       daccess m ~write:true addr 8;
       storef m addr fregs.(s)
     | Asm.Plfdc (d, c) ->
       daccess m ~write:false
         (if r = unresolved then Layout.const_addr im.lay c else r) 8;
       fregs.(d) <- c
     | Asm.Pla (d, s) ->
       set_ireg m d
         (Int32.of_int (if r = unresolved then Layout.sym_addr im.lay s else r))
     | Asm.Pcmpw (a, b) -> set_cr_int m (ireg m a) (ireg m b)
     | Asm.Pcmpwi (a, n) -> set_cr_int m (ireg m a) n
     | Asm.Pfcmpu (a, b) -> set_cr_float m fregs.(a) fregs.(b)
     | Asm.Psetcc (d, c) -> set_ireg m d (if eval_cond m c then 1l else 0l)
     | Asm.Pmovcc (d, s, c) -> if eval_cond m c then set_ireg m d (ireg m s)
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
     | Asm.Pfcfiw (d, a) -> fregs.(d) <- Int32.to_float (ireg m a)
     | Asm.Pfctiwz (d, a) ->
       set_ireg m d (Minic.Value.int32_of_float_trunc fregs.(a))
     | Asm.Pacqi (d, x) ->
       set_ireg m d
         (match acquire m r x with
          | Minic.Value.Vint n -> n
          | Minic.Value.Vbool b -> if b then 1l else 0l
          | Minic.Value.Vfloat _ ->
            runtime_error ("float value on integer acquisition of " ^ x))
     | Asm.Pacqf (d, x) ->
       fregs.(d) <-
         (match acquire m r x with
          | Minic.Value.Vfloat f -> f
          | Minic.Value.Vint _ | Minic.Value.Vbool _ ->
            runtime_error ("integer value on float acquisition of " ^ x))
     | Asm.Pouti (x, s) ->
       let v =
         match vol_typ m r x with
         | Minic.Ast.Tbool -> Minic.Value.Vbool (ireg m s <> 0l)
         | Minic.Ast.Tint | Minic.Ast.Tfloat -> Minic.Value.Vint (ireg m s)
       in
       m.events_rev <- Minic.Interp.Ev_vol_write (x, v) :: m.events_rev
     | Asm.Poutf (x, s) ->
       m.events_rev <-
         Minic.Interp.Ev_vol_write (x, Minic.Value.Vfloat fregs.(s))
         :: m.events_rev
     | Asm.Pallocframe n ->
       set_ireg m Asm.sp (Int32.sub (ireg m Asm.sp) (Int32.of_int n))
     | Asm.Pfreeframe n ->
       set_ireg m Asm.sp (Int32.add (ireg m Asm.sp) (Int32.of_int n)));
    pc := !next
  done

(* ---- results ---- *)

let read_return (m : machine) : Minic.Value.t option =
  match m.im.fsrc.Minic.Ast.fn_ret with
  | None -> None
  | Some Minic.Ast.Tint -> Some (Minic.Value.Vint (ireg m 3))
  | Some Minic.Ast.Tbool -> Some (Minic.Value.Vbool (ireg m 3 <> 0l))
  | Some Minic.Ast.Tfloat -> Some (Minic.Value.Vfloat m.fregs.(1))

let read_globals (m : machine) : (string * Minic.Value.t) list =
  List.map
    (fun (x, t, addr) ->
       let addr =
         if addr = unresolved then Layout.sym_addr m.im.lay x else addr
       in
       let v =
         match t with
         | Minic.Ast.Tint -> Minic.Value.Vint (load32 m addr)
         | Minic.Ast.Tbool -> Minic.Value.Vbool (load32 m addr <> 0l)
         | Minic.Ast.Tfloat -> Minic.Value.Vfloat (loadf m addr)
       in
       (x, v))
    m.im.globals

let place_args (m : machine) (args : Minic.Value.t list) : unit =
  let fsrc = m.im.fsrc in
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
         set_ireg m !next_ir (Minic.Value.as_int v);
         incr next_ir
       | Minic.Ast.Tbool ->
         set_ireg m !next_ir (if Minic.Value.as_bool v then 1l else 0l);
         incr next_ir)
    fsrc.Minic.Ast.fn_params args

(* Run the loaded entry point on a fresh machine (once, or [cycles]
   consecutive control cycles with memory, cache and volatile counters
   persisting — the machine-level mirror of [Minic.Interp.run_cycles]). *)
let exec ?cycles ?(fuel = 10_000_000) (im : image)
    (world : Minic.Interp.world) (args : Minic.Value.t list) : run_result =
  let m = create im world ~fuel in
  (match cycles with
   | None ->
     place_args m args;
     exec_func m
   | Some n ->
     if im.fsrc.Minic.Ast.fn_params <> [] then
       runtime_error "Sim.run ~cycles: entry point must be nullary";
     for _ = 1 to n do
       exec_func m
     done);
  { rr_result =
      { Minic.Interp.res_return = read_return m;
        res_events = List.rev m.events_rev;
        res_globals = read_globals m };
    rr_stats = m.st }

let run ?cycles ?fuel ~(source : Minic.Ast.program) (asm : Asm.program)
    (lay : Layout.t) (world : Minic.Interp.world) (args : Minic.Value.t list) :
  run_result =
  exec ?cycles ?fuel (load ~source asm lay) world args
