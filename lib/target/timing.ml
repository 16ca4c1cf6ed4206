(* The MPC755-flavoured timing model (DESIGN section 5), shared verbatim
   by the executable simulator and the WCET analyzer's pipeline phase:
   there is exactly ONE cost function, [static_costs], and both [Sim]
   (over a whole function body, once per image) and [Wcet.Pipeline] (over
   each basic block) call it. Overlap windows (dual-issue pairing, FPU
   pipelining, load-to-use forwarding) reset at labels and branches and
   every jump lands on a label, so block costs compose: summing
   [static_costs] over any executed path reproduces the simulator's
   cycle count exactly. The analyzer's only over-approximations are the
   cache classification and the worst-path selection — which is what
   makes "analyzer WCET >= simulated cycles" a checkable invariant
   rather than a hope. *)

(* ---- constants ---- *)

let cache_miss_penalty = 34  (* per missed line, L1 -> L2/board *)

(* Taken branches flush the fetch window; fall-through costs one slot. *)
let branch_cost ~(taken : bool) : int = if taken then 3 else 1

let cost_mullw = 4
let cost_divw = 19
let cost_fdiv = 31
let cost_fpu = 4       (* fadd/fsub/fmul/fmadd latency *)
let cost_fpu_overlap = 2  (* issue interval with an independent FPU op in flight *)
let cost_load = 2      (* L1 hit *)
let load_use_stall = 2 (* extra when the next instruction consumes the load *)
let cost_acquisition = 3200  (* volatile signal read: slow serial bus *)
let cost_actuator = 1000     (* actuator command write *)

(* ---- the stepper behind [static_costs] ----

   The window holds the registers the previous instruction defined, as
   int and float masks ([Asm.idefs_mask] etc.), one pair per overlap
   rule; an empty pair means the rule does not apply. Nothing here
   allocates per instruction. *)

type window = {
  mutable pair_ready : bool;  (* prev was an unpaired 1-cycle int op *)
  mutable pair_i : int;       (* its defs, when it was pairable *)
  mutable pair_f : int;
  mutable fpu_busy : bool;    (* prev was a pipelined FPU arith op *)
  mutable fpu_i : int;        (* its defs *)
  mutable fpu_f : int;
  mutable load_i : int;       (* defs of prev instr when it was a load *)
  mutable load_f : int;
}

let fresh_window () : window =
  { pair_ready = false;
    pair_i = 0;
    pair_f = 0;
    fpu_busy = false;
    fpu_i = 0;
    fpu_f = 0;
    load_i = 0;
    load_f = 0 }

let reset (w : window) : unit =
  w.pair_ready <- false;
  w.pair_i <- 0;
  w.pair_f <- 0;
  w.fpu_busy <- false;
  w.fpu_i <- 0;
  w.fpu_f <- 0;
  w.load_i <- 0;
  w.load_f <- 0

(* 1-cycle integer ops eligible for dual-issue pairing. Expanded
   pseudo-instructions (setcc, movcc, la, ...) are excluded: their
   second micro-instruction occupies the pair slot. *)
let pairable (i : Asm.instr) : bool =
  match i with
  | Asm.Padd _ | Asm.Psubf _ | Asm.Pand _ | Asm.Por _ | Asm.Pxor _
  | Asm.Pslw _ | Asm.Psraw _ | Asm.Pneg _ | Asm.Pmr _ | Asm.Paddi _
  | Asm.Paddis _ | Asm.Pori _ | Asm.Pslwi _ | Asm.Pcmpw _ | Asm.Pcmpwi _ ->
    true
  | _ -> false

let is_fpu_arith (i : Asm.instr) : bool =
  match i with
  | Asm.Pfadd _ | Asm.Pfsub _ | Asm.Pfmul _ | Asm.Pfmadd _ | Asm.Pfmsub _ ->
    true
  | _ -> false

let is_load (i : Asm.instr) : bool =
  match i with
  | Asm.Plwz _ | Asm.Plfd _ | Asm.Plfdc _ -> true
  | _ -> false

(* Base cost of an instruction, before pairing/overlap/stall effects.
   Branches cost 0 here: their cost depends on the direction and is
   charged per executed edge ([branch_cost]), by the simulator when it
   jumps and by the analyzer on the corresponding CFG edge. *)
let base_cost (i : Asm.instr) : int =
  match i with
  | Asm.Plabel _ | Asm.Pannot _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr -> 0
  | Asm.Pmullw _ -> cost_mullw
  | Asm.Pdivw _ -> cost_divw
  | Asm.Pfdiv _ -> cost_fdiv
  | Asm.Pfadd _ | Asm.Pfsub _ | Asm.Pfmul _ | Asm.Pfmadd _ | Asm.Pfmsub _ ->
    cost_fpu
  | Asm.Pfcfiw _ | Asm.Pfctiwz _ -> 4
  | Asm.Plwz _ | Asm.Plfd _ | Asm.Plfdc _ -> cost_load
  | Asm.Pacqi _ | Asm.Pacqf _ -> cost_acquisition
  | Asm.Pouti _ | Asm.Poutf _ -> cost_actuator
  | _ -> 1  (* int ALU, stores, moves, compares, setcc, frame ops *)

(* Cost of executing [i] in window state [w]; updates the window.
   Cache-miss penalties are NOT included (the simulator adds concrete
   misses, the analyzer adds classified ones). *)
let step (w : window) (i : Asm.instr) : int =
  match i with
  | Asm.Plabel _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr ->
    reset w;
    0
  | Asm.Pannot _ -> 0  (* transparent: occupies no issue slot *)
  | _ ->
    let ui = Asm.iuses_mask i and uf = Asm.fuses_mask i in
    let di = Asm.idefs_mask i and df = Asm.fdefs_mask i in
    (* the registers a window must miss for this instruction to overlap *)
    let ti = ui lor di and tf = uf lor df in
    let stall =
      if w.load_i land ui <> 0 || w.load_f land uf <> 0 then load_use_stall
      else 0
    in
    let fpu = is_fpu_arith i and pair = pairable i in
    let cost =
      if fpu then begin
        if w.fpu_busy && w.fpu_i land ti = 0 && w.fpu_f land tf = 0 then
          cost_fpu_overlap
        else cost_fpu
      end
      else if pair then begin
        if stall = 0 && w.pair_ready && w.pair_i land ti = 0
           && w.pair_f land tf = 0
        then 0
        else base_cost i
      end
      else base_cost i
    in
    let cost = cost + stall in
    (* window update *)
    let load = is_load i in
    w.pair_ready <- pair && cost = 1;
    w.pair_i <- (if pair then di else 0);
    w.pair_f <- (if pair then df else 0);
    w.fpu_busy <- fpu;
    w.fpu_i <- (if fpu then di else 0);
    w.fpu_f <- (if fpu then df else 0);
    w.load_i <- (if load then di else 0);
    w.load_f <- (if load then df else 0);
    cost

(* Per-instruction costs of an instruction sequence, starting from a
   fresh window: the analyzer's block costs and the simulator's
   per-instruction costs. *)
let static_costs (code : Asm.instr array) : int array =
  let w = fresh_window () in
  Array.map (step w) code
