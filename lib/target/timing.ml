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

(* ---- the stepper behind [static_costs] ---- *)

type window = {
  mutable pair_ready : bool;       (* prev was an unpaired 1-cycle int op *)
  mutable pair_defs : Asm.reg list;
  mutable fpu_busy : bool;         (* prev was a pipelined FPU arith op *)
  mutable fpu_defs : Asm.reg list;
  mutable load_defs : Asm.reg list; (* defs of prev instr when it was a load *)
}

let fresh_window () : window =
  { pair_ready = false;
    pair_defs = [];
    fpu_busy = false;
    fpu_defs = [];
    load_defs = [] }

let reset (w : window) : unit =
  w.pair_ready <- false;
  w.pair_defs <- [];
  w.fpu_busy <- false;
  w.fpu_defs <- [];
  w.load_defs <- []

let intersects (a : Asm.reg list) (b : Asm.reg list) : bool =
  List.exists (fun x -> List.mem x b) a

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
    let uses = Asm.uses i in
    let defs = Asm.defs i in
    let stall =
      if intersects w.load_defs uses then load_use_stall else 0
    in
    let cost =
      if is_fpu_arith i then begin
        if w.fpu_busy
           && (not (intersects w.fpu_defs uses))
           && not (intersects w.fpu_defs defs)
        then cost_fpu_overlap
        else cost_fpu
      end
      else if pairable i then begin
        if stall = 0 && w.pair_ready
           && (not (intersects w.pair_defs uses))
           && not (intersects w.pair_defs defs)
        then 0
        else base_cost i
      end
      else base_cost i
    in
    let cost = cost + stall in
    (* window update *)
    w.pair_ready <- pairable i && cost = 1;
    w.pair_defs <- (if pairable i then defs else []);
    w.fpu_busy <- is_fpu_arith i;
    w.fpu_defs <- (if is_fpu_arith i then defs else []);
    w.load_defs <- (if is_load i then defs else []);
    cost

(* Per-instruction costs of an instruction sequence, starting from a
   fresh window: the analyzer's block costs and the simulator's
   per-instruction costs. *)
let static_costs (code : Asm.instr array) : int array =
  let w = fresh_window () in
  Array.map (step w) code
