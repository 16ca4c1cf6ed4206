(* The timing model's stepper as it was before its windows became
   register masks: the pairing, FPU and load windows are [Asm.reg]
   lists tested with [List.exists]/[List.mem]. The test oracle for
   [Target.Timing.static_costs] over random instruction sequences. *)

module Asm = Target.Asm
module Timing = Target.Timing

type window = {
  mutable pair_ready : bool;
  mutable pair_defs : Asm.reg list;
  mutable fpu_busy : bool;
  mutable fpu_defs : Asm.reg list;
  mutable load_defs : Asm.reg list;
}

let reset (w : window) : unit =
  w.pair_ready <- false;
  w.pair_defs <- [];
  w.fpu_busy <- false;
  w.fpu_defs <- [];
  w.load_defs <- []

let intersects (a : Asm.reg list) (b : Asm.reg list) : bool =
  List.exists (fun x -> List.mem x b) a

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

let base_cost (i : Asm.instr) : int =
  match i with
  | Asm.Plabel _ | Asm.Pannot _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr -> 0
  | Asm.Pmullw _ -> Timing.cost_mullw
  | Asm.Pdivw _ -> Timing.cost_divw
  | Asm.Pfdiv _ -> Timing.cost_fdiv
  | Asm.Pfadd _ | Asm.Pfsub _ | Asm.Pfmul _ | Asm.Pfmadd _ | Asm.Pfmsub _ ->
    Timing.cost_fpu
  | Asm.Pfcfiw _ | Asm.Pfctiwz _ -> 4
  | Asm.Plwz _ | Asm.Plfd _ | Asm.Plfdc _ -> Timing.cost_load
  | Asm.Pacqi _ | Asm.Pacqf _ -> Timing.cost_acquisition
  | Asm.Pouti _ | Asm.Poutf _ -> Timing.cost_actuator
  | _ -> 1

let step (w : window) (i : Asm.instr) : int =
  match i with
  | Asm.Plabel _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr ->
    reset w;
    0
  | Asm.Pannot _ -> 0
  | _ ->
    let uses = Asm.uses i in
    let defs = Asm.defs i in
    let stall =
      if intersects w.load_defs uses then Timing.load_use_stall else 0
    in
    let cost =
      if is_fpu_arith i then begin
        if w.fpu_busy
           && (not (intersects w.fpu_defs uses))
           && not (intersects w.fpu_defs defs)
        then Timing.cost_fpu_overlap
        else Timing.cost_fpu
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
    w.pair_ready <- pairable i && cost = 1;
    w.pair_defs <- (if pairable i then defs else []);
    w.fpu_busy <- is_fpu_arith i;
    w.fpu_defs <- (if is_fpu_arith i then defs else []);
    w.load_defs <- (if is_load i then defs else []);
    cost

let static_costs (code : Asm.instr array) : int array =
  let w =
    { pair_ready = false;
      pair_defs = [];
      fpu_busy = false;
      fpu_defs = [];
      load_defs = [] }
  in
  Array.map (step w) code
