(* Post-pass list scheduler (full -O configuration only): reorders
   instructions inside basic blocks to break FPU dependence chains and
   hide load-to-use stalls, harvesting the dual-issue/pipelined-FPU
   overlap of the timing model. CompCert 1.7 had no scheduler (the
   paper's future-work section points at Tristan & Leroy's verified
   trace scheduling) — this pass is a differentiator of the COTS -O2.

   Dependence edges:
   - register RAW / WAR / WAW;
   - stores are ordered against every other memory access; loads may
     reorder freely among themselves (the constant pool is read-only);
   - observable operations (volatile acquisitions, actuator writes,
     annotations) keep their program order — the event trace is part of
     the semantics. *)

module Asm = Target.Asm

type mem_class =
  | Mnone
  | Mload
  | Mstore
  | Mobservable

let mem_class (i : Asm.instr) : mem_class =
  match i with
  | Asm.Plwz _ | Asm.Plfd _ | Asm.Plfdc _ -> Mload
  | Asm.Pstw _ | Asm.Pstfd _ -> Mstore
  | Asm.Pacqf _ | Asm.Pacqi _ | Asm.Poutf _ | Asm.Pouti _ | Asm.Pannot _ ->
    Mobservable
  | _ -> Mnone

(* Is the instruction immovable (block boundary)? *)
let boundary (i : Asm.instr) : bool =
  match i with
  | Asm.Plabel _ | Asm.Pb _ | Asm.Pbc _ | Asm.Pblr | Asm.Pallocframe _
  | Asm.Pfreeframe _ -> true
  | _ -> false

(* Register sets are (integer, float) pairs of [Asm] masks. CR0 is
   modelled as an extra dependence register, bit 32 of the integer mask
   (registers take bits 0-31), so that compares and setcc participate
   in scheduling soundly. Branches are boundaries, so a compare can
   never be moved past the Pbc consuming its result. *)
let cr0 : int = 1 lsl 32

let sdefs (i : Asm.instr) : int * int =
  let cr =
    match i with Asm.Pcmpw _ | Asm.Pcmpwi _ | Asm.Pfcmpu _ -> cr0 | _ -> 0
  in
  (Asm.idefs_mask i lor cr, Asm.fdefs_mask i)

let suses (i : Asm.instr) : int * int =
  let cr =
    match i with Asm.Psetcc _ | Asm.Pmovcc _ | Asm.Pfmovcc _ -> cr0 | _ -> 0
  in
  (Asm.iuses_mask i lor cr, Asm.fuses_mask i)

let intersects ((ai, af) : int * int) ((bi, bf) : int * int) : bool =
  ai land bi <> 0 || af land bf <> 0

(* Schedule one region (no boundaries inside). *)
let schedule_region (instrs : Asm.instr array) : Asm.instr list =
  let n = Array.length instrs in
  if n <= 2 then Array.to_list instrs
  else begin
    (* dependence predecessors *)
    let preds = Array.make n [] in
    let add_edge i j = if i <> j then preds.(j) <- i :: preds.(j) in
    let defs = Array.map sdefs instrs and uses = Array.map suses instrs in
    for j = 0 to n - 1 do
      for i = 0 to j - 1 do
        let di = defs.(i) and dj = defs.(j) in
        let ui = uses.(i) and uj = uses.(j) in
        let reg_dep =
          intersects di uj (* RAW *)
          || intersects ui dj (* WAR *)
          || intersects di dj (* WAW *)
        in
        let mem_dep =
          match mem_class instrs.(i), mem_class instrs.(j) with
          | Mstore, (Mload | Mstore | Mobservable)
          | (Mload | Mobservable), Mstore -> true
          | Mobservable, Mobservable -> true
          | Mload, Mobservable | Mobservable, Mload -> true
          | Mload, Mload | Mnone, _ | _, Mnone -> false
        in
        if reg_dep || mem_dep then add_edge i j
      done
    done;
    let scheduled = Array.make n false in
    let npreds = Array.map List.length preds in
    let out = ref [] in
    let last_defs = ref (0, 0) in
    for _ = 1 to n do
      (* ready instructions *)
      let ready = ref [] in
      for j = n - 1 downto 0 do
        if (not scheduled.(j)) && npreds.(j) = 0 then ready := j :: !ready
      done;
      (* prefer a ready instruction not consuming the last result *)
      let pick =
        match
          List.find_opt
            (fun j -> not (intersects !last_defs uses.(j)))
            !ready
        with
        | Some j -> j
        | None -> List.hd !ready
      in
      scheduled.(pick) <- true;
      last_defs := defs.(pick);
      out := pick :: !out;
      for j = 0 to n - 1 do
        if (not scheduled.(j)) && List.mem pick preds.(j) then
          npreds.(j) <- npreds.(j) - List.length (List.filter (fun p -> p = pick) preds.(j))
      done
    done;
    List.rev_map (fun j -> instrs.(j)) !out
  end

let run_func (f : Asm.func) : Asm.func =
  let rec split (code : Asm.instr list) (region : Asm.instr list)
      (acc : Asm.instr list) : Asm.instr list =
    match code with
    | [] -> List.rev_append (schedule_region (Array.of_list (List.rev region))) acc |> List.rev
    | i :: rest ->
      if boundary i then
        let done_region =
          List.rev_append (schedule_region (Array.of_list (List.rev region))) acc
        in
        split rest [] (i :: done_region)
      else split rest (i :: region) acc
  in
  { f with Asm.fn_code = split f.Asm.fn_code [] [] }

let run (p : Asm.program) : Asm.program =
  { p with Asm.pr_funcs = List.map run_func p.Asm.pr_funcs }
