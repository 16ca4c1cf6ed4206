(* Reference for the value analysis's access table: the per-instruction
   resolution its consumers used to replay. For every memory instruction
   of a reachable block, [transfer] is folded over the block's prefix
   from the entry state, and the instruction is resolved by [slot_key]
   and [region_of_address] on the state just before it. *)

open Wcet.Valueanalysis
module Asm = Target.Asm

let resolve (st : state) (idx : int) (i : Asm.instr) : access option =
  let mem size a =
    Some { ac_index = idx; ac_size = size; ac_slot = slot_key st a;
           ac_region = region_of_address st a }
  in
  match i with
  | Asm.Plwz (_, a) | Asm.Pstw (_, a) -> mem 4 a
  | Asm.Plfd (_, a) | Asm.Pstfd (_, a) -> mem 8 a
  | Asm.Plfdc (_, c) ->
    Some { ac_index = idx; ac_size = 8; ac_slot = None; ac_region = Rpool c }
  | _ -> None

(* Per block, its memory instructions' accesses in order, as
   [r_accesses]. *)
let accesses (va : result) : access list array =
  Array.mapi
    (fun b entry ->
       match entry with
       | None -> []
       | Some st ->
         let instrs = (Wcet.Cfg.block va.r_cfg b).Wcet.Cfg.b_instrs in
         List.filter_map
           (fun idx ->
              match resolve st idx instrs.(idx) with
              | None -> None (* no memory instruction, in any state *)
              | Some _ ->
                let before =
                  Array.fold_left transfer st (Array.sub instrs 0 idx)
                in
                resolve before idx instrs.(idx))
           (List.init (Array.length instrs) Fun.id))
    va.r_entry_states

(* The table equals the reference access by access ([compare], so a NaN
   pool constant equals itself). *)
let equal (table : access array array) (reference : access list array) : bool =
  compare (Array.map Array.to_list table) reference = 0
