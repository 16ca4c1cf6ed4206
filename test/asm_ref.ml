(* The register sets of [Target.Asm] as they were before they became
   bit masks: lists of [Asm.reg]. The test oracle for the masks
   ("asm: register masks = defs/uses lists") and the register form of
   the list-based timing stepper in [Timing_ref]. *)

open Target.Asm

let addr_uses (a : address) : reg list =
  match a with
  | Aind (b, _) -> [ IR b ]
  | Aindx (b, x) -> [ IR b; IR x ]
  | Aglob _ | Asda _ -> []

let defs (i : instr) : reg list =
  match i with
  | Padd (d, _, _) | Psubf (d, _, _) | Pmullw (d, _, _) | Pdivw (d, _, _)
  | Pand (d, _, _) | Por (d, _, _) | Pxor (d, _, _) | Pslw (d, _, _)
  | Psraw (d, _, _) | Pneg (d, _) | Pmr (d, _) | Paddi (d, _, _)
  | Paddis (d, _, _) | Pori (d, _, _) | Pslwi (d, _, _) | Plwz (d, _)
  | Pla (d, _) | Psetcc (d, _) | Pmovcc (d, _, _) | Pacqi (d, _)
  | Pfctiwz (d, _) -> [ IR d ]
  | Plfd (d, _) | Plfdc (d, _) | Pfadd (d, _, _) | Pfsub (d, _, _)
  | Pfmul (d, _, _) | Pfdiv (d, _, _) | Pfmadd (d, _, _, _)
  | Pfmsub (d, _, _, _) | Pfneg (d, _) | Pfabs (d, _) | Pfmr (d, _)
  | Pfmovcc (d, _, _) | Pacqf (d, _) | Pfcfiw (d, _) -> [ FR d ]
  | Pallocframe _ | Pfreeframe _ -> [ IR sp ]
  | Pstw _ | Pstfd _ | Pouti _ | Poutf _ | Pcmpw _ | Pcmpwi _ | Pfcmpu _
  | Pannot _ | Plabel _ | Pb _ | Pbc _ | Pblr -> []

let uses (i : instr) : reg list =
  match i with
  | Padd (_, a, b) | Psubf (_, a, b) | Pmullw (_, a, b) | Pdivw (_, a, b)
  | Pand (_, a, b) | Por (_, a, b) | Pxor (_, a, b) | Pslw (_, a, b)
  | Psraw (_, a, b) | Pcmpw (a, b) -> [ IR a; IR b ]
  | Pneg (_, a) | Pmr (_, a) | Pori (_, a, _) | Pslwi (_, a, _)
  | Pcmpwi (a, _) | Pfcfiw (_, a) -> [ IR a ]
  | Paddi (_, a, _) | Paddis (_, a, _) -> if a = 0 then [] else [ IR a ]
  | Plwz (_, a) | Plfd (_, a) -> addr_uses a
  | Pstw (s, a) -> IR s :: addr_uses a
  | Pstfd (s, a) -> FR s :: addr_uses a
  | Pmovcc (d, s, _) -> [ IR d; IR s ]  (* d only conditionally written *)
  | Pfmovcc (d, s, _) -> [ FR d; FR s ]
  | Pfadd (_, a, b) | Pfsub (_, a, b) | Pfmul (_, a, b) | Pfdiv (_, a, b)
  | Pfcmpu (a, b) -> [ FR a; FR b ]
  | Pfmadd (_, a, b, c) | Pfmsub (_, a, b, c) -> [ FR a; FR b; FR c ]
  | Pfneg (_, a) | Pfabs (_, a) | Pfmr (_, a) | Pfctiwz (_, a) -> [ FR a ]
  | Pouti (_, r) -> [ IR r ]
  | Poutf (_, f) -> [ FR f ]
  | Pannot (_, args) ->
    List.filter_map
      (fun a ->
         match a with
         | AA_ireg r -> Some (IR r)
         | AA_freg f -> Some (FR f)
         | AA_const_int _ | AA_const_float _ | AA_stack_int _
         | AA_stack_float _ -> None)
      args
  | Pallocframe _ | Pfreeframe _ -> [ IR sp ]
  | Plfdc _ | Pla _ | Psetcc _ | Pacqi _ | Pacqf _ | Plabel _ | Pb _
  | Pbc _ | Pblr -> []
