(* Reference allocation validator: [Vcomp.Regalloc.verify] as it was
   written over register sets, kept as the oracle for the array-based
   one. It builds a [RegSet] per node and per definition and looks
   classes and locations up in the hash tables; it reads the naive
   set-based liveness fixpoint, so it shares no liveness code with the
   validator under test. The verdict and the first message of both must
   agree on every allocation in which each compared register has a class
   and a location (this one raises otherwise). *)

module RegSet = Vcomp.Liveness.RegSet
module Rtl = Vcomp.Rtl
module Regalloc = Vcomp.Regalloc

let verify (f : Rtl.func) (res : Regalloc.result) : (unit, string) Result.t =
  let lv = Vcomp.Liveness.analyze_naive f in
  let bad = ref None in
  List.iter
    (fun n ->
       let i = Rtl.get_instr f n in
       match Rtl.instr_def i with
       | Some d ->
         let live = Vcomp.Liveness.live_after lv n in
         let exclude =
           match i with
           | Rtl.Iop (Rtl.Omove, [ s ], _, _) -> RegSet.of_list [ d; s ]
           | _ -> RegSet.singleton d
         in
         RegSet.iter
           (fun r ->
              if (not (RegSet.mem r exclude))
              && Rtl.reg_class f r = Rtl.reg_class f d
              && Regalloc.loc_equal (Regalloc.location res r)
                   (Regalloc.location res d)
              && !bad = None then
                bad :=
                  Some
                    (Printf.sprintf
                       "node %d: x%d and x%d are simultaneously live in the same location"
                       n d r))
           live
       | None -> ())
    (Rtl.reverse_postorder f);
  match !bad with
  | None -> Ok ()
  | Some msg -> Error msg
