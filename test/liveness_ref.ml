(* Reference liveness: the backward dataflow equations iterated
   globally over register sets until nothing changes, without a
   worklist. It is the oracle for the bit-row worklist of
   [Vcomp.Liveness] ("liveness: worklist = naive fixpoint"), and the
   liveness [Regalloc_ref.verify] reads, so that the reference
   validator shares no liveness code with [Vcomp.Regalloc.verify]. *)

module RegSet = Set.Make (Int)
module Rtl = Vcomp.Rtl

(* live_before(n) = (live_after(n) \ def(n)) ∪ use(n) *)
let live_before (i : Rtl.instruction) (after : RegSet.t) : RegSet.t =
  let minus_def =
    match Rtl.instr_def i with
    | Some d -> RegSet.remove d after
    | None -> after
  in
  List.fold_left (fun s r -> RegSet.add r s) minus_def (Rtl.instr_uses i)

(* [analyze f n]: the registers live after node [n] of [f]; empty at
   nodes the entry does not reach. *)
let analyze (f : Rtl.func) : Rtl.node -> RegSet.t =
  let nodes = Rtl.reverse_postorder f in
  let live_after : (Rtl.node, RegSet.t) Hashtbl.t = Hashtbl.create 251 in
  let get n = Option.value ~default:RegSet.empty (Hashtbl.find_opt live_after n) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
         let i = Rtl.get_instr f n in
         let after =
           List.fold_left
             (fun acc s ->
                RegSet.union acc (live_before (Rtl.get_instr f s) (get s)))
             RegSet.empty (Rtl.successors i)
         in
         if not (RegSet.equal after (get n)) then begin
           Hashtbl.replace live_after n after;
           changed := true
         end)
      nodes
  done;
  get
