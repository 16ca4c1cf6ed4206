(* Dead-code elimination: pure instructions whose destination is not
   live after them are turned into no-ops. Sweeps until a fixpoint, so
   chains of dead computations vanish (the common pattern left behind by
   CSE rewriting to moves).

   A sweep visits the nodes of the liveness walk: each node's
   instruction is read there before the sweep rewrites that node, and
   the removals depend only on the liveness as it stood before the
   sweep. A sweep never changes the CFG, so one liveness serves every
   sweep: after each, [Liveness.remove] re-solves only the registers the
   removed instructions read, and the rows are those a fresh analysis
   of the swept function would give. *)

let eliminate_once (f : Rtl.func) (lv : Liveness.t) : bool =
  let removed = ref [] in
  Liveness.iter_nodes lv (fun n i ->
      match i with
      | Rtl.Iop (_, _, d, s) | Rtl.Iload (_, _, _, d, s) ->
        (* the pure instructions: no effect beyond defining [d]
           (stores, acquisitions, outputs, annotations and returns
           always stay) *)
        if not (Liveness.is_live_after lv n d) then begin
          Rtl.set_instr f n (Rtl.Inop s);
          removed := n :: !removed
        end
      | _ -> ());
  Liveness.remove lv !removed;
  !removed <> []

let transform_func ?(fuel = 50) (f : Rtl.func) : unit =
  let lv = Liveness.analyze f in
  let rec loop (budget : int) : unit =
    if budget > 0 && eliminate_once f lv then loop (budget - 1)
  in
  loop fuel

let transform ?(fuel = 50) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
