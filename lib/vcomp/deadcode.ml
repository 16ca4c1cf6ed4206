(* Dead-code elimination: pure instructions whose destination is not
   live after them are turned into no-ops. Iterates with liveness
   recomputation until a fixpoint, so chains of dead computations vanish
   (the common pattern left behind by CSE rewriting to moves).

   A sweep visits the nodes of the liveness walk: each node's
   instruction is read there before the sweep rewrites that node, and
   the removals depend only on the liveness computed before the sweep. *)

let eliminate_once (f : Rtl.func) : bool =
  let lv = Liveness.analyze f in
  let changed = ref false in
  Liveness.iter_nodes lv (fun n i ->
      match i with
      | Rtl.Iop (_, _, d, s) | Rtl.Iload (_, _, _, d, s) ->
        (* the pure instructions: no effect beyond defining [d]
           (stores, acquisitions, outputs, annotations and returns
           always stay) *)
        if not (Liveness.is_live_after lv n d) then begin
          Rtl.set_instr f n (Rtl.Inop s);
          changed := true
        end
      | _ -> ());
  !changed

let transform_func ?(fuel = 50) (f : Rtl.func) : unit =
  let rec loop (budget : int) : unit =
    if budget > 0 && eliminate_once f then loop (budget - 1)
  in
  loop fuel

let transform ?(fuel = 50) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
