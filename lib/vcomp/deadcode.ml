(* Dead-code elimination: pure instructions whose destination is not
   live after them are turned into no-ops. Iterates with liveness
   recomputation until a fixpoint, so chains of dead computations vanish
   (the common pattern left behind by CSE rewriting to moves). *)

let eliminate_once (f : Rtl.func) : bool =
  let lv = Liveness.analyze f in
  let changed = ref false in
  List.iter
    (fun n ->
       let i = Rtl.get_instr f n in
       if not (Rtl.has_effect i) then
         match i, Rtl.instr_def i with
         | (Rtl.Iop (_, _, _, s) | Rtl.Iload (_, _, _, _, s)), Some d ->
           if not (Liveness.is_live_after lv n d) then begin
             Rtl.set_instr f n (Rtl.Inop s);
             changed := true
           end
         | _, _ -> ())
    (Rtl.reverse_postorder f);
  !changed

let transform_func ?(fuel = 50) (f : Rtl.func) : unit =
  let rec loop (budget : int) : unit =
    if budget > 0 && eliminate_once f then loop (budget - 1)
  in
  loop fuel

let transform ?(fuel = 50) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
