(* The memo key payload as [Wcet.Memo.key] built it before its
   canonical encoding: [Marshal] of the instruction list with volatile
   signal names blanked, the base address, the layout slice the code
   touches in first-use order, the fuel triple, the spec and the
   engine name. With [~flags:[Marshal.No_sharing]] it is a function of
   content, and the test oracle for the encoding's injectivity: two
   inputs must get equal [Memo.payload]s exactly when they get equal
   payloads here. With the default [~flags:[]] it is the old key, whose
   back-references depend on physical sharing. *)

module Asm = Target.Asm

let normalize_instr (i : Asm.instr) : Asm.instr =
  match i with
  | Asm.Pacqi (r, _) -> Asm.Pacqi (r, "")
  | Asm.Pacqf (f, _) -> Asm.Pacqf (f, "")
  | Asm.Pouti (_, r) -> Asm.Pouti ("", r)
  | Asm.Poutf (_, f) -> Asm.Poutf ("", f)
  | _ -> i

let payload ?(flags = []) ?(fuel = Wcet.Fuel.default) ?(spec = "")
    ?(engine = Wcet.Report.Ipet) (lay : Target.Layout.t) ~(base : int)
    (f : Asm.func) : string =
  let syms = ref [] and seen_syms = Hashtbl.create 8 in
  let consts = ref [] and seen_consts = Hashtbl.create 8 in
  let sym (s : string) : unit =
    if not (Hashtbl.mem seen_syms s) then begin
      Hashtbl.add seen_syms s ();
      syms := s :: !syms
    end
  in
  let const (c : float) : unit =
    let bits = Int64.bits_of_float c in
    if not (Hashtbl.mem seen_consts bits) then begin
      Hashtbl.add seen_consts bits ();
      consts := bits :: !consts
    end
  in
  let addr (a : Asm.address) : unit =
    match a with
    | Asm.Aglob (s, _) | Asm.Asda (s, _) -> sym s
    | Asm.Aind _ | Asm.Aindx _ -> ()
  in
  List.iter
    (fun i ->
       match i with
       | Asm.Plwz (_, a) | Asm.Pstw (_, a) | Asm.Plfd (_, a)
       | Asm.Pstfd (_, a) -> addr a
       | Asm.Pla (_, s) -> sym s
       | Asm.Plfdc (_, c) -> const c
       | _ -> ())
    f.Asm.fn_code;
  let slice =
    ( List.rev_map
        (fun s ->
           ( s,
             Hashtbl.find_opt lay.Target.Layout.lay_sym s,
             Hashtbl.find_opt lay.Target.Layout.lay_sym_size s ))
        !syms,
      List.rev_map
        (fun bits -> (bits, Hashtbl.find_opt lay.Target.Layout.lay_consts bits))
        !consts,
      lay.Target.Layout.lay_stack_top )
  in
  Marshal.to_string
    ( List.map normalize_instr f.Asm.fn_code,
      base,
      slice,
      ( fuel.Wcet.Fuel.fl_widen,
        fuel.Wcet.Fuel.fl_simplex,
        fuel.Wcet.Fuel.fl_bb_nodes ),
      spec,
      Wcet.Report.engine_name engine )
    flags
