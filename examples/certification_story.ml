(* The certification argument of the paper, executable.

   Section 3.1/3.5: the current process trusts the non-optimized
   compiler because every symbol yields a reviewable pattern; an
   optimizing COTS compiler cannot be reviewed that way; CompCert's
   semantic-preservation guarantee would allow optimization *with*
   certification credit. Our substrate makes the trade concrete:

   - the verified-style compiler passes whole-chain translation
     validation on every node (the runtime stand-in for the Coq proof);
   - the fully-optimized default compiler, with its -O2 FMA
     contraction enabled (as real embedded compilers ship it), produces
     traces that are NOT bit-exact against the source semantics —
     demonstrated below — which is precisely why its output cannot be
     accepted without the pattern review the optimization destroys.

     dune exec examples/certification_story.exe *)

let () =
  let nodes = Scade.Workload.flight_program ~nodes:16 ~seed:424242 in
  let validated = ref 0 in
  let fma_divergent = ref 0 in
  List.iter
    (fun ((node : Scade.Symbol.node), src) ->
       (* vcomp, with per-pass validators active *)
       let bv = Fcstack.Chain.build ~validate:true Fcstack.Chain.Cvcomp src in
       (match Fcstack.Chain.validate_chain ~cycles:5 bv with
        | Ok () -> incr validated
        | Error msg ->
          Printf.printf "UNEXPECTED vcomp failure on %s:\n%s\n"
            node.Scade.Symbol.n_name msg);
       (* default -O2 as shipped (FMA contraction on) *)
       let bo2 = Fcstack.Chain.build Fcstack.Chain.Cdefault_o2 src in
       (match Fcstack.Chain.validate_chain ~cycles:5 bo2 with
        | Ok () -> ()
        | Error _ -> incr fma_divergent))
    nodes;
  Printf.printf
    "verified-style compiler : %d/%d nodes bit-exact (per-pass validators + \
     whole-chain check)\n"
    !validated (List.length nodes);
  Printf.printf
    "default -O2 (shipped)   : %d/%d nodes diverge from source semantics \
     (FMA contraction)\n"
    !fma_divergent (List.length nodes);
  print_endline
    "\nThe divergent nodes are not miscompiled — the contraction is a legal\n\
     fast-math transformation — but neither a pattern review nor a formal\n\
     semantic-preservation argument can accept them. That is the paper's\n\
     case for a formally verified optimizing compiler.";
  (* the structural half of the validation story: corrupt a register
     allocation and watch the independent checker reject it *)
  let src = snd (List.hd nodes) in
  let rtl = Vcomp.Selection.trans_program src in
  let f = List.hd rtl.Vcomp.Rtl.p_funcs in
  let lv = Vcomp.Liveness.analyze f in
  let res = Vcomp.Regalloc.allocate f lv in
  (match Vcomp.Regalloc.verify f lv res with
   | Ok () -> print_endline "\nregalloc validator: correct allocation accepted"
   | Error msg -> Printf.printf "\nUNEXPECTED: %s\n" msg);
  (* merge an interfering pair of pseudo-registers (a register of the
     same class live after a definition, not the source of its move): by
     construction the validator must reject the resulting allocation *)
  let corrupt () : bool =
    let found = ref false in
    Vcomp.Liveness.iter_nodes lv (fun n i ->
        match Vcomp.Rtl.instr_def i with
        | Some d when not !found ->
          let src =
            match i with Vcomp.Rtl.Iop (Vcomp.Rtl.Omove, [ s ], _, _) -> s | _ -> d
          in
          Vcomp.Liveness.iter_live_after lv n (fun r ->
              if (not !found) && r <> d && r <> src
                 && Vcomp.Rtl.reg_class f r = Vcomp.Rtl.reg_class f d
                 && not
                      (Vcomp.Regalloc.loc_equal
                         (Vcomp.Regalloc.location res r)
                         (Vcomp.Regalloc.location res d)) then begin
                res.Vcomp.Regalloc.ra_alloc.(r) <- res.Vcomp.Regalloc.ra_alloc.(d);
                found := true
              end)
        | _ -> ());
    !found
  in
  if corrupt () then
    match Vcomp.Regalloc.verify f lv res with
    | Ok () ->
      print_endline
        "regalloc validator: UNEXPECTED acceptance of a corrupted allocation"
    | Error msg ->
      Printf.printf "regalloc validator: corrupted allocation REJECTED\n  (%s)\n"
        msg
  else print_endline "regalloc validator: no interfering pair to corrupt"
