(* Driver of the COTS baseline compiler. The three configurations match
   the paper's evaluation:
   - [Onone]: no optimization, fixed per-symbol code patterns (the
     certified production configuration);
   - [Onoregalloc]: optimized without register allocation;
   - [Ofull]: fully optimized. *)

type level =
  | Onone
  | Onoregalloc
  | Ofull

let config_of_level (l : level) : Codegen.config =
  match l with
  | Onone -> Codegen.o0
  | Onoregalloc -> Codegen.o1
  | Ofull -> Codegen.o2

(* [contract_fma] (default true, as a real -O2 would) may be disabled
   to obtain bit-exact source semantics from the Ofull configuration —
   the trace-equivalence tests do so; see [Codegen.config]. *)
let compile ?(level = Onone) ?(contract_fma = true) (src : Minic.Ast.program) :
  Target.Asm.program =
  Minic.Typecheck.check_program_exn src;
  let cfg = config_of_level level in
  let cfg = { cfg with Codegen.cg_fmadd = cfg.Codegen.cg_fmadd && contract_fma } in
  let asm = Codegen.gen_program cfg src in
  let asm = Peephole.sanitize asm in
  let asm =
    if cfg.Codegen.cg_peephole then
      (* slot forwarding only with register allocation (full -O) *)
      Peephole.run ~forward_slots:cfg.Codegen.cg_regstack asm
    else asm
  in
  (* block-local list scheduling: full -O only *)
  if cfg.Codegen.cg_regstack then Sched.run asm else asm
