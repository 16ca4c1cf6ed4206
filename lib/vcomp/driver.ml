(* Compilation driver of the verified-style compiler ("vcomp", standing
   in for CompCert 1.7 extended with the Monniaux & Six middle-end):
   selection, then the declarative optimization pipeline of [Pass]
   (constant propagation, local CSE, global GVN-CSE, LICM, dead-code
   elimination), then graph-coloring register allocation, linearization
   and assembly emission.

   Every enabled optimization runs under its translation validator
   when [opt_validate] is on. The default options turn it on, but the
   toolchain's [Fcstack.Chain.build] sets it from its [~validate]
   argument, which only [fcc --validate] turns on. *)

type options = Pass.options = {
  opt_constprop : bool;
  opt_cse : bool;
  opt_gvn : bool;
  opt_licm : bool;
  opt_deadcode : bool;
  opt_validate : bool;
  opt_fuel : int;
}

let default_options : options = Pass.default_options

(* The base of the ablation configurations: every pass, no validators. *)
let no_validation : options = { default_options with opt_validate = false }

(* Compile a type-checked mini-C program through the pass pipeline,
   returning the final RTL, the assembly and the per-pass stats. *)
let compile_full ?(options = default_options) (src : Minic.Ast.program) :
  Rtl.program * Target.Asm.program * Pass.pass_stats list =
  Minic.Typecheck.check_program_exn src;
  let rtl = Selection.trans_program src in
  let rtl, stats = Pass.run_pipeline options rtl in
  (rtl, Asmgen.translate_program rtl, stats)

let compile ?options (src : Minic.Ast.program) : Target.Asm.program =
  let _, asm, _ = compile_full ?options src in
  asm
