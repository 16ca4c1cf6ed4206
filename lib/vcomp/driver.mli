(** Compilation driver of the verified-style compiler ("vcomp",
    standing in for CompCert 1.7 extended with a Monniaux & Six style
    middle-end): selection, the {!Pass} pipeline (constprop, local CSE,
    global GVN-CSE, LICM, deadcode), graph-coloring register
    allocation, linearization, emission. Optimizations run under their
    translation validators unless disabled. *)

type options = Pass.options = {
  opt_constprop : bool;
  opt_cse : bool;
  opt_gvn : bool;
  opt_licm : bool;
  opt_deadcode : bool;
  opt_validate : bool;
      (** run the per-pass differential validators (raises
          {!Validate.Validation_failed} on any behaviour change) *)
  opt_fuel : int;
      (** analysis budget for GVN/LICM/deadcode; exhaustion skips the
          pass, it never miscompiles *)
}

val default_options : options
(** All optimizations and validation on. *)

val no_validation : options

val compile : ?options:options -> Minic.Ast.program -> Target.Asm.program
(** Type-check and compile.
    @raise Invalid_argument on ill-typed programs;
    @raise Validate.Validation_failed if a validator rejects a pass;
    @raise Asmgen.Error if the register-allocation checker rejects. *)

val compile_full :
  ?options:options ->
  Minic.Ast.program ->
  Rtl.program * Target.Asm.program * Pass.pass_stats list
(** Also return the optimized RTL (for [--dump-rtl]) and the per-pass
    stats (for stderr accounting). *)
