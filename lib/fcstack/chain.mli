(** The full development chain of the paper's Figure 1: specification
    through compilation to executable simulation and WCET analysis,
    with the verification activities around it. *)

type compiler = Toolchain.compiler =
  | Cdefault_o0  (** COTS baseline, certified pattern configuration *)
  | Cdefault_o1  (** COTS baseline, optimized without register allocation *)
  | Cdefault_o2  (** COTS baseline, fully optimized (FMA contraction on) *)
  | Cvcomp       (** verified-style optimizing compiler *)
(** Re-export of {!Toolchain.compiler} (the type lives there so
    {!Toolchain.config} can carry it). *)

val all_compilers : compiler list
val compiler_name : compiler -> string
val compiler_description : compiler -> string

val pipeline_spec :
  ?exact:bool -> ?passes:Vcomp.Pass.options -> compiler -> string
(** Canonical spec of what produces the assembly under a configuration
    (e.g. ["o2+fma"], ["vcomp:constprop,cse,gvn,licm,deadcode"]);
    joined into the WCET analysis-cache content key. *)

val compile :
  ?exact:bool -> ?validate:bool -> ?passes:Vcomp.Pass.options -> compiler ->
  Minic.Ast.program -> Target.Asm.program
(** [exact] disables semantics-relaxing optimizations (default-O2's FMA
    contraction); [passes] selects the vcomp middle-end pipeline
    (default: everything on); [validate] turns on vcomp's per-pass
    validators. *)

type built = {
  b_source : Minic.Ast.program;
  b_asm : Target.Asm.program;
  b_layout : Target.Layout.t;
  b_compiler : compiler;
  b_spec : string;  (** {!pipeline_spec} of the producing configuration *)
  b_pass_stats : Vcomp.Pass.pass_stats list;
      (** per-pass middle-end stats; empty for COTS builds *)
}

val build :
  ?exact:bool -> ?validate:bool -> ?passes:Vcomp.Pass.options -> compiler ->
  Minic.Ast.program -> built

val simulate :
  ?cycles:int -> ?fuel:int -> built -> Minic.Interp.world ->
  Target.Sim.run_result
(** [fuel] bounds the executed machine steps ([Target.Sim]'s default
    otherwise).
    @raise Minic.Interp.Out_of_fuel when it runs out — a diverging
    program never hangs the pipeline. *)

val wcet : ?config:Toolchain.config -> built -> Wcet.Report.t
(** Static WCET of the built node's entry point. Only the config's
    [cache] and [analysis_fuel] fields are consulted (the node is
    already built); the cache shares finished analyses across nodes,
    configurations and — when persistent — process runs (identical
    results, fewer recomputations).
    @raise Wcet.Driver.Error when the analyzer refuses — including
    "analysis diverged" on an exhausted fuel budget (a refusal is
    never cached and never an unsound bound). *)

val validate_chain :
  ?cycles:int -> ?worlds:int -> ?seeds:int list -> ?sim_fuel:int -> built ->
  (unit, string) Result.t
(** Whole-chain differential validation: the machine code must produce
    the same observable behaviour as the source interpreter on every
    listed world. Batched: one compile+layout (the [built]) is checked
    against the whole battery. [~worlds:n] uses seeds 1..n and takes
    precedence over [~seeds]. Expected to fail for [Cdefault_o2] built
    without [~exact:true] — the paper's certification point. *)
