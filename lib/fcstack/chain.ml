(* The full development chain of the paper's Figure 1:

     SCADE-like spec --ACG--> C code --compiler--> assembly
        --link/load--> {executable simulation, WCET analysis}

   plus the verification activities around it: per-pass translation
   validation inside the verified-style compiler, and whole-chain
   differential validation (source interpreter vs machine simulator)
   for every compiler. *)

(* The configuration type lives in [Toolchain] (so [Toolchain.config]
   can carry one); re-exported here as an equation, so [Chain.Cvcomp]
   and friends keep working. *)
type compiler = Toolchain.compiler =
  | Cdefault_o0   (* COTS baseline, certified pattern configuration *)
  | Cdefault_o1   (* COTS baseline, optimized without register allocation *)
  | Cdefault_o2   (* COTS baseline, fully optimized (incl. FMA contraction) *)
  | Cvcomp        (* verified-style optimizing compiler (CompCert stand-in) *)

let all_compilers = [ Cdefault_o0; Cdefault_o1; Cdefault_o2; Cvcomp ]

let compiler_name (c : compiler) : string =
  match c with
  | Cdefault_o0 -> "default-O0"
  | Cdefault_o1 -> "default-O1"
  | Cdefault_o2 -> "default-O2"
  | Cvcomp -> "vcomp"

let compiler_description (c : compiler) : string =
  match c with
  | Cdefault_o0 -> "default compiler, no optimization (patterns)"
  | Cdefault_o1 -> "default compiler, optimized w/o register allocation"
  | Cdefault_o2 -> "default compiler, fully optimized"
  | Cvcomp -> "CompCert-style verified compiler"

(* The canonical pipeline spec of a configuration: what produced the
   assembly. Joined into the WCET analysis-cache content key by [wcet]
   — two pipelines can produce different assembly for the same
   source, and even identical assembly must not share entries across
   toolchain configurations silently. *)
let pipeline_spec ?(exact = false)
    ?(passes = Vcomp.Pass.default_options) (c : compiler) : string =
  match c with
  | Cdefault_o0 -> "o0"
  | Cdefault_o1 -> "o1"
  | Cdefault_o2 -> if exact then "o2" else "o2+fma"
  | Cvcomp -> "vcomp:" ^ Vcomp.Pass.spec passes

(* Compile a mini-C program under a configuration. [exact] forces
   bit-exact source semantics (disables the default-O2 FMA contraction);
   [passes] selects the vcomp middle-end pipeline, whose per-pass
   validators are controlled by [validate]. *)
let compile ?(exact = false) ?(validate = false)
    ?(passes = Vcomp.Pass.default_options) (c : compiler)
    (src : Minic.Ast.program) : Target.Asm.program =
  match c with
  | Cdefault_o0 -> Cotsc.Driver.compile ~level:Cotsc.Driver.Onone src
  | Cdefault_o1 -> Cotsc.Driver.compile ~level:Cotsc.Driver.Onoregalloc src
  | Cdefault_o2 ->
    Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull ~contract_fma:(not exact) src
  | Cvcomp ->
    Vcomp.Driver.compile ~options:{ passes with opt_validate = validate } src

(* A fully built node: source, assembly, layout, plus the pipeline spec
   that produced it and (for vcomp) the per-pass stats. *)
type built = {
  b_source : Minic.Ast.program;
  b_asm : Target.Asm.program;
  b_layout : Target.Layout.t;
  b_compiler : compiler;
  b_spec : string;
  b_pass_stats : Vcomp.Pass.pass_stats list; (* empty for COTS builds *)
}

let build ?exact ?validate ?(passes = Vcomp.Pass.default_options)
    (c : compiler) (src : Minic.Ast.program) : built =
  let asm, stats =
    match c with
    | Cvcomp ->
      let validate = Option.value ~default:false validate in
      let _, asm, stats =
        Vcomp.Driver.compile_full
          ~options:{ passes with opt_validate = validate } src
      in
      (asm, stats)
    | Cdefault_o0 | Cdefault_o1 | Cdefault_o2 ->
      (compile ?exact ?validate ~passes c src, [])
  in
  { b_source = src;
    b_asm = asm;
    b_layout = Target.Layout.build src asm;
    b_compiler = c;
    b_spec = pipeline_spec ?exact ~passes c;
    b_pass_stats = stats }

(* Run the built node on the simulator. [fuel] bounds the executed
   steps (Target.Sim's default otherwise): a diverging program raises
   Minic.Interp.Out_of_fuel instead of hanging the pipeline. *)
let simulate ?cycles ?fuel (b : built) (w : Minic.Interp.world) :
  Target.Sim.run_result =
  Target.Sim.run ?cycles ?fuel ~source:b.b_source b.b_asm b.b_layout w []

(* Static WCET of the built node's entry point. The config's cache
   shares finished per-function analyses across nodes, compiler
   configurations and — when persistent — process runs
   (content-addressed: hits require identical code, placement, fuel
   budgets and engine, so results never change — see Wcet.Memo). Only
   the [cache], [analysis_fuel] and [engine] fields are consulted: the
   node is already built. *)
let wcet ?(config = Toolchain.default) (b : built) : Wcet.Report.t =
  Wcet.Driver.analyze ?cache:config.Toolchain.cache
    ~fuel:config.Toolchain.analysis_fuel ~spec:b.b_spec
    ~engine:config.Toolchain.engine b.b_asm b.b_layout

(* Whole-chain differential validation: the machine code must produce
   the same observable behaviour as the source interpreter on a battery
   of worlds (several cycles each, to exercise the state-carrying
   symbols). For the fully-optimized default configuration with FMA
   contraction this is expected to FAIL on some inputs — the
   certification point of the paper — so callers choose [exact].

   Validation is batched: one compile+layout ([b], built once by the
   caller) is exercised against the whole battery, so widening the
   battery costs only interpreter/simulator runs. [~worlds:n] is the
   batch form — seeds 1..n — used by the qcheck trace-equivalence
   harness; [~seeds] picks the battery explicitly. *)
let validate_chain ?(cycles = 4) ?worlds ?(seeds = [ 1; 2; 3 ]) ?sim_fuel
    (b : built) : (unit, string) Result.t =
  let seeds =
    match worlds with
    | Some n -> List.init n (fun i -> i + 1)
    | None -> seeds
  in
  let check (seed : int) : (unit, string) Result.t =
    let w () = Minic.Interp.seeded_world ~seed () in
    let ri = Minic.Interp.run_cycles b.b_source (w ()) ~cycles in
    let rs = (simulate ~cycles ?fuel:sim_fuel b (w ())).Target.Sim.rr_result in
    if Minic.Interp.result_equal ri rs then Ok ()
    else
      Error
        (Format.asprintf
           "trace mismatch (%s, seed %d):@.source: %a@.machine: %a"
           (compiler_name b.b_compiler) seed Minic.Interp.pp_result ri
           Minic.Interp.pp_result rs)
  in
  List.fold_left
    (fun acc seed -> match acc with Ok () -> check seed | Error _ -> acc)
    (Ok ()) seeds
