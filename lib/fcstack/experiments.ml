(* Reproduction drivers for every quantitative artifact of the paper's
   evaluation (section 3.3): Listings 1/2, Table 1, Figure 2, the
   annotation flow of section 3.4, plus the ablation studies DESIGN.md
   adds. Each driver returns structured data and offers a printer that
   emits the same rows/series the paper reports. *)

type per_compiler = {
  pc_compiler : Chain.compiler;
  pc_wcet : int;
  pc_size : int;
  pc_reads : int;   (* executed data-cache read accesses, one cycle *)
  pc_writes : int;
}

type node_result = {
  nr_name : string;
  nr_per : per_compiler list;
}

type workload_results = {
  wr_nodes : node_result list;   (* successfully measured nodes *)
  wr_diags : Diag.t list;        (* one per failed node, input order *)
  wr_pass_stats : Vcomp.Pass.pass_stats list;
      (* vcomp middle-end stats aggregated over the nodes, with wall
         times zeroed: the counts are deterministic (same passes, same
         sources), so sequential and parallel runs stay comparable by
         structural equality *)
}

let find_pc (nr : node_result) (c : Chain.compiler) : per_compiler =
  List.find (fun pc -> pc.pc_compiler = c) nr.nr_per

(* Per-node containment for the measurement drivers: a failing node
   becomes a diagnostic and is dropped from the tables (the survivors'
   rows are byte-identical to a run without the faulty node). The
   fallback Compile stage is overridden by recognizable exceptions
   ([Diag.of_exn]): an analyzer refusal surfaces as Wcet, a simulator
   fuel/runtime error as Sim. *)
let contain (node : Scade.Symbol.node) (f : unit -> 'a) :
  ('a, Diag.t) Result.t =
  Diag.capture ~node:node.Scade.Symbol.n_name ~stage:Diag.Compile f

(* The one workload traversal of every measurement driver: apply [f]
   to each generated (node, source) pair of the [nodes]-node workload
   and fold the results into [consume] in node order. The workload is
   pulled shard by shard through [Par.run_stream], with generation
   inside the producer; [config.stream] only picks the shard size, and
   without it the whole workload is one shard. Results are identical
   element for element across shapes, so every table and JSON printed
   from them is byte-identical. *)
let fold_workload ~(config : Toolchain.config) ~(nodes : int) ~(seed : int)
    (f : Scade.Symbol.node * Minic.Ast.program -> 'a)
    (consume : 'acc -> 'a -> 'acc) (init : 'acc) : 'acc =
  let shard_size = Par.shape config.Toolchain.stream ~n:nodes in
  let plan = Scade.Workload.shard_plan ~shard_size ~nodes ~seed () in
  let producer k =
    if k >= Scade.Workload.shard_count plan then None
    else
      Some
        (Array.map
           (fun pair () -> f pair)
           (Scade.Workload.generate_shard plan k))
  in
  Par.run_stream ~jobs:config.Toolchain.jobs ~producer
    ~consumer:(fun acc _ v -> consume acc v)
    ~init ()

let map_workload ~(config : Toolchain.config) ~(nodes : int) ~(seed : int)
    (f : Scade.Symbol.node * Minic.Ast.program -> 'a) : 'a list =
  List.rev (fold_workload ~config ~nodes ~seed f (fun acc v -> v :: acc) [])

(* Build and measure the whole synthetic flight program under every
   compiler configuration. Nodes are independent, so the measurement
   fans out over [config.jobs] domains (merged by node index: results
   are identical to the sequential run regardless of scheduling). The
   config's cache shares WCET analyses across nodes *and*
   configurations — the workload instantiates the same symbol bodies
   many times, so most analyses beyond the first few hundred nodes are
   hits; a persistent cache extends the sharing across process runs.
   The config's [compiler] field is ignored: the whole point here is
   measuring all four. *)
let run_workload ?(nodes = 60) ?(seed = 2026) ?(config = Toolchain.default) () :
  workload_results =
  let outcomes =
    map_workload ~config ~nodes ~seed
      (fun (node, src) ->
         contain node (fun () ->
             let pass_stats = ref [] in
             let per =
               List.map
                 (fun c ->
                    let b =
                      Chain.build ~passes:config.Toolchain.passes c src
                    in
                    if b.Chain.b_pass_stats <> [] then
                      pass_stats := b.Chain.b_pass_stats;
                    let report = Chain.wcet ~config b in
                    let sim =
                      Chain.simulate ?fuel:config.Toolchain.sim_fuel b
                        (Minic.Interp.seeded_world ~seed:17 ())
                    in
                    let stats = sim.Target.Sim.rr_stats in
                    { pc_compiler = c;
                      pc_wcet = report.Wcet.Report.rp_wcet;
                      pc_size = Target.Asm.program_size b.Chain.b_asm;
                      pc_reads = stats.Target.Sim.dcache_reads;
                      pc_writes = stats.Target.Sim.dcache_writes })
                 Chain.all_compilers
             in
             ({ nr_name = node.Scade.Symbol.n_name; nr_per = per },
              !pass_stats)))
  in
  let measured = List.filter_map Result.to_option outcomes in
  { wr_nodes = List.map fst measured;
    wr_diags = Diag.errors_of outcomes;
    wr_pass_stats =
      (* zero the wall times (see the type comment): per-pass work
         counts are a function of sources and passes alone *)
      List.map
        (fun st -> { st with Vcomp.Pass.st_ms = 0.0 })
        (Vcomp.Pass.aggregate (List.map snd measured)) }

let total (wr : workload_results) (c : Chain.compiler)
    (f : per_compiler -> int) : int =
  List.fold_left (fun acc nr -> acc + f (find_pc nr c)) 0 wr.wr_nodes

let pct (v : int) (base : int) : float =
  100.0 *. float_of_int v /. float_of_int base

(* ---- Table 1 ------------------------------------------------------- *)

(* Paper Table 1: code size and cache accesses of each optimized
   configuration relative to the non-optimized default compile.
   (The paper reports CompCert at about -26% code size, -76% cache
   reads, -65% cache writes.) *)
let print_table1 (ppf : Format.formatter) (wr : workload_results) : unit =
  let base_size = total wr Chain.Cdefault_o0 (fun p -> p.pc_size) in
  let base_reads = total wr Chain.Cdefault_o0 (fun p -> p.pc_reads) in
  let base_writes = total wr Chain.Cdefault_o0 (fun p -> p.pc_writes) in
  Format.fprintf ppf
    "@[<v>Table 1 — code size and data-cache accesses vs non-optimized default@,\
     (workload: %d nodes; accesses measured over one control cycle)@,@,"
    (List.length wr.wr_nodes);
  Format.fprintf ppf "%-42s %12s %13s %14s@," "configuration" "code size"
    "cache reads" "cache writes";
  List.iter
    (fun c ->
       let size = total wr c (fun p -> p.pc_size) in
       let reads = total wr c (fun p -> p.pc_reads) in
       let writes = total wr c (fun p -> p.pc_writes) in
       Format.fprintf ppf "%-42s %6d %+5.1f%% %6d %+5.1f%% %6d %+6.1f%%@,"
         (Chain.compiler_description c)
         size (pct size base_size -. 100.0)
         reads (pct reads base_reads -. 100.0)
         writes (pct writes base_writes -. 100.0))
    Chain.all_compilers;
  Format.fprintf ppf
    "@,paper (CompCert row): code size ~-26%%, cache reads ~-76%%, cache writes ~-65%%@,@]"

(* ---- Figure 2 ------------------------------------------------------ *)

(* Paper Figure 2: per-node WCET for the four configurations, plus the
   mean WCET variation vs the non-optimized default (paper: -0.5%
   without regalloc, -18.4% fully optimized, -12.0% CompCert). *)
let print_figure2 (ppf : Format.formatter) (wr : workload_results) : unit =
  Format.fprintf ppf
    "@[<v>Figure 2 — WCET per node (cycles), four configurations@,@,";
  Format.fprintf ppf "%-8s %12s %12s %12s %12s@," "node" "default-O0"
    "default-O1" "default-O2" "vcomp";
  List.iter
    (fun nr ->
       let w c = (find_pc nr c).pc_wcet in
       Format.fprintf ppf "%-8s %12d %12d %12d %12d@," nr.nr_name
         (w Chain.Cdefault_o0) (w Chain.Cdefault_o1) (w Chain.Cdefault_o2)
         (w Chain.Cvcomp))
    wr.wr_nodes;
  let base = total wr Chain.Cdefault_o0 (fun p -> p.pc_wcet) in
  Format.fprintf ppf "@,mean WCET variation vs default-O0:@,";
  List.iter
    (fun c ->
       if c <> Chain.Cdefault_o0 then
         Format.fprintf ppf "  %-44s %+6.1f%%@,"
           (Chain.compiler_description c)
           (pct (total wr c (fun p -> p.pc_wcet)) base -. 100.0))
    Chain.all_compilers;
  Format.fprintf ppf
    "paper: -0.5%% (no regalloc), -18.4%% (fully optimized), -12.0%% (CompCert)@,@]"

(* ---- Listings 1 & 2 ------------------------------------------------ *)

(* The float-add symbol compiled by the pattern configuration (Listing
   1: loads from the stack frame, one fadd, store back) and by the
   verified-style compiler (Listing 2: the fadd alone, operands kept in
   registers). *)
let listing_node : Scade.Symbol.node =
  { Scade.Symbol.n_name = "listing";
    n_instances =
      [ { Scade.Symbol.i_wire = Some 1; i_op = Scade.Symbol.Yacq "lst_in0" };
        { Scade.Symbol.i_wire = Some 2; i_op = Scade.Symbol.Yacq "lst_in1" };
        { Scade.Symbol.i_wire = Some 3;
          i_op = Scade.Symbol.Ygain (2.0, Scade.Symbol.Swire 1) };
        { Scade.Symbol.i_wire = Some 4;
          i_op =
            Scade.Symbol.Ysum (Scade.Symbol.Swire 3, Scade.Symbol.Swire 2) };
        { Scade.Symbol.i_wire = None;
          i_op = Scade.Symbol.Yout ("lst_out", Scade.Symbol.Swire 4) } ] }

let print_listings (ppf : Format.formatter) : unit =
  let src = Scade.Acg.generate listing_node in
  let show (title : string) (c : Chain.compiler) : unit =
    let b = Chain.build ~exact:true c src in
    Format.fprintf ppf "@[<v>--- %s ---@,%s@]@." title
      (Target.Emit.program_to_string b.Chain.b_asm)
  in
  Format.fprintf ppf
    "Listings 1 and 2 — the sum symbol under both compilation regimes@.@.";
  Format.fprintf ppf "generated C (ACG output):@.%s@."
    (Minic.Pp.program_to_string src);
  show "Listing 1: default compiler, pattern mode" Chain.Cdefault_o0;
  show "Listing 2 (context): verified-style compiler" Chain.Cvcomp

(* ---- annotation flow (section 3.4) --------------------------------- *)

type annot_demo = {
  ad_wcet_with : int;        (* WCET with the annotation transmitted *)
  ad_annot_comment : string; (* the emitted assembly comment *)
  ad_failure_without : string; (* analyzer message when the bound is absent *)
}

(* A node whose loop bound depends on a configuration global: binary
   analysis cannot bound it; the source annotation (transported through
   compilation as a pro-forma effect, then emitted as a comment)
   provides the bound. We also strip the annotation and show that the
   analyzer then refuses to produce a WCET. *)
let run_annot_demo () : annot_demo =
  let node =
    { Scade.Symbol.n_name = "annotdemo";
      n_instances =
        [ { Scade.Symbol.i_wire = Some 1; i_op = Scade.Symbol.Yacq "ad_in" };
          { Scade.Symbol.i_wire = Some 2;
            i_op = Scade.Symbol.Ymodalsum (8, Scade.Symbol.Swire 1) };
          { Scade.Symbol.i_wire = None;
            i_op = Scade.Symbol.Yout ("ad_out", Scade.Symbol.Swire 2) } ] }
  in
  let src = Scade.Acg.generate node in
  let b = Chain.build Chain.Cvcomp src in
  let report = Chain.wcet b in
  (* find the emitted annotation comment *)
  let comment =
    List.concat_map
      (fun f ->
         List.filter_map
           (fun i ->
              match i with
              | Target.Asm.Pannot (_, _) -> Some (Target.Emit.instr_str i)
              | _ -> None)
           f.Target.Asm.fn_code)
      b.Chain.b_asm.Target.Asm.pr_funcs
    |> function
    | c :: _ -> String.trim c
    | [] -> "(no annotation emitted)"
  in
  (* strip annotations from the source and retry *)
  let rec strip (s : Minic.Ast.stmt) : Minic.Ast.stmt =
    match s with
    | Minic.Ast.Sannot _ -> Minic.Ast.Sskip
    | Minic.Ast.Sseq (a, b) -> Minic.Ast.Sseq (strip a, strip b)
    | Minic.Ast.Sif (c, a, b) -> Minic.Ast.Sif (c, strip a, strip b)
    | Minic.Ast.Swhile (c, a) -> Minic.Ast.Swhile (c, strip a)
    | Minic.Ast.Sfor (i, lo, hi, a) -> Minic.Ast.Sfor (i, lo, hi, strip a)
    | _ -> s
  in
  let src_stripped =
    { src with
      Minic.Ast.prog_funcs =
        List.map
          (fun f -> { f with Minic.Ast.fn_body = strip f.Minic.Ast.fn_body })
          src.Minic.Ast.prog_funcs }
  in
  let failure =
    let b' = Chain.build Chain.Cvcomp src_stripped in
    match Chain.wcet b' with
    | _ -> "(unexpected: analyzer produced a bound without the annotation)"
    | exception Wcet.Driver.Error msg -> msg
  in
  { ad_wcet_with = report.Wcet.Report.rp_wcet;
    ad_annot_comment = comment;
    ad_failure_without = failure }

let print_annot_demo (ppf : Format.formatter) : unit =
  let d = run_annot_demo () in
  Format.fprintf ppf
    "@[<v>Annotation flow (paper section 3.4)@,@,\
     emitted assembly comment : %s@,\
     WCET with annotation     : %d cycles@,\
     without the annotation   : %s@,@]"
    d.ad_annot_comment d.ad_wcet_with d.ad_failure_without

(* ---- ablations ------------------------------------------------------ *)

(* The summing loop of the pass studies: compile every workload node
   with [compile], lay it out and analyze it under the pipeline [spec]
   (distinct optimization selections never share a cache entry, the
   Wcet.Memo keying contract). Returns the total WCET bound and code
   size over the nodes that succeeded, how many nodes were attempted,
   and the diagnostics of the failed ones. *)
let sum_compiled ~(config : Toolchain.config) ~(nodes : int) ~(seed : int)
    ~(spec : string) (compile : Minic.Ast.program -> Target.Asm.program) :
  (int * int) * int * Diag.t list =
  let outcomes =
    map_workload ~config ~nodes ~seed (fun (node, src) ->
        contain node (fun () ->
            let asm = compile src in
            let lay = Target.Layout.build src asm in
            ((Wcet.Driver.analyze ?cache:config.Toolchain.cache
                ~fuel:config.Toolchain.analysis_fuel ~spec asm lay)
               .Wcet.Report.rp_wcet,
             Target.Asm.program_size asm)))
  in
  ( List.fold_left
      (fun (w, s) (w', s') -> (w + w', s + s'))
      (0, 0)
      (List.filter_map Result.to_option outcomes),
    List.length outcomes,
    Diag.errors_of outcomes )

(* Not in the paper: contribution of each vcomp optimization, measured
   as total-WCET deltas when individually disabled, plus the effect of
   the default-O2 FMA contraction. *)
let print_ablation (ppf : Format.formatter) ?(nodes = 30) ?(seed = 2026)
    ?(config = Toolchain.default) () : unit =
  let diags = ref [] in
  let measured = ref 0 in
  (* a failing node drops out of *this variant's* sum (and is reported
     on stderr); the printed percentages then compare totals over the
     respective survivor sets *)
  let measure ~spec compile : int * int =
    let sums, attempted, ds = sum_compiled ~config ~nodes ~seed ~spec compile in
    measured := !measured + attempted;
    diags := !diags @ ds;
    sums
  in
  let vmeasure (options : Vcomp.Driver.options) : int * int =
    measure ~spec:("vcomp:" ^ Vcomp.Pass.spec options)
      (Vcomp.Driver.compile ~options)
  in
  let full, full_size = vmeasure Vcomp.Driver.no_validation in
  let variants =
    [ ("vcomp without constant propagation",
       Vcomp.Driver.{ no_validation with opt_constprop = false });
      ("vcomp without CSE", Vcomp.Driver.{ no_validation with opt_cse = false });
      ("vcomp without GVN-CSE",
       Vcomp.Driver.{ no_validation with opt_gvn = false });
      ("vcomp without LICM",
       Vcomp.Driver.{ no_validation with opt_licm = false });
      ("vcomp without dead-code elimination",
       Vcomp.Driver.{ no_validation with opt_deadcode = false }) ]
  in
  Format.fprintf ppf
    "@[<v>Ablations — totals over %d nodes (vcomp full: %d cycles WCET, %d \
     instrs)@,@,"
    nodes full full_size;
  List.iter
    (fun (name, options) ->
       let v, size = vmeasure options in
       Format.fprintf ppf "  %-42s %9d  (%+.2f%%)  size %6d  (%+.2f%%)@,"
         name v
         (pct v full -. 100.0)
         size
         (pct size full_size -. 100.0))
    variants;
  let o2_exact, _ =
    measure ~spec:"o2"
      (Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull ~contract_fma:false)
  in
  let o2_fma, _ =
    measure ~spec:"o2+fma" (Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull)
  in
  Format.fprintf ppf
    "  %-42s %9d@,  %-42s %9d  (%+.2f%%)@,@]"
    "default-O2 without FMA contraction" o2_exact
    "default-O2 with FMA contraction" o2_fma (pct o2_fma o2_exact -. 100.0);
  Diag.print_summary ~total:!measured !diags

(* ---- GVN/LICM benchmark (BENCH_gvn_licm.json) ----------------------- *)

(* Machine-readable deltas of the new global passes: total code size
   and total WCET bound of the workload under the paper's local-CSE
   pipeline (-O 1), with GVN-CSE added, and with GVN-CSE + LICM (the
   -O 2 default). Pure JSON on stdout, deterministic for a given
   (nodes, seed) — the published BENCH_gvn_licm.json is this output. *)
let print_gvn_licm_json (ppf : Format.formatter) ?(nodes = 30) ?(seed = 2026)
    ?(config = Toolchain.default) () : unit =
  let measure (options : Vcomp.Driver.options) : int * int =
    let sums, _, _ =
      sum_compiled ~config ~nodes ~seed
        ~spec:("vcomp:" ^ Vcomp.Pass.spec options)
        (Vcomp.Driver.compile ~options)
    in
    sums
  in
  let level1 = { (Vcomp.Pass.level 1) with Vcomp.Pass.opt_validate = false } in
  let base_w, base_s = measure level1 in
  let gvn_w, gvn_s = measure { level1 with Vcomp.Pass.opt_gvn = true } in
  let all_w, all_s =
    measure
      { level1 with Vcomp.Pass.opt_gvn = true; Vcomp.Pass.opt_licm = true }
  in
  let row name (w, s) =
    Printf.sprintf
      "    { \"config\": %S, \"code_size_instrs\": %d, \"wcet_total_cycles\": %d }"
      name s w
  in
  Format.fprintf ppf "%s@."
    (String.concat "\n"
       [ "{";
         "  \"benchmark\": \"gvn_licm\",";
         Printf.sprintf "  \"workload\": { \"nodes\": %d, \"seed\": %d },"
           nodes seed;
         "  \"configurations\": [";
         row "constprop+cse+deadcode" (base_w, base_s) ^ ",";
         row "constprop+cse+gvn+deadcode" (gvn_w, gvn_s) ^ ",";
         row "constprop+cse+gvn+licm+deadcode" (all_w, all_s);
         "  ]";
         "}" ])

(* ---- engine differential study (BENCH_engines.json) ---------------- *)

(* Machine-readable three-way comparison of the path-analysis engines
   over the workload: per compiler configuration, the summed IPET and
   OMT bounds, how many per-node analyses the OMT cuts strictly
   tightened, and the largest per-node saving. Every analysis runs
   under [--engine both], so the differential oracle omt <= ipet is
   checked by the driver on every node — a violation is a refusal and
   lands in the (stderr) diagnostics, never in the JSON. Pure JSON on
   stdout, deterministic for a given (nodes, seed) — the published
   BENCH_engines.json is this output. *)
let print_engines_json (ppf : Format.formatter) ?(nodes = 30) ?(seed = 2026)
    ?(config = Toolchain.default) () : unit =
  let config = { config with Toolchain.engine = Wcet.Report.Both } in
  let measure (c : Toolchain.compiler) : int * int * int * int * int =
    let outcomes =
      map_workload ~config ~nodes ~seed
        (fun ((node : Scade.Symbol.node), src) ->
           contain node (fun () ->
               let b = Chain.build c src in
               let r = Chain.wcet ~config b in
               ( Option.value ~default:r.Wcet.Report.rp_wcet
                   r.Wcet.Report.rp_wcet_ipet,
                 Option.value ~default:r.Wcet.Report.rp_wcet
                   r.Wcet.Report.rp_wcet_omt,
                 r.Wcet.Report.rp_omt_cuts )))
    in
    List.fold_left
      (fun (n, ipet, omt, tighter, best) (i, o, _) ->
         ( n + 1, ipet + i, omt + o,
           (if o < i then tighter + 1 else tighter),
           max best (i - o) ))
      (0, 0, 0, 0, 0)
      (List.filter_map Result.to_option outcomes)
  in
  let row (c : Toolchain.compiler) =
    let n, ipet, omt, tighter, best = measure c in
    Printf.sprintf
      "    { \"config\": %S, \"nodes_measured\": %d, \
       \"wcet_total_ipet\": %d, \"wcet_total_omt\": %d, \
       \"nodes_omt_tighter\": %d, \"max_node_saving_cycles\": %d }"
      (Chain.compiler_name c) n ipet omt tighter best
  in
  let rows = List.map row Chain.all_compilers in
  Format.fprintf ppf "%s@."
    (String.concat "\n"
       [ "{";
         "  \"benchmark\": \"engines\",";
         Printf.sprintf "  \"workload\": { \"nodes\": %d, \"seed\": %d },"
           nodes seed;
         "  \"oracle\": \"omt <= ipet checked per node (both mode)\",";
         "  \"configurations\": [";
         String.concat ",\n" rows;
         "  ]";
         "}" ])

(* ---- WCET overestimation study (not in the paper) ------------------ *)

(* How tight are the bounds? For each node and compiler: bound vs the
   worst cycle count observed over a battery of input worlds. The
   analyzer's pessimism sources are cache classification and worst-path
   selection; acquisition-dominated straight-line nodes are often
   exact. *)
let print_overestimation (ppf : Format.formatter) ?(nodes = 20) ?(seed = 2026)
    ?(config = Toolchain.default) () : unit =
  (* under --engine both each report carries the two bounds; the table
     then grows an omt/ipet ratio column and an engines aggregate *)
  let both = config.Toolchain.engine = Wcet.Report.Both in
  Format.fprintf ppf
    "@[<v>WCET overestimation — bound vs worst of 6 observed runs@,@,";
  Format.fprintf ppf "%-10s" "node";
  List.iter
    (fun c -> Format.fprintf ppf " %12s" (Chain.compiler_name c))
    Chain.all_compilers;
  if both then Format.fprintf ppf " %12s" "omt/ipet";
  Format.fprintf ppf "@,";
  (* measure in parallel (per-node bound + worst observed cycles),
     print sequentially in node order *)
  let outcomes =
    map_workload ~config ~nodes ~seed
      (fun ((node : Scade.Symbol.node), src) ->
         contain node (fun () ->
             let per =
               List.map
                 (fun c ->
                    let b = Chain.build c src in
                    let report = Chain.wcet ~config b in
                    let image = Chain.sim_image b in
                    let observed =
                      List.fold_left
                        (fun acc s ->
                           let sim =
                             Target.Sim.exec ?fuel:config.Toolchain.sim_fuel
                               image (Minic.Interp.seeded_world ~seed:s ()) []
                           in
                           max acc sim.Target.Sim.rr_stats.Target.Sim.cycles)
                        0 [ 1; 2; 3; 4; 5; 6 ]
                    in
                    (c, report, observed))
                 Chain.all_compilers
             in
             (node.Scade.Symbol.n_name, per)))
  in
  let measured = List.filter_map Result.to_option outcomes in
  let sums = Hashtbl.create 5 in
  let ipet_total = ref 0 and omt_total = ref 0 and tighter = ref 0 in
  List.iter
    (fun (name, per) ->
       Format.fprintf ppf "%-10s" name;
       List.iter
         (fun (c, (r : Wcet.Report.t), observed) ->
            let bound = r.Wcet.Report.rp_wcet in
            let over =
              100.0 *. (float_of_int bound /. float_of_int observed -. 1.0)
            in
            let sb, so =
              Option.value ~default:(0, 0) (Hashtbl.find_opt sums c)
            in
            Hashtbl.replace sums c (sb + bound, so + observed);
            (match r.Wcet.Report.rp_wcet_ipet, r.Wcet.Report.rp_wcet_omt with
             | Some i, Some o ->
               ipet_total := !ipet_total + i;
               omt_total := !omt_total + o;
               if o < i then incr tighter
             | _ -> ());
            Format.fprintf ppf " %10.1f%%" over)
         per;
       (if both then
          let node_ipet, node_omt =
            List.fold_left
              (fun (i, o) (_, (r : Wcet.Report.t), _) ->
                 ( i + Option.value ~default:0 r.Wcet.Report.rp_wcet_ipet,
                   o + Option.value ~default:0 r.Wcet.Report.rp_wcet_omt ))
              (0, 0) per
          in
          Format.fprintf ppf " %11.3f"
            (if node_ipet = 0 then 1.0
             else float_of_int node_omt /. float_of_int node_ipet));
       Format.fprintf ppf "@,")
    measured;
  Format.fprintf ppf "@,aggregate overestimation:@,";
  List.iter
    (fun c ->
       let sb, so = Option.value ~default:(0, 1) (Hashtbl.find_opt sums c) in
       Format.fprintf ppf "  %-14s %+6.1f%%@," (Chain.compiler_name c)
         (100.0 *. (float_of_int sb /. float_of_int so -. 1.0)))
    Chain.all_compilers;
  if both then
    Format.fprintf ppf
      "@,engines (differential oracle: omt <= ipet held on every \
       analysis):@,  ipet total %d cycles, omt total %d cycles, omt \
       strictly tighter on %d analyses@,"
      !ipet_total !omt_total !tighter;
  Format.fprintf ppf "@]";
  Diag.print_summary ~total:nodes (Diag.errors_of outcomes)

(* ---- scale legs (bench -e scale-leg) ------------------------------- *)

(* Peak resident set, measured rather than asserted: VmHWM, the
   process's resident high-water mark, read from /proc/self/status once
   the leg is over. It covers the whole process lifetime, which is why
   a scale leg runs alone in its own process. On a platform without
   procfs it reads 0 and the leg degrades to wall-clock and throughput
   only. *)
let peak_rss_kb () : int =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          try
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun v -> v)
          with Scanf.Scan_failure _ | Failure _ -> 0
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

type scale_leg = {
  sc_nodes : int;
  sc_failures : int;         (* contained per-node failures *)
  sc_wcet_total : int;       (* determinism witness: equal across legs
                                of one (nodes, seed, compiler) point *)
  sc_wall_s : float;
  sc_peak_rss_kb : int;
  sc_throughput : float;     (* nodes per second *)
  sc_stats : Wcet.Report.analysis_stats option;  (* None: no cache *)
}

(* One scale leg: compile ([config.compiler], under
   [config.passes]) and analyze every node of the workload, in the
   execution shape the config picks (batch or stream, [config.jobs]
   domains, [config.cache]) — and measure the run itself: wall clock,
   peak RSS, throughput, cache accounting. No simulation or
   differential validation: a leg measures pipeline scaling, and
   compile+analyze is the service-shaped hot path. The WCET total is
   carried as a cross-leg determinism witness — every leg of one
   (nodes, seed, compiler) point must agree on it no matter the jobs /
   cache / shape combination. *)
let run_scale_leg ?(nodes = 2500) ?(seed = 2026) ?(config = Toolchain.default)
    () : scale_leg =
  let work ((node : Scade.Symbol.node), src) =
    contain node (fun () ->
        let b =
          Chain.build ~passes:config.Toolchain.passes config.Toolchain.compiler
            src
        in
        (Chain.wcet ~config b).Wcet.Report.rp_wcet)
  in
  let consume (total, fails) = function
    | Ok w -> (total + w, fails)
    | Error (_ : Diag.t) -> (total, fails + 1)
  in
  let t0 = Unix.gettimeofday () in
  let wcet_total, failures =
    fold_workload ~config ~nodes ~seed work consume (0, 0)
  in
  let wall = Unix.gettimeofday () -. t0 in
  { sc_nodes = nodes;
    sc_failures = failures;
    sc_wcet_total = wcet_total;
    sc_wall_s = wall;
    sc_peak_rss_kb = peak_rss_kb ();
    sc_throughput = (if wall > 0.0 then float_of_int nodes /. wall else 0.0);
    sc_stats = Option.map Wcet.Memo.stats config.Toolchain.cache }

(* One leg as one JSON object; the jobs/shape fields come from the
   config that ran it. *)
let scale_leg_json ~(config : Toolchain.config) (leg : scale_leg) : string =
  let stream_fields =
    match config.Toolchain.stream with
    | None -> "\"stream\": false"
    | Some shard_size ->
      Printf.sprintf "\"stream\": true, \"shard_size\": %d" shard_size
  in
  Printf.sprintf
    "{ \"nodes\": %d, \"jobs\": %d, %s, \"compiler\": %S, \
     \"wall_s\": %.3f, \"peak_rss_kb\": %d, \"nodes_per_s\": %.1f, \
     \"wcet_total_cycles\": %d, \"failures\": %d, \"cache\": %s }"
    leg.sc_nodes config.Toolchain.jobs stream_fields
    (Chain.compiler_name config.Toolchain.compiler)
    leg.sc_wall_s leg.sc_peak_rss_kb leg.sc_throughput leg.sc_wcet_total
    leg.sc_failures
    (match leg.sc_stats with
     | None -> "null"
     | Some st -> Wcet.Report.stats_json st)
