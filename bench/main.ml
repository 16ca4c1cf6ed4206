(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md, per-experiment index). It times
   nothing itself: the toolchain's wall clock, throughput and per-layer
   costs are measured by perfbench (perfbench/README.md).

   Usage:
     bench/main.exe                 run everything (default workload)
     bench/main.exe -e table1       only Table 1
     bench/main.exe -e figure2      only Figure 2
     bench/main.exe -e listings     only Listings 1/2
     bench/main.exe -e annot       only the annotation-flow demo
     bench/main.exe -e ablation    only the ablations
     bench/main.exe -e overestimation   bound tightness study
     bench/main.exe -n 120         workload size (default 60)
     bench/main.exe -j 4           per-node parallelism (default 1)
     bench/main.exe --engine omt   WCET path engine (ipet|omt|both)
     bench/main.exe --no-cache     disable the shared WCET-analysis cache
     bench/main.exe --cache-dir D  persist the cache across runs
     bench/main.exe --cache-gc-mb M  LRU-bound the persistent cache

   All flags fold into one Fcstack.Toolchain.config (the cache trio and
   -j are the shared Fcstack.Cliopts terms, same surface as fcc/aitw).
   One content-addressed WCET-analysis cache (Wcet.Memo) is shared by
   all experiments and all domains of the process — and, with
   --cache-dir, across process runs. Hit/miss/phase accounting goes to
   stderr (Report.pp_stats); stdout tables are byte-identical at every
   -j and with and without the cache — cold, warm or --no-cache, the
   cache changes wall clock, never results (CI cmp-enforces these). *)

let ppf = Format.std_formatter

let sep (title : string) : unit =
  Format.fprintf ppf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* Hidden chaos mode (--chaos): run the deterministic fault-injection
   harness (Fcstack.Chaos) instead of the experiments. Everything goes
   to stderr; exit 0 when every containment check held, 1 otherwise.
   CI drives this with a pinned seed. *)
let run_chaos (seed : int) (engine : Wcet.Report.engine) : int =
  (* the server leg needs the real daemon binary; located relative to
     this executable inside the dune build tree (absent = leg skipped,
     e.g. when the harness runs from an installed bench alone) *)
  let fcd_exe = Fcstack.Service.sibling_exe "fcd.exe" in
  let r = Fcstack.Chaos.run ~seed ~engine ?fcd_exe () in
  Format.eprintf "%a@." Fcstack.Chaos.print_report r;
  if r.Fcstack.Chaos.ch_problems = [] then 0 else 1

(* ---- one scale leg (-e scale-leg) ---------------------------------- *)

(* [-e scale-leg]: compile + analyze the -n workload under the config
   the flags describe, print the measured leg as one JSON line on
   stdout. One leg per process: RSS never shrinks under the OCaml
   runtime, so a second leg in the same process would inherit the
   first one's high-water mark and its peak-RSS number would be
   meaningless. *)
let run_scale_leg (nodes : int) (config : Fcstack.Toolchain.config) : int =
  let leg = Fcstack.Experiments.run_scale_leg ~nodes ~config () in
  print_string (Fcstack.Experiments.scale_leg_json ~config leg);
  print_newline ();
  Fcstack.Cliopts.finalize config;
  if leg.Fcstack.Experiments.sc_failures = 0 then 0 else 1

let run_bench (experiment : string) (nodes : int)
    (passes : Vcomp.Pass.options) (engine : Wcet.Report.engine) (jobs : int)
    (stream : int option) (chaos : bool)
    (chaos_seed : int) (copts : Fcstack.Cliopts.cache_opts) : int =
  if chaos then run_chaos chaos_seed engine
  else if experiment = "scale-leg" then begin
    (* a leg measures pipeline scaling, not code quality: it compiles
       with the cheapest configuration (the analyzer dominates either
       way) *)
    let config =
      Fcstack.Cliopts.config_of_opts ~jobs ~passes ~engine
        ~compiler:Fcstack.Chain.Cdefault_o0 ?stream copts
    in
    run_scale_leg nodes config
  end
  else begin
  let want (e : string) : bool = experiment = "all" || experiment = e in
  (* one shared analysis cache for the whole process: experiments and
     domains all feed it (content-addressed, so sharing across compiler
     configurations — and, when persistent, across runs — is sound) *)
  let config =
    Fcstack.Cliopts.config_of_opts ~jobs ~passes ~engine ?stream copts
  in
  let workload =
    lazy
      (let wr = Fcstack.Experiments.run_workload ~nodes ~config () in
       (* per-node failures: stderr-only summary, tables show survivors *)
       Fcstack.Diag.print_summary ~total:nodes
         wr.Fcstack.Experiments.wr_diags;
       (* per-pass middle-end accounting: stderr-only, like the cache
          stats below — stdout tables stay byte-identical across -O *)
       Format.eprintf "%a@?" Vcomp.Pass.pp_stats
         wr.Fcstack.Experiments.wr_pass_stats;
       wr)
  in
  if experiment = "gvnlicm" then begin
    (* pure JSON on stdout (no separator banner): the published
       BENCH_gvn_licm.json is exactly this output *)
    Fcstack.Experiments.print_gvn_licm_json ppf ~nodes:(min 30 nodes) ~config
      ();
    Format.pp_print_flush ppf ();
    Fcstack.Cliopts.finalize config;
    0
  end
  else if experiment = "engines" then begin
    (* pure JSON on stdout: the published BENCH_engines.json. Runs
       under --engine both regardless of the flag, so the driver
       cross-checks omt <= ipet on every analysis. *)
    Fcstack.Experiments.print_engines_json ppf ~nodes:(min 30 nodes) ~config
      ();
    Format.pp_print_flush ppf ();
    Fcstack.Cliopts.finalize config;
    0
  end
  else begin
  if want "listings" then begin
    sep "Experiment listing-1-2";
    Fcstack.Experiments.print_listings ppf
  end;
  if want "table1" then begin
    sep "Experiment table-1";
    Fcstack.Experiments.print_table1 ppf (Lazy.force workload);
    Format.fprintf ppf "@."
  end;
  if want "figure2" then begin
    sep "Experiment figure-2";
    Fcstack.Experiments.print_figure2 ppf (Lazy.force workload);
    Format.fprintf ppf "@."
  end;
  if want "annot" then begin
    sep "Experiment annot-flow";
    Fcstack.Experiments.print_annot_demo ppf;
    Format.fprintf ppf "@."
  end;
  if want "ablation" then begin
    sep "Experiment ablation";
    Fcstack.Experiments.print_ablation ppf ~nodes:(min 30 nodes) ~config ();
    Format.fprintf ppf "@."
  end;
  if want "overestimation" then begin
    sep "Experiment overestimation";
    Fcstack.Experiments.print_overestimation ppf ~nodes:(min 20 nodes) ~config
      ();
    Format.fprintf ppf "@."
  end;
  Format.pp_print_flush ppf ();
  (* cache accounting to stderr only: stdout tables stay byte-identical
     with and without the cache (CI cmp-enforces this) *)
  Fcstack.Cliopts.finalize config;
  0
  end
  end

open Cmdliner

let experiments =
  [ "all"; "listings"; "table1"; "figure2"; "annot"; "ablation";
    "overestimation"; "gvnlicm"; "engines"; "scale-leg" ]

let experiment_arg =
  Arg.(value & opt (enum (List.map (fun e -> (e, e)) experiments)) "all"
       & info [ "e"; "experiment" ] ~docv:"EXPERIMENT"
           ~doc:"Run only $(docv): listings, table1, figure2, annot, \
                 ablation, overestimation, gvnlicm (pure-JSON \
                 GVN/LICM deltas; never part of $(b,all)), engines \
                 (pure-JSON IPET-vs-OMT differential study; never part \
                 of $(b,all)), scale-leg (pure-JSON wall clock, peak \
                 RSS, throughput and cache hit rate of one -n workload \
                 in this process; never part of $(b,all)) (default: all).")

let nodes_arg =
  Arg.(value & opt int 60
       & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Workload size (default 60).")

let jobs_arg =
  Fcstack.Cliopts.jobs_term
    ~doc:"Per-node parallelism; stdout is byte-identical at every $(docv)."

(* maintenance flags, hidden from the man page *)
let chaos_arg =
  Arg.(value & flag
       & info [ "chaos" ] ~docs:Manpage.s_none
           ~doc:"Run the deterministic fault-injection harness instead \
                 of the experiments (report on stderr; exit 1 on any \
                 containment violation).")

let chaos_seed_arg =
  Arg.(value & opt int 20260806
       & info [ "chaos-seed" ] ~docv:"SEED" ~docs:Manpage.s_none
           ~doc:"Seed for --chaos fault selection.")

let cmd =
  let doc = "regenerate the paper's evaluation tables and figures" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const run_bench $ experiment_arg $ nodes_arg
      $ Fcstack.Cliopts.passes_term $ Fcstack.Cliopts.engine_term $ jobs_arg
      $ Fcstack.Cliopts.stream_term $ chaos_arg $ chaos_seed_arg
      $ Fcstack.Cliopts.cache_term)

let () = exit (Cmd.eval' cmd)
