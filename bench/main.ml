(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md, per-experiment index) and adds
   Bechamel micro-benchmarks of the toolchain itself.

   Usage:
     bench/main.exe                 run everything (default workload)
     bench/main.exe -e table1       only Table 1
     bench/main.exe -e figure2      only Figure 2
     bench/main.exe -e listings     only Listings 1/2
     bench/main.exe -e annot       only the annotation-flow demo
     bench/main.exe -e ablation    only the ablations
     bench/main.exe -e overestimation   bound tightness study
     bench/main.exe -e micro       only the Bechamel micro-benchmarks
     bench/main.exe -n 120         workload size (default 60)
     bench/main.exe -j 4           per-node parallelism (default 1)
     bench/main.exe --engine omt   WCET path engine (ipet|omt|both)
     bench/main.exe --no-cache     disable the shared WCET-analysis cache
     bench/main.exe --cache-dir D  persist the cache across runs
     bench/main.exe --cache-gc-mb M  LRU-bound the persistent cache

   With -j > 1 every workload-driven experiment is measured both
   sequentially and in parallel; the wall-clock comparison goes to
   stderr so the tables on stdout stay byte-identical to a -j 1 run.

   All flags fold into one Fcstack.Toolchain.config (the cache trio and
   -j are the shared Fcstack.Cliopts terms, same surface as fcc/aitw).
   One content-addressed WCET-analysis cache (Wcet.Memo) is shared by
   all experiments and all domains of the process — and, with
   --cache-dir, across process runs; the sequential reference leg of a
   -j comparison deliberately runs uncached, so the stderr line is a
   seq-uncached vs parallel-cached wall-clock comparison.
   Hit/miss/phase accounting also goes to stderr (Report.pp_stats);
   stdout tables are byte-identical with and without the cache — cold,
   warm or --no-cache, the cache changes wall clock, never results
   (CI cmp-enforces all three). *)

let ppf = Format.std_formatter

let sep (title : string) : unit =
  Format.fprintf ppf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let run_micro () : unit =
  sep "Micro-benchmarks (Bechamel): toolchain phases on one medium node";
  let node =
    Scade.Workload.generate_node ~profile:Scade.Workload.medium_node ~seed:42
      "bench"
  in
  let src = Scade.Acg.generate node in
  let vcomp_asm = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let tests =
    [ Bechamel.Test.make ~name:"acg"
        (Bechamel.Staged.stage (fun () -> ignore (Scade.Acg.generate node)));
      Bechamel.Test.make ~name:"compile-default-O0"
        (Bechamel.Staged.stage (fun () ->
             ignore (Cotsc.Driver.compile ~level:Cotsc.Driver.Onone src)));
      Bechamel.Test.make ~name:"compile-default-O2"
        (Bechamel.Staged.stage (fun () ->
             ignore (Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull src)));
      Bechamel.Test.make ~name:"compile-vcomp"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation src)));
      Bechamel.Test.make ~name:"compile-vcomp-validated"
        (Bechamel.Staged.stage (fun () -> ignore (Vcomp.Driver.compile src)));
      Bechamel.Test.make ~name:"wcet-analysis"
        (Bechamel.Staged.stage (fun () ->
             ignore (Fcstack.Chain.wcet vcomp_asm)));
      Bechamel.Test.make ~name:"simulate-one-cycle"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Fcstack.Chain.simulate vcomp_asm
                  (Minic.Interp.seeded_world ~seed:1 ())))) ]
  in
  let benchmark test =
    let open Bechamel in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
       let results = benchmark test in
       Hashtbl.iter
         (fun name ols ->
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ t ] -> Format.fprintf ppf "  %-28s %12.1f ns/run@." name t
            | Some _ | None -> Format.fprintf ppf "  %-28s (no estimate)@." name)
         results)
    tests

(* Wall-clock of one run; with -j > 1, run sequentially first and then
   in parallel, report the comparison on stderr and check the results
   agree byte-for-byte (the determinism contract of Fcstack.Par and
   the cached-equals-uncached contract of Wcet.Memo: the sequential
   reference leg runs without the cache). *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_maybe_parallel (name : string) (config : Fcstack.Toolchain.config)
    (run : config:Fcstack.Toolchain.config -> 'a) : 'a =
  let { Fcstack.Toolchain.jobs; cache; _ } = config in
  if jobs <= 1 then run ~config
  else begin
    let seq_config = { config with Fcstack.Toolchain.jobs = 1; cache = None } in
    let seq, t_seq = timed (fun () -> run ~config:seq_config) in
    let all_hits (st : Wcet.Report.analysis_stats) : int =
      st.Wcet.Report.st_hits + st.Wcet.Report.st_disk_hits
    in
    let hits0 =
      match cache with None -> 0 | Some c -> all_hits (Wcet.Memo.stats c)
    in
    let par, t_par = timed (fun () -> run ~config) in
    let cache_note =
      match cache with
      | None -> "uncached"
      | Some c ->
        let st = Wcet.Memo.stats c in
        Printf.sprintf "cached: +%d hits, %.1f%% cumulative hit rate"
          (all_hits st - hits0)
          (Wcet.Report.hit_rate st)
    in
    Printf.eprintf
      "%s: sequential uncached %.2fs, parallel (%d jobs, %s) %.2fs, \
       speedup %.2fx, results %s\n%!"
      name t_seq jobs cache_note t_par
      (if t_par > 0.0 then t_seq /. t_par else 0.0)
      (if seq = par then "identical" else "DIFFERENT (determinism bug!)");
    par
  end

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
    (stream : Fcstack.Toolchain.stream_opts option) (chaos : bool)
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
      (let wr =
         run_maybe_parallel "workload" config (fun ~config ->
             Fcstack.Experiments.run_workload ~nodes ~config ())
       in
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
  if want "micro" then run_micro ();
  Format.pp_print_flush ppf ();
  (* cache accounting to stderr only: stdout tables stay byte-identical
     with and without the cache (CI cmp-enforces this) *)
  Fcstack.Cliopts.finalize config;
  0
  end
  end

open Cmdliner

let experiment_arg =
  Arg.(value & opt string "all"
       & info [ "e"; "experiment" ] ~docv:"EXPERIMENT"
           ~doc:"Run only $(docv): listings, table1, figure2, annot, \
                 ablation, overestimation, micro, gvnlicm (pure-JSON \
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
    ~doc:"Per-node parallelism; with $(docv) > 1 every workload-driven \
          experiment is also timed sequentially and the comparison goes \
          to stderr (stdout tables stay byte-identical)."

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
