(* Analyzer driver: the full aiT-like phase sequence of the paper's
   Figure 1 (Gebhard et al.) applied to one task entry point:

     decode/CFG reconstruction -> loop & value analysis ->
     cache & pipeline analysis -> IPET path analysis.

   [analyze] raises [Error] when the program cannot be soundly bounded
   (irreducible flow, unbounded loop without annotation) — the analyzer
   never silently returns an unsound number.

   All entry points take an optional [?cache] ([Memo.t]): when given,
   an analysis whose content key (code, placement, layout slice — see
   [Memo]) was already computed is served from the cache, with the
   function name re-stamped into the report and annotation entries
   (the name is the one analysis input that only reaches the output).
   Only successful analyses are cached; a refused analysis re-runs its
   phases on every call, which keeps [Error] messages exact. *)

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* The phase sequence proper, on a function already resolved to its
   entry address. Phase-run accounting goes to the cache (if any), so
   hit/miss arithmetic in [Report.analysis_stats] is observable.

   [fuel] budgets every iterative phase (see [Fuel]); exhaustion is
   caught here and converted into a refusal ([Error "analysis
   diverged: ..."]) — the analyzer never hangs and never trades a
   blown budget for an unsound bound. *)
let compute ?cache ?(fuel = Fuel.default) ?(engine = Report.Ipet)
    (fname : string) (f : Target.Asm.func) (base_addr : int)
    (lay : Target.Layout.t) : Report.t * Annotfile.entry list =
  try
  (* 1. decode *)
  Memo.count_phase cache Memo.Pdecode;
  let cfg =
    try Cfg.build fname base_addr f.Target.Asm.fn_code
    with Cfg.Decode_error msg -> fail "decode: %s" msg
  in
  (* 2. dominators, loops *)
  let dom = Dom.compute cfg in
  let loops =
    try Loops.compute cfg dom
    with Loops.Irreducible msg -> fail "irreducible control flow: %s" msg
  in
  (* 3. value analysis *)
  Memo.count_phase cache Memo.Pvalue;
  let va = Valueanalysis.analyze ~fuel:fuel.Fuel.fl_widen cfg in
  (* 4. loop bounds *)
  Memo.count_phase cache Memo.Pbounds;
  let bounds =
    match Boundanalysis.analyze cfg dom loops va with
    | Ok bounds -> bounds
    | Error f' -> fail "%s" f'.Boundanalysis.fail_reason
  in
  (* 5. cache analysis: capacity/persistence classification refined by
     the Ferdinand-style must-cache ageing analysis *)
  Memo.count_phase cache Memo.Pcache;
  let cache_cls = Cacheanalysis.analyze cfg va lay in
  let must = Mustcache.analyze ~fuel:fuel.Fuel.fl_widen cfg va lay in
  let cache_cls = Cacheanalysis.refine cache_cls (Mustcache.block_hits must) in
  (* 6. pipeline analysis *)
  Memo.count_phase cache Memo.Ppipeline;
  let pl = Pipeline.analyze cfg cache_cls in
  (* 7. path analysis, by the selected engine. [Both] runs OMT (whose
     base bound *is* the IPET bound, over the identical flow system)
     and cross-checks the differential oracle omt <= ipet — a
     violation would mean one of the engines is wrong, so it is a
     refusal, never a silently reported number. *)
  let wcet, exact, wcet_ipet, wcet_omt, omt_cuts =
    match engine with
    | Report.Ipet ->
      Memo.count_phase cache Memo.Pipet;
      let res =
        try Ipet.compute ~fuel cfg pl cache_cls loops bounds
        with Ipet.Analysis_failed msg -> fail "path analysis: %s" msg
      in
      (res.Ipet.ipet_wcet, res.Ipet.ipet_exact, None, None, 0)
    | Report.Omt ->
      Memo.count_phase cache Memo.Pomt;
      let res =
        try Smt.compute ~fuel cfg dom pl cache_cls loops bounds
        with Ipet.Analysis_failed msg -> fail "path analysis: %s" msg
      in
      ( res.Smt.smt_wcet, res.Smt.smt_exact, None,
        Some res.Smt.smt_wcet, res.Smt.smt_cuts )
    | Report.Both ->
      Memo.count_phase cache Memo.Pipet;
      Memo.count_phase cache Memo.Pomt;
      let res =
        try Smt.compute ~fuel cfg dom pl cache_cls loops bounds
        with Ipet.Analysis_failed msg -> fail "path analysis: %s" msg
      in
      if res.Smt.smt_wcet > res.Smt.smt_ipet_wcet then
        fail
          "engine divergence on %s: OMT bound %d cycles exceeds IPET \
           bound %d cycles (refusing to bound)"
          fname res.Smt.smt_wcet res.Smt.smt_ipet_wcet;
      ( res.Smt.smt_wcet, res.Smt.smt_exact,
        Some res.Smt.smt_ipet_wcet, Some res.Smt.smt_wcet,
        res.Smt.smt_cuts )
  in
  ( { Report.rp_function = fname;
      rp_wcet = wcet;
      rp_exact_ilp = exact;
      rp_engine = engine;
      rp_wcet_ipet = wcet_ipet;
      rp_wcet_omt = wcet_omt;
      rp_omt_cuts = omt_cuts;
      rp_blocks = Cfg.num_blocks cfg;
      rp_code_bytes = Target.Asm.func_size f;
      rp_loops =
        List.map
          (fun lb ->
             { Report.li_header = lb.Boundanalysis.lb_header;
               li_bound = lb.Boundanalysis.lb_bound;
               li_from_annotation = lb.Boundanalysis.lb_source = Boundanalysis.Bannot })
          bounds;
      rp_cache_first_miss = cache_cls.Cacheanalysis.ca_first_miss;
      rp_cache_imprecise = cache_cls.Cacheanalysis.ca_imprecise;
      rp_code_lines = cache_cls.Cacheanalysis.ca_ilines;
      rp_data_lines = cache_cls.Cacheanalysis.ca_dlines },
    Annotfile.extract_func f )
  with Fuel.Exhausted what ->
    fail "analysis diverged: %s exhausted its fuel budget (refusing to bound)"
      what

(* One function, cache-aware. The cached report/annotations may carry
   the name of whichever structurally identical function was analyzed
   first; re-stamp ours (nothing else in the output depends on it). *)
let analyze_func ?cache ?fuel ?spec ?engine (f : Target.Asm.func)
    (base_addr : int) (lay : Target.Layout.t) :
  Report.t * Annotfile.entry list =
  let fname = f.Target.Asm.fn_name in
  match cache with
  | None -> compute ?fuel ?engine fname f base_addr lay
  | Some c ->
    (* the fuel budgets and the engine are part of the content key: a
       different budget can change the outcome (success vs refusal,
       exact vs relaxation bound) and a different engine bounds the
       same code differently by design, so neither ever shares an
       entry. Refusals ([Error], including fuel exhaustion) are never
       cached at all — only the successful [compute] below reaches
       [Memo.add]. *)
    let key = Memo.key ?fuel ?spec ?engine lay ~base:base_addr f in
    (match Memo.find c key with
     | Some v ->
       ( { v.Memo.cv_report with Report.rp_function = fname },
         List.map
           (fun e -> { e with Annotfile.an_function = fname })
           v.Memo.cv_annots )
     | None ->
       let report, annots =
         compute ~cache:c ?fuel ?engine fname f base_addr lay
       in
       Memo.add c key { Memo.cv_report = report; cv_annots = annots };
       (report, annots))

let resolve (asm : Target.Asm.program) (lay : Target.Layout.t)
    (fname : string) : Target.Asm.func * int =
  let f =
    match Target.Asm.find_func asm fname with
    | Some f -> f
    | None -> fail "no function %s" fname
  in
  match Hashtbl.find_opt lay.Target.Layout.lay_code fname with
  | Some a -> (f, a)
  | None -> fail "function %s not in layout" fname

let analyze_full ?cache ?fuel ?spec ?engine ?fname
    (asm : Target.Asm.program) (lay : Target.Layout.t) :
  Report.t * Annotfile.entry list =
  let fname = Option.value ~default:asm.Target.Asm.pr_main fname in
  let f, base_addr = resolve asm lay fname in
  analyze_func ?cache ?fuel ?spec ?engine f base_addr lay

let analyze ?cache ?fuel ?spec ?engine ?fname (asm : Target.Asm.program)
    (lay : Target.Layout.t) : Report.t =
  fst (analyze_full ?cache ?fuel ?spec ?engine ?fname asm lay)

(* WCET of every function in a program (the per-node analysis of the
   paper's Figure 2). The functions are iterated directly — no repeated
   name lookup: going through [analyze ~fname] re-ran the linear
   [Asm.find_func] scan per function, making whole-program analysis
   quadratic in the function count. Entry addresses still come from the
   layout's constant-time code table. *)
let analyze_program ?cache ?fuel ?spec ?engine (asm : Target.Asm.program)
    (lay : Target.Layout.t) : (string * Report.t) list =
  List.map
    (fun (f : Target.Asm.func) ->
       let base_addr =
         match Hashtbl.find_opt lay.Target.Layout.lay_code f.Target.Asm.fn_name with
         | Some a -> a
         | None -> fail "function %s not in layout" f.Target.Asm.fn_name
       in
       ( f.Target.Asm.fn_name,
         fst (analyze_func ?cache ?fuel ?spec ?engine f base_addr lay) ))
    asm.Target.Asm.pr_funcs

(* The whole program's annotation file, through the cache: a function
   whose analysis already hit contributes its cached fragment without
   re-scanning the instruction stream. *)
let annotations ?cache ?fuel ?spec ?engine (asm : Target.Asm.program)
    (lay : Target.Layout.t) : Annotfile.entry list =
  List.concat_map
    (fun (f : Target.Asm.func) ->
       match cache with
       | None -> Annotfile.extract_func f
       | Some c ->
         (match Hashtbl.find_opt lay.Target.Layout.lay_code f.Target.Asm.fn_name with
          | None -> Annotfile.extract_func f
          | Some base ->
            (match Memo.peek c (Memo.key ?fuel ?spec ?engine lay ~base f) with
             | Some v ->
               List.map
                 (fun e ->
                    { e with Annotfile.an_function = f.Target.Asm.fn_name })
                 v.Memo.cv_annots
             | None -> Annotfile.extract_func f)))
    asm.Target.Asm.pr_funcs
