(* Tests of the content-addressed WCET-analysis cache (Wcet.Memo):
   cached analysis is observationally identical to uncached analysis
   (the qcheck contract), a one-byte code change misses, structurally
   identical functions under different names/signal names hit with the
   name re-stamped, cache hits keep the annotation fragment intact, and
   hits run no analysis phases. *)

module Asm = Target.Asm

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let build_src (text : string) : Minic.Ast.program =
  let p = Minic.Parser.parse_program text in
  Minic.Typecheck.check_program_exn p;
  p

(* Chain.wcet takes a whole Toolchain.config; these tests only vary the
   cache field *)
let wcet_c ~(cache : Wcet.Memo.t) (b : Fcstack.Chain.built) : Wcet.Report.t =
  Fcstack.Chain.wcet
    ~config:
      (Fcstack.Toolchain.of_session_request
         (Fcstack.Toolchain.session ~cache ())
         Fcstack.Toolchain.default_request)
    b

(* ---- cached == uncached, on random programs, with a cache shared
   across iterations and compilers so hits actually occur ---- *)

let cached_equals_uncached_prop =
  QCheck.Test.make ~count:40
    ~name:"memo: analyze ?cache = analyze (report and annotations)"
    QCheck.small_int
    (fun seed ->
       let cache = Wcet.Memo.create () in
       List.for_all
         (fun s ->
            let p = Testlib.Gen.gen_program s in
            List.for_all
              (fun comp ->
                 let b = Fcstack.Chain.build ~exact:true comp p in
                 let cached =
                   try
                     Ok
                       (Wcet.Driver.analyze_full ~cache b.Fcstack.Chain.b_asm
                          b.Fcstack.Chain.b_layout)
                   with Wcet.Driver.Error m -> Error m
                 in
                 let plain =
                   try
                     Ok
                       (Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
                          b.Fcstack.Chain.b_layout)
                   with Wcet.Driver.Error m -> Error m
                 in
                 cached = plain)
              Fcstack.Chain.all_compilers)
         (* same seed twice: the second round must be all hits and still
            agree with the uncached reference *)
         [ seed land 0xFFF; (seed land 0xFFF) + 1; seed land 0xFFF ])

(* WCET >= simulated cycles must hold through cache hits: analyze twice
   (second run served from cache) and compare the cached bound against
   the simulator. *)
let soundness_through_hits_prop =
  QCheck.Test.make ~count:25
    ~name:"memo: WCET >= simulated cycles through cache hits"
    QCheck.small_int
    (fun seed ->
       let cache = Wcet.Memo.create () in
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            match
              ( wcet_c ~cache b,
                wcet_c ~cache b (* hit *) )
            with
            | r1, r2 ->
              r1 = r2
              && List.for_all
                   (fun s ->
                      let sim =
                        Fcstack.Chain.simulate b
                          (Minic.Interp.seeded_world ~seed:s ())
                      in
                      r2.Wcet.Report.rp_wcet
                      >= sim.Target.Sim.rr_stats.Target.Sim.cycles)
                   [ 1; 2; 3 ]
            | exception Wcet.Driver.Error _ -> true)
         Fcstack.Chain.all_compilers)

(* ---- a one-byte instruction change must miss ---- *)

let test_mutation_misses () =
  let src =
    build_src
      {| global int g; void m() { var int x; x = 5; $g = x + 1; } main m; |}
  in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let cache = Wcet.Memo.create () in
  let r1 = Wcet.Driver.analyze ~cache b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout in
  checki "one miss after first analysis" 1
    (Wcet.Memo.stats cache).Wcet.Report.st_misses;
  (* flip one immediate in the entry function's code *)
  let mutated = ref false in
  let mutate_instr (i : Asm.instr) : Asm.instr =
    match i with
    | Asm.Paddi (d, s, imm) when not !mutated ->
      mutated := true;
      Asm.Paddi (d, s, Int32.add imm 1l)
    | _ -> i
  in
  let asm' =
    { b.Fcstack.Chain.b_asm with
      Asm.pr_funcs =
        List.map
          (fun f -> { f with Asm.fn_code = List.map mutate_instr f.Asm.fn_code })
          b.Fcstack.Chain.b_asm.Asm.pr_funcs }
  in
  checkb "an immediate was mutated" true !mutated;
  let r2 = Wcet.Driver.analyze ~cache asm' b.Fcstack.Chain.b_layout in
  checki "mutated code misses the cache" 2
    (Wcet.Memo.stats cache).Wcet.Report.st_misses;
  checki "two distinct entries" 2 (Wcet.Memo.length cache);
  (* the recomputed report is the uncached analysis of the mutated
     code, not the stale entry *)
  checkb "mutated report = fresh uncached analysis" true
    (r2 = Wcet.Driver.analyze asm' b.Fcstack.Chain.b_layout);
  ignore r1

(* the key itself: identical inputs agree, a mutated body differs *)
let test_key_digest () =
  let src = build_src {| global int g; void m() { $g = 3; } main m; |} in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let f = List.hd b.Fcstack.Chain.b_asm.Asm.pr_funcs in
  let lay = b.Fcstack.Chain.b_layout in
  let k1 = Wcet.Memo.key lay ~base:0x1000 f in
  let k2 = Wcet.Memo.key lay ~base:0x1000 f in
  checks "same content, same digest" (Wcet.Memo.digest k1) (Wcet.Memo.digest k2);
  let k3 = Wcet.Memo.key lay ~base:0x1020 f in
  checkb "different base address, different digest" false
    (String.equal (Wcet.Memo.digest k1) (Wcet.Memo.digest k3))

(* ---- structurally identical nodes hit across names ---- *)

let test_hit_across_names () =
  (* same body; different function name and volatile signal names (the
     ACG node-prefixes both) — the second analysis must be a hit, with
     the report carrying the *second* name *)
  let srcA =
    build_src
      {| volatile in int sigA; global int g;
         void nodeA_main() { $g = volatile(sigA) + 2; } main nodeA_main; |}
  in
  let srcB =
    build_src
      {| volatile in int sigB; global int g;
         void nodeB_main() { $g = volatile(sigB) + 2; } main nodeB_main; |}
  in
  let bA = Fcstack.Chain.build Fcstack.Chain.Cvcomp srcA in
  let bB = Fcstack.Chain.build Fcstack.Chain.Cvcomp srcB in
  let cache = Wcet.Memo.create () in
  let rA = wcet_c ~cache bA in
  let rB = wcet_c ~cache bB in
  let st = Wcet.Memo.stats cache in
  checki "second analysis is a hit" 1 st.Wcet.Report.st_hits;
  checki "one analysis computed" 1 st.Wcet.Report.st_misses;
  checks "hit re-stamps the function name" "nodeB_main"
    rB.Wcet.Report.rp_function;
  checkb "identical bounds" true
    (rA.Wcet.Report.rp_wcet = rB.Wcet.Report.rp_wcet);
  (* and the hit is exactly what the uncached analysis computes *)
  checkb "hit = uncached analysis" true (rB = Fcstack.Chain.wcet bB)

(* ---- annotation fragments survive hits (with re-stamped names) ---- *)

let test_annotations_through_hits () =
  let text (n : string) : string =
    Printf.sprintf
      {| global int cfg; global double g;
         void %s() { var int i;
           $cfg = 6;
           for (i = 0; i < $cfg) {
             __builtin_annotation("loopbound 6");
             $g = $g +. 1.0; } } main %s; |}
      n n
  in
  let bA = Fcstack.Chain.build Fcstack.Chain.Cvcomp (build_src (text "fa")) in
  let bB = Fcstack.Chain.build Fcstack.Chain.Cvcomp (build_src (text "fb")) in
  let cache = Wcet.Memo.create () in
  let _, annotsA =
    Wcet.Driver.analyze_full ~cache bA.Fcstack.Chain.b_asm
      bA.Fcstack.Chain.b_layout
  in
  let _, annotsB =
    Wcet.Driver.analyze_full ~cache bB.Fcstack.Chain.b_asm
      bB.Fcstack.Chain.b_layout
  in
  checki "hit" 1 (Wcet.Memo.stats cache).Wcet.Report.st_hits;
  checkb "fragments non-empty" true (annotsA <> [] && annotsB <> []);
  List.iter
    (fun e -> checks "fragment function re-stamped" "fb" e.Wcet.Annotfile.an_function)
    annotsB;
  checkb "fragment equals direct extraction" true
    (List.for_all2 Wcet.Annotfile.entry_equal annotsB
       (Wcet.Annotfile.extract bB.Fcstack.Chain.b_asm));
  (* Driver.annotations assembles the program's file from the cache *)
  let from_cache =
    Wcet.Driver.annotations ~cache bB.Fcstack.Chain.b_asm
      bB.Fcstack.Chain.b_layout
  in
  checkb "program annotations from cache = extract" true
    (List.for_all2 Wcet.Annotfile.entry_equal from_cache
       (Wcet.Annotfile.extract bB.Fcstack.Chain.b_asm))

(* ---- hits run no phases; stats add up ---- *)

let test_phase_accounting () =
  let src = build_src {| global double g; void m() { var int i;
      for (i = 0; i < 12) { $g = $g +. 1.0; } } main m; |}
  in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let cache = Wcet.Memo.create () in
  ignore (wcet_c ~cache b);
  let st1 = Wcet.Memo.stats cache in
  checki "decode ran once" 1 st1.Wcet.Report.st_decode;
  checki "IPET ran once" 1 st1.Wcet.Report.st_ipet;
  ignore (wcet_c ~cache b);
  ignore (wcet_c ~cache b);
  let st2 = Wcet.Memo.stats cache in
  checki "hits counted" 2 st2.Wcet.Report.st_hits;
  checki "no further decode" 1 st2.Wcet.Report.st_decode;
  checki "no further IPET" 1 st2.Wcet.Report.st_ipet;
  checki "one entry" 1 st2.Wcet.Report.st_entries;
  checkb "hit rate reported" true (Wcet.Report.hit_rate st2 > 0.0);
  checkb "stats render" true
    (String.length (Wcet.Report.stats_to_string st2) > 0)

(* a refused analysis is never cached: each attempt re-runs phases *)
let test_failure_not_cached () =
  let src =
    build_src
      {| global int cfg; global double g;
         void m() { var int i;
           $cfg = 6;
           for (i = 0; i < $cfg) { $g = $g +. 1.0; } } main m; |}
  in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let cache = Wcet.Memo.create () in
  let attempt () =
    match wcet_c ~cache b with
    | _ -> Alcotest.fail "unbounded loop must be refused"
    | exception Wcet.Driver.Error _ -> ()
  in
  attempt ();
  attempt ();
  let st = Wcet.Memo.stats cache in
  checki "no entries cached" 0 st.Wcet.Report.st_entries;
  checki "two misses" 2 st.Wcet.Report.st_misses;
  checki "decode ran twice" 2 st.Wcet.Report.st_decode;
  checki "IPET never reached" 0 st.Wcet.Report.st_ipet

(* analyze_program: one report per function, same as one-by-one analyze *)
let test_analyze_program_matches () =
  let src =
    build_src
      {| global int g; global double h;
         void f1() { $g = 1; }
         void f2() { $h = 2.5; }
         void m() { $g = 3; }
         main m; |}
  in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let cache = Wcet.Memo.create () in
  let all =
    Wcet.Driver.analyze_program ~cache b.Fcstack.Chain.b_asm
      b.Fcstack.Chain.b_layout
  in
  checki "one report per function" 3 (List.length all);
  List.iter
    (fun (name, r) ->
       checks "report carries its function" name r.Wcet.Report.rp_function;
       checkb (name ^ ": = analyze ~fname") true
         (r
          = Wcet.Driver.analyze ~fname:name b.Fcstack.Chain.b_asm
              b.Fcstack.Chain.b_layout))
    all

(* ---- pipeline specs never share entries ---- *)

(* Two optimization selections must never share a cache entry, even
   when they emit identical code for a node: the spec is part of the
   content key. A build under -O 1 and a build under -O 2 of a
   straight-line node (same assembly either way) must produce two
   entries and zero cross-spec hits. *)
let test_specs_never_share_entries () =
  let src =
    build_src {| global double g; double m() { return $g +. 1.0; } main m; |}
  in
  let b1 =
    Fcstack.Chain.build ~passes:(Vcomp.Pass.level 1) Fcstack.Chain.Cvcomp src
  in
  let b2 =
    Fcstack.Chain.build ~passes:(Vcomp.Pass.level 2) Fcstack.Chain.Cvcomp src
  in
  checkb "straight-line node: same assembly at -O 1 and -O 2" true
    (b1.Fcstack.Chain.b_asm = b2.Fcstack.Chain.b_asm);
  checkb "distinct specs recorded" true
    (b1.Fcstack.Chain.b_spec <> b2.Fcstack.Chain.b_spec);
  let cache = Wcet.Memo.create () in
  let r1 = wcet_c ~cache b1 in
  let r2 = wcet_c ~cache b2 in
  checki "identical bound (same code)" r1.Wcet.Report.rp_wcet
    r2.Wcet.Report.rp_wcet;
  let st = Wcet.Memo.stats cache in
  checki "two entries, one per spec" 2 st.Wcet.Report.st_entries;
  checki "no cross-spec hit" 0 st.Wcet.Report.st_hits;
  (* and the raw keys differ exactly when the spec differs *)
  let f = List.hd b1.Fcstack.Chain.b_asm.Asm.pr_funcs in
  let lay = b1.Fcstack.Chain.b_layout in
  let k1 = Wcet.Memo.key ~spec:b1.Fcstack.Chain.b_spec lay ~base:0 f in
  let k1' = Wcet.Memo.key ~spec:b1.Fcstack.Chain.b_spec lay ~base:0 f in
  let k2 = Wcet.Memo.key ~spec:b2.Fcstack.Chain.b_spec lay ~base:0 f in
  checkb "same spec, same digest" true
    (Wcet.Memo.digest k1 = Wcet.Memo.digest k1');
  checkb "different spec, different digest" true
    (Wcet.Memo.digest k1 <> Wcet.Memo.digest k2)

(* ---- engines never share entries ---- *)

(* The IPET and OMT engines bound the same code differently, so their
   results must never alias in the cache: the engine joins the content
   key. Analyzing one node under each engine yields one entry per
   engine and zero cross-engine hits; [Both] is its own third entry. *)
let test_engines_never_share_entries () =
  let src =
    build_src
      {| volatile in double e_in; global double g;
         void m() { var double x; x = volatile(e_in);
           if (x >. 10.0) { $g = x +. 1.0; } else { skip; }
           if (x <. 5.0)  { $g = $g +. 2.0; } else { skip; } } main m; |}
  in
  let b = Fcstack.Chain.build Fcstack.Chain.Cdefault_o0 src in
  let cache = Wcet.Memo.create () in
  let run engine =
    Wcet.Driver.analyze ~cache ~engine b.Fcstack.Chain.b_asm
      b.Fcstack.Chain.b_layout
  in
  let ipet = run Wcet.Report.Ipet in
  let omt = run Wcet.Report.Omt in
  let both = run Wcet.Report.Both in
  let st = Wcet.Memo.stats cache in
  checki "three engines, three entries" 3 st.Wcet.Report.st_entries;
  checki "no cross-engine hit" 0 st.Wcet.Report.st_hits;
  (* repeats are hits within their own engine *)
  checkb "ipet repeat hits its own entry" true (run Wcet.Report.Ipet = ipet);
  checkb "omt repeat hits its own entry" true (run Wcet.Report.Omt = omt);
  checki "two hits after repeats" 2
    (Wcet.Memo.stats cache).Wcet.Report.st_hits;
  ignore both;
  (* and the raw digests separate exactly on the engine *)
  let f = List.hd b.Fcstack.Chain.b_asm.Asm.pr_funcs in
  let lay = b.Fcstack.Chain.b_layout in
  let k e = Wcet.Memo.digest (Wcet.Memo.key ~engine:e lay ~base:0 f) in
  checks "default engine key = explicit Ipet key"
    (Wcet.Memo.digest (Wcet.Memo.key lay ~base:0 f))
    (k Wcet.Report.Ipet);
  checkb "ipet and omt digests differ" true
    (k Wcet.Report.Ipet <> k Wcet.Report.Omt);
  checkb "both is a third digest" true
    (k Wcet.Report.Both <> k Wcet.Report.Ipet
     && k Wcet.Report.Both <> k Wcet.Report.Omt)

(* the OMT phase counter: an Omt analysis runs Pomt, not Pipet; Both
   runs both; hits run neither *)
let test_engine_phase_accounting () =
  let src = build_src {| global double g; void m() { $g = 1.0; } main m; |} in
  let b = Fcstack.Chain.build Fcstack.Chain.Cvcomp src in
  let cache = Wcet.Memo.create () in
  let run engine =
    ignore
      (Wcet.Driver.analyze ~cache ~engine b.Fcstack.Chain.b_asm
         b.Fcstack.Chain.b_layout)
  in
  run Wcet.Report.Omt;
  let st1 = Wcet.Memo.stats cache in
  checki "omt counted" 1 st1.Wcet.Report.st_omt;
  checki "ipet not counted" 0 st1.Wcet.Report.st_ipet;
  run Wcet.Report.Both;
  let st2 = Wcet.Memo.stats cache in
  checki "both counts ipet" 1 st2.Wcet.Report.st_ipet;
  checki "both counts omt" 2 st2.Wcet.Report.st_omt;
  run Wcet.Report.Omt (* hit *);
  let st3 = Wcet.Memo.stats cache in
  checki "hit runs no omt phase" 2 st3.Wcet.Report.st_omt

(* ---- the key is a function of content, not of sharing ---- *)

(* A node built from the ACG's AST and the same node built from its
   printed and re-parsed source compile to equal code, but the two
   builds share different strings physically. The keys must agree: a
   store written by [bench] (which compiles the AST) must serve [aitw]
   (which parses [fcgen]'s files). *)
let test_key_sharing_independent () =
  let keys (b : Fcstack.Chain.built) : string list =
    let lay = b.Fcstack.Chain.b_layout in
    List.map
      (fun (f : Asm.func) ->
         let base = Hashtbl.find lay.Target.Layout.lay_code f.Asm.fn_name in
         Wcet.Memo.digest
           (Wcet.Memo.key ~spec:b.Fcstack.Chain.b_spec lay ~base f))
      b.Fcstack.Chain.b_asm.Asm.pr_funcs
  in
  for i = 0 to 49 do
    let ast = Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i) in
    let reparsed =
      Minic.Parser.parse_program (Minic.Pp.program_to_string ast)
    in
    List.iter
      (fun comp ->
         let b = Fcstack.Chain.build comp ast in
         let b' = Fcstack.Chain.build comp reparsed in
         let what =
           Printf.sprintf "node %d under %s" i
             (Fcstack.Chain.compiler_name comp)
         in
         checkb (what ^ ": same code") true
           (compare b.Fcstack.Chain.b_asm b'.Fcstack.Chain.b_asm = 0);
         checkb (what ^ ": same keys") true (keys b = keys b'))
      [ Fcstack.Chain.Cdefault_o0; Fcstack.Chain.Cvcomp ]
  done

(* ---- the payload is injective (oracle: test/memo_ref.ml) ---- *)

type key_input = {
  ki_code : Asm.instr list;
  ki_lay : Target.Layout.t;
  ki_base : int;
  ki_fuel : Wcet.Fuel.t;
  ki_spec : string;
  ki_engine : Wcet.Report.engine;
}

let new_digest (ki : key_input) : string =
  Wcet.Memo.digest
    (Wcet.Memo.key ~fuel:ki.ki_fuel ~spec:ki.ki_spec ~engine:ki.ki_engine
       ki.ki_lay ~base:ki.ki_base
       { Asm.fn_name = "f"; fn_code = ki.ki_code })

let ref_payload (ki : key_input) : string =
  Memo_ref.payload ~flags:[ Marshal.No_sharing ] ~fuel:ki.ki_fuel
    ~spec:ki.ki_spec ~engine:ki.ki_engine ki.ki_lay ~base:ki.ki_base
    { Asm.fn_name = "f"; fn_code = ki.ki_code }

let gen_key_input : key_input QCheck.Gen.t =
 fun st ->
  let int n = Random.State.int st n in
  let lay_sym = Hashtbl.create 8
  and lay_sym_size = Hashtbl.create 8
  and lay_consts = Hashtbl.create 8 in
  (* mostly placed; sometimes not, so the slice holds [None]s too *)
  List.iter
    (fun s ->
       if int 8 > 0 then Hashtbl.replace lay_sym s (0x2000 + (8 * int 64));
       if int 8 > 0 then Hashtbl.replace lay_sym_size s (4 * (1 + int 8)))
    Testlib.Gen.asm_syms;
  List.iter
    (fun c ->
       if int 8 > 0 then
         Hashtbl.replace lay_consts (Int64.bits_of_float c)
           (0x4000 + (8 * int 64)))
    Testlib.Gen.asm_consts;
  { ki_code = Testlib.Gen.asm_code st;
    ki_lay =
      { Target.Layout.lay_code = Hashtbl.create 1;
        lay_sym;
        lay_sym_size;
        lay_consts;
        lay_stack_top = 0x8000 + (16 * int 4);
        lay_mem_size = 0x10000 };
    ki_base = 0x1000 + (4 * int 16);
    ki_fuel =
      { Wcet.Fuel.fl_widen = 100 + int 3;
        fl_simplex = 100 + int 3;
        fl_bb_nodes = 100 + int 3 };
    ki_spec = List.nth [ ""; "o0"; "vcomp:cse" ] (int 3);
    ki_engine = List.nth [ Wcet.Report.Ipet; Omt; Both ] (int 3) }

(* Every field of the instruction type, one function per kind; the
   mutants below change exactly one visited field. *)
type mapper = {
  op : Asm.instr -> Asm.instr;  (* the constructor, operands kept *)
  cond : Asm.branch_cond -> Asm.branch_cond;
  reg : int -> int;  (* int and float register operands *)
  imm : int32 -> int32;  (* immediates, displacements, annotation ints *)
  num : int -> int;  (* shift counts and frame sizes *)
  label : int -> int;
  mode : Asm.address -> Asm.address;  (* the addressing mode as a whole *)
  sym : string -> string;
  text : string -> string;
  const : float -> float;
  vol : string -> string;
}

let map_instr (m : mapper) (i : Asm.instr) : Asm.instr =
  let r = m.reg in
  let addr (a : Asm.address) : Asm.address =
    match m.mode a with
    | Asm.Aind (b, d) -> Asm.Aind (r b, m.imm d)
    | Asm.Aindx (b, x) -> Asm.Aindx (r b, r x)
    | Asm.Aglob (s, d) -> Asm.Aglob (m.sym s, m.imm d)
    | Asm.Asda (s, d) -> Asm.Asda (m.sym s, m.imm d)
  in
  let arg (a : Asm.annot_arg) : Asm.annot_arg =
    match a with
    | Asm.AA_ireg x -> Asm.AA_ireg (r x)
    | Asm.AA_freg x -> Asm.AA_freg (r x)
    | Asm.AA_const_int n -> Asm.AA_const_int (m.imm n)
    | Asm.AA_const_float f -> Asm.AA_const_float (m.const f)
    | Asm.AA_stack_int n -> Asm.AA_stack_int (m.imm n)
    | Asm.AA_stack_float n -> Asm.AA_stack_float (m.imm n)
  in
  let c = m.cond in
  match m.op i with
  | Asm.Plabel l -> Asm.Plabel (m.label l)
  | Asm.Pb l -> Asm.Pb (m.label l)
  | Asm.Pbc (k, l) -> Asm.Pbc (c k, m.label l)
  | Asm.Pblr -> Asm.Pblr
  | Asm.Pannot (t, args) -> Asm.Pannot (m.text t, List.map arg args)
  | Asm.Padd (d, a, b) -> Asm.Padd (r d, r a, r b)
  | Asm.Psubf (d, a, b) -> Asm.Psubf (r d, r a, r b)
  | Asm.Pmullw (d, a, b) -> Asm.Pmullw (r d, r a, r b)
  | Asm.Pdivw (d, a, b) -> Asm.Pdivw (r d, r a, r b)
  | Asm.Pand (d, a, b) -> Asm.Pand (r d, r a, r b)
  | Asm.Por (d, a, b) -> Asm.Por (r d, r a, r b)
  | Asm.Pxor (d, a, b) -> Asm.Pxor (r d, r a, r b)
  | Asm.Pslw (d, a, b) -> Asm.Pslw (r d, r a, r b)
  | Asm.Psraw (d, a, b) -> Asm.Psraw (r d, r a, r b)
  | Asm.Pneg (d, a) -> Asm.Pneg (r d, r a)
  | Asm.Pmr (d, a) -> Asm.Pmr (r d, r a)
  | Asm.Paddi (d, a, n) -> Asm.Paddi (r d, r a, m.imm n)
  | Asm.Paddis (d, a, n) -> Asm.Paddis (r d, r a, m.imm n)
  | Asm.Pori (d, a, n) -> Asm.Pori (r d, r a, m.imm n)
  | Asm.Pslwi (d, a, n) -> Asm.Pslwi (r d, r a, m.num n)
  | Asm.Plwz (d, a) -> Asm.Plwz (r d, addr a)
  | Asm.Pstw (d, a) -> Asm.Pstw (r d, addr a)
  | Asm.Plfd (d, a) -> Asm.Plfd (r d, addr a)
  | Asm.Pstfd (d, a) -> Asm.Pstfd (r d, addr a)
  | Asm.Plfdc (d, c) -> Asm.Plfdc (r d, m.const c)
  | Asm.Pla (d, s) -> Asm.Pla (r d, m.sym s)
  | Asm.Pcmpw (a, b) -> Asm.Pcmpw (r a, r b)
  | Asm.Pcmpwi (a, n) -> Asm.Pcmpwi (r a, m.imm n)
  | Asm.Pfcmpu (a, b) -> Asm.Pfcmpu (r a, r b)
  | Asm.Psetcc (d, k) -> Asm.Psetcc (r d, c k)
  | Asm.Pmovcc (d, a, k) -> Asm.Pmovcc (r d, r a, c k)
  | Asm.Pfmovcc (d, a, k) -> Asm.Pfmovcc (r d, r a, c k)
  | Asm.Pfadd (d, a, b) -> Asm.Pfadd (r d, r a, r b)
  | Asm.Pfsub (d, a, b) -> Asm.Pfsub (r d, r a, r b)
  | Asm.Pfmul (d, a, b) -> Asm.Pfmul (r d, r a, r b)
  | Asm.Pfdiv (d, a, b) -> Asm.Pfdiv (r d, r a, r b)
  | Asm.Pfmadd (d, a, b, e) -> Asm.Pfmadd (r d, r a, r b, r e)
  | Asm.Pfmsub (d, a, b, e) -> Asm.Pfmsub (r d, r a, r b, r e)
  | Asm.Pfneg (d, a) -> Asm.Pfneg (r d, r a)
  | Asm.Pfabs (d, a) -> Asm.Pfabs (r d, r a)
  | Asm.Pfmr (d, a) -> Asm.Pfmr (r d, r a)
  | Asm.Pfcfiw (d, a) -> Asm.Pfcfiw (r d, r a)
  | Asm.Pfctiwz (d, a) -> Asm.Pfctiwz (r d, r a)
  | Asm.Pacqi (d, v) -> Asm.Pacqi (r d, m.vol v)
  | Asm.Pacqf (d, v) -> Asm.Pacqf (r d, m.vol v)
  | Asm.Pouti (v, a) -> Asm.Pouti (m.vol v, r a)
  | Asm.Poutf (v, a) -> Asm.Poutf (m.vol v, r a)
  | Asm.Pallocframe n -> Asm.Pallocframe (m.num n)
  | Asm.Pfreeframe n -> Asm.Pfreeframe (m.num n)

let identity : mapper =
  { op = Fun.id; cond = Fun.id; reg = Fun.id; imm = Fun.id; num = Fun.id; label = Fun.id; mode = Fun.id;
    sym = Fun.id; text = Fun.id; const = Fun.id; vol = Fun.id }

(* A constructor with the same operands, where there is one: the
   mutant that a shared tag would let collide. *)
let sibling (i : Asm.instr) : Asm.instr option =
  match i with
  | Asm.Plabel l -> Some (Asm.Pb l)
  | Asm.Pb l -> Some (Asm.Plabel l)
  | Asm.Padd (d, a, b) -> Some (Asm.Psubf (d, a, b))
  | Asm.Psubf (d, a, b) -> Some (Asm.Pmullw (d, a, b))
  | Asm.Pmullw (d, a, b) -> Some (Asm.Pdivw (d, a, b))
  | Asm.Pdivw (d, a, b) -> Some (Asm.Pand (d, a, b))
  | Asm.Pand (d, a, b) -> Some (Asm.Por (d, a, b))
  | Asm.Por (d, a, b) -> Some (Asm.Pxor (d, a, b))
  | Asm.Pxor (d, a, b) -> Some (Asm.Pslw (d, a, b))
  | Asm.Pslw (d, a, b) -> Some (Asm.Psraw (d, a, b))
  | Asm.Psraw (d, a, b) -> Some (Asm.Pfadd (d, a, b))
  | Asm.Pfadd (d, a, b) -> Some (Asm.Pfsub (d, a, b))
  | Asm.Pfsub (d, a, b) -> Some (Asm.Pfmul (d, a, b))
  | Asm.Pfmul (d, a, b) -> Some (Asm.Pfdiv (d, a, b))
  | Asm.Pfdiv (d, a, b) -> Some (Asm.Padd (d, a, b))
  | Asm.Pneg (d, a) -> Some (Asm.Pmr (d, a))
  | Asm.Pmr (d, a) -> Some (Asm.Pfneg (d, a))
  | Asm.Pfneg (d, a) -> Some (Asm.Pfabs (d, a))
  | Asm.Pfabs (d, a) -> Some (Asm.Pfmr (d, a))
  | Asm.Pfmr (d, a) -> Some (Asm.Pfcfiw (d, a))
  | Asm.Pfcfiw (d, a) -> Some (Asm.Pfctiwz (d, a))
  | Asm.Pfctiwz (d, a) -> Some (Asm.Pcmpw (d, a))
  | Asm.Pcmpw (a, b) -> Some (Asm.Pfcmpu (a, b))
  | Asm.Pfcmpu (a, b) -> Some (Asm.Pneg (a, b))
  | Asm.Paddi (d, a, n) -> Some (Asm.Paddis (d, a, n))
  | Asm.Paddis (d, a, n) -> Some (Asm.Pori (d, a, n))
  | Asm.Pori (d, a, n) -> Some (Asm.Paddi (d, a, n))
  | Asm.Plwz (d, a) -> Some (Asm.Pstw (d, a))
  | Asm.Pstw (d, a) -> Some (Asm.Plfd (d, a))
  | Asm.Plfd (d, a) -> Some (Asm.Pstfd (d, a))
  | Asm.Pstfd (d, a) -> Some (Asm.Plwz (d, a))
  | Asm.Pmovcc (d, a, k) -> Some (Asm.Pfmovcc (d, a, k))
  | Asm.Pfmovcc (d, a, k) -> Some (Asm.Pmovcc (d, a, k))
  | Asm.Pfmadd (d, a, b, e) -> Some (Asm.Pfmsub (d, a, b, e))
  | Asm.Pfmsub (d, a, b, e) -> Some (Asm.Pfmadd (d, a, b, e))
  | Asm.Pacqi (d, v) -> Some (Asm.Pacqf (d, v))
  | Asm.Pacqf (d, v) -> Some (Asm.Pacqi (d, v))
  | Asm.Pouti (v, a) -> Some (Asm.Poutf (v, a))
  | Asm.Poutf (v, a) -> Some (Asm.Pouti (v, a))
  | Asm.Pallocframe n -> Some (Asm.Pfreeframe n)
  | Asm.Pfreeframe n -> Some (Asm.Pallocframe n)
  | Asm.Pbc _ | Asm.Pblr | Asm.Pannot _ | Asm.Pslwi _ | Asm.Plfdc _
  | Asm.Pla _ | Asm.Pcmpwi _ | Asm.Psetcc _ -> None

(* The code with the [pick]-th (modulo their number) visited field of
   one kind changed; the code itself when it has none of that kind. *)
let mutate_code (kind : string) (pick : int) (code : Asm.instr list) :
  Asm.instr list =
  let seen = ref 0 and target = ref (-1) in
  let hit f x =
    let n = !seen in
    incr seen;
    if n = !target then f x else x
  in
  let other xs x =
    let rec after = function
      | y :: (z :: _ as rest) -> if y = x then z else after rest
      | _ -> List.hd xs
    in
    after xs
  in
  let m =
    match kind with
    | "opcode" ->
      { identity with
        op = (fun i ->
            match sibling i with Some j -> hit (fun _ -> j) i | None -> i) }
    | "condition" ->
      { identity with
        cond =
          hit (function
              | Asm.BT Asm.CRlt -> Asm.BF Asm.CRlt
              | Asm.BF Asm.CRlt -> Asm.BT Asm.CRgt
              | Asm.BT Asm.CRgt -> Asm.BF Asm.CRgt
              | Asm.BF Asm.CRgt -> Asm.BT Asm.CReq
              | Asm.BT Asm.CReq -> Asm.BF Asm.CReq
              | Asm.BF Asm.CReq -> Asm.BT Asm.CRlt) }
    | "register" -> { identity with reg = hit (fun r -> (r + 1) mod 32) }
    | "immediate" -> { identity with imm = hit (Int32.add 1l) }
    | "shift/frame" -> { identity with num = hit (fun n -> n + 8) }
    | "label" -> { identity with label = hit succ }
    | "addressing mode" ->
      { identity with
        mode =
          hit (function
              | Asm.Aind (b, _) -> Asm.Aindx (b, b)
              | Asm.Aindx (b, _) -> Asm.Aind (b, 0l)
              | Asm.Aglob (s, d) -> Asm.Asda (s, d)
              | Asm.Asda (s, d) -> Asm.Aglob (s, d)) }
    | "symbol name" ->
      { identity with
        sym =
          hit (fun s ->
              if pick land 1 = 0 then other Testlib.Gen.asm_syms s
              else "z_" ^ s) }
    | "annotation text" -> { identity with text = hit (fun t -> t ^ " ") }
    | "constant bits" ->
      (* a zero flips its sign: equal as floats, distinct as bits *)
      { identity with
        const = hit (fun c ->
            if c = 0.0 then Float.neg c else other Testlib.Gen.asm_consts c) }
    | "volatile name" -> { identity with vol = hit (fun v -> v ^ "_2") }
    | _ -> invalid_arg kind
  in
  ignore (List.map (map_instr m) code);
  if !seen = 0 then code
  else begin
    target := pick mod !seen;
    seen := 0;
    List.map (map_instr m) code
  end

let code_kinds =
  [ "opcode"; "condition"; "register"; "immediate"; "shift/frame"; "label"; "addressing mode";
    "symbol name"; "annotation text"; "constant bits"; "volatile name" ]

(* single-field mutants of everything else the key reads *)
let input_mutants (pick : int) (ki : key_input) : (string * key_input) list =
  let lay = ki.ki_lay in
  let bump tbl k =
    let t = Hashtbl.copy tbl in
    (match Hashtbl.find_opt t k with
     | Some v when pick land 1 = 0 -> Hashtbl.replace t k (v + 8)
     | Some _ -> Hashtbl.remove t k
     | None -> Hashtbl.replace t k 0x6000);
    t
  in
  let sym = List.nth Testlib.Gen.asm_syms (pick mod 4) in
  let const =
    Int64.bits_of_float
      (List.nth Testlib.Gen.asm_consts
         (pick mod List.length Testlib.Gen.asm_consts))
  in
  let fuel = ki.ki_fuel in
  [ ("slice address",
     { ki with ki_lay = { lay with lay_sym = bump lay.lay_sym sym } });
    ("slice size",
     { ki with
       ki_lay = { lay with lay_sym_size = bump lay.lay_sym_size sym } });
    ("pool address",
     { ki with ki_lay = { lay with lay_consts = bump lay.lay_consts const } });
    ("stack top",
     { ki with ki_lay = { lay with lay_stack_top = lay.lay_stack_top + 16 } });
    ("base", { ki with ki_base = ki.ki_base + 4 });
    ("fuel widen",
     { ki with ki_fuel = { fuel with fl_widen = fuel.fl_widen + 1 } });
    ("fuel simplex",
     { ki with ki_fuel = { fuel with fl_simplex = fuel.fl_simplex + 1 } });
    ("fuel bb nodes",
     { ki with ki_fuel = { fuel with fl_bb_nodes = fuel.fl_bb_nodes + 1 } });
    ("spec", { ki with ki_spec = ki.ki_spec ^ "+" });
    ("engine",
     { ki with
       ki_engine =
         (match ki.ki_engine with
          | Wcet.Report.Ipet -> Wcet.Report.Omt
          | Omt -> Both
          | Both -> Ipet) }) ]

(* Over a generated input and its mutants, pairwise: the keys are
   equal exactly when the [Marshal.No_sharing] payloads of the old
   construction are. A volatile-name mutant keeps the key. *)
let key_injective_prop =
  QCheck.Test.make ~count:300
    ~name:"memo: keys equal <=> No_sharing reference payloads equal"
    (QCheck.make
       ~print:(fun (ki, _) ->
           String.concat "\n" (List.map Target.Emit.instr_str ki.ki_code))
       QCheck.Gen.(pair gen_key_input (int_bound 1_000_000)))
    (fun (ki, pick) ->
       let cases =
         ("original", ki)
         :: List.map
              (fun kind ->
                 (kind, { ki with ki_code = mutate_code kind pick ki.ki_code }))
              code_kinds
         @ input_mutants pick ki
       in
       let cases =
         List.map (fun (n, c) -> (n, new_digest c, ref_payload c)) cases
       in
       let _, p0, _ = List.hd cases in
       let vol_p =
         List.find_map
           (fun (n, p, _) -> if n = "volatile name" then Some p else None)
           cases
       in
       if vol_p <> Some p0 then
         QCheck.Test.fail_report "a volatile-name mutant changed the key";
       List.iter
         (fun (n1, p1, r1) ->
            List.iter
              (fun (n2, p2, r2) ->
                 if String.equal p1 p2 <> String.equal r1 r2 then
                   QCheck.Test.fail_reportf
                     "%s vs %s: keys %s, reference payloads %s" n1 n2
                     (if String.equal p1 p2 then "equal" else "differ")
                     (if String.equal r1 r2 then "equal" else "differ"))
              cases)
         cases;
       true)

let suite =
  [ QCheck_alcotest.to_alcotest cached_equals_uncached_prop;
    QCheck_alcotest.to_alcotest soundness_through_hits_prop;
    ("memo: one-byte mutation misses", `Quick, test_mutation_misses);
    ("memo: key digest stability", `Quick, test_key_digest);
    ("memo: structurally identical nodes hit across names", `Quick,
     test_hit_across_names);
    ("memo: annotation fragments through hits", `Quick,
     test_annotations_through_hits);
    ("memo: phase accounting", `Quick, test_phase_accounting);
    ("memo: refused analyses are not cached", `Quick, test_failure_not_cached);
    ("memo: analyze_program = per-function analyze", `Quick,
     test_analyze_program_matches);
    ("memo: optimization selections never share entries", `Quick,
     test_specs_never_share_entries);
    ("memo: engines never share entries", `Quick,
     test_engines_never_share_entries);
    ("memo: engine phase accounting", `Quick,
     test_engine_phase_accounting);
    ("memo: key independent of sharing (AST vs re-parsed source)", `Quick,
     test_key_sharing_independent);
    QCheck_alcotest.to_alcotest key_injective_prop ]
