(* Tests for the target machine: cache model, timing model, simulator. *)

module Asm = Target.Asm
module Cache = Target.Cache
module Timing = Target.Timing

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- cache ---- *)

let test_cache_basics () =
  let c = Cache.create Cache.tiny in
  (* tiny: 4 sets, 2-way, 16-byte lines *)
  checki "first access misses" 1 (Cache.access c 0 4);
  checki "second access hits" 0 (Cache.access c 0 4);
  checki "same line, other offset hits" 0 (Cache.access c 12 4);
  checki "straddling access touches two lines" 2 (Cache.access c 28 8)

let test_cache_lru_eviction () =
  let c = Cache.create Cache.tiny in
  (* set 0 holds lines with line_index mod 4 = 0: bytes 0, 64, 128... *)
  ignore (Cache.access c 0 4);    (* line 0 *)
  ignore (Cache.access c 64 4);   (* line 4, same set: set full *)
  ignore (Cache.access c 128 4);  (* line 8: evicts line 0 (LRU) *)
  checkb "line 0 evicted" false (Cache.resident c 0);
  checkb "line 4 resident" true (Cache.resident c 4);
  checkb "line 8 resident" true (Cache.resident c 8);
  (* touch line 4 then bring line 0 back: line 8 is now LRU *)
  ignore (Cache.access c 64 4);
  ignore (Cache.access c 0 4);
  checkb "line 8 evicted after LRU update" false (Cache.resident c 8)

let test_cache_counts () =
  let c = Cache.create Cache.tiny in
  ignore (Cache.access c 0 4);
  ignore (Cache.access c 0 4);
  ignore (Cache.access c 16 4);
  checki "hits" 1 c.Cache.hits;
  checki "misses" 2 c.Cache.misses

(* lru model: an access sequence that fits in one set never misses twice *)
let cache_capacity_prop =
  QCheck.Test.make ~count:200 ~name:"cache: within-capacity lines miss once"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 1))
    (fun picks ->
       (* two distinct lines in the same set of a 2-way cache: no
          evictions are possible, so total misses <= 2 *)
       let c = Cache.create Cache.tiny in
       List.iter (fun p -> ignore (Cache.access c (p * 64) 4)) picks;
       c.Cache.misses <= 2)

(* The array-based cache against the list-based one it replaced
   (test/cache_ref.ml): random address/size streams, compared after
   every access. Lines are drawn from a few sets, with three times as
   many candidates per set as it has ways, so hits land at every LRU
   position and misses evict. *)
let cache_oracle_prop (name : string) (cfg : Cache.config) =
  let gen_access =
    QCheck.Gen.(
      map
        (fun (set, k, off, size) ->
           let line = set + (cfg.Cache.cfg_sets * k) in
           ((line * cfg.Cache.cfg_line) + off, size))
        (quad (int_bound 2) (int_bound ((3 * cfg.Cache.cfg_assoc) - 1))
           (int_bound (cfg.Cache.cfg_line - 1)) (oneofl [ 1; 4; 8; 16 ])))
  in
  QCheck.Test.make ~count:300
    ~name:("cache (" ^ name ^ "): array LRU = list LRU, access by access")
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(list_size (int_range 1 200) gen_access))
    (fun accesses ->
       let c = Cache.create cfg and r = Cache_ref.create cfg in
       let touched = ref [] in
       List.for_all
         (fun (addr, size) ->
            let miss = Cache.access c addr size in
            let miss_ref = Cache_ref.access r addr size in
            for line = addr / cfg.Cache.cfg_line
              to (addr + size - 1) / cfg.Cache.cfg_line do
              if not (List.mem line !touched) then touched := line :: !touched
            done;
            miss = miss_ref
            && c.Cache.hits = r.Cache_ref.hits
            && c.Cache.misses = r.Cache_ref.misses
            && List.for_all
                 (fun l -> Cache.resident c l = Cache_ref.resident r l)
                 !touched)
         accesses)

(* ---- timing ---- *)

let test_dual_issue_pairing () =
  let code =
    [| Asm.Paddi (3, 0, 1l); Asm.Paddi (4, 0, 2l); (* independent: pair *)
       Asm.Padd (5, 3, 4) (* depends on r4: new pair window *) |]
  in
  let costs = Timing.static_costs code in
  checki "first costs 1" 1 costs.(0);
  checki "second pairs for free" 0 costs.(1);
  checki "third costs 1" 1 costs.(2)

let test_pairing_dependence () =
  let code = [| Asm.Paddi (3, 0, 1l); Asm.Paddi (4, 3, 2l) |] in
  let costs = Timing.static_costs code in
  checki "dependent second instruction does not pair" 1 costs.(1)

let test_fpu_overlap () =
  let indep = [| Asm.Pfadd (1, 2, 3); Asm.Pfadd (4, 5, 6) |] in
  let dep = [| Asm.Pfadd (1, 2, 3); Asm.Pfadd (4, 1, 6) |] in
  checki "independent FPU ops overlap" 2 (Timing.static_costs indep).(1);
  checki "dependent FPU ops serialize" 4 (Timing.static_costs dep).(1)

let test_load_use_stall () =
  let stall =
    [| Asm.Plwz (3, Asm.Aind (Asm.sp, 8l)); Asm.Padd (4, 3, 3) |]
  in
  let no_stall =
    [| Asm.Plwz (3, Asm.Aind (Asm.sp, 8l)); Asm.Padd (4, 5, 6) |]
  in
  checki "load-to-use stalls" 3 (Timing.static_costs stall).(1);
  checki "independent consumer does not stall" 1
    (Timing.static_costs no_stall).(1)

let test_window_reset_at_label () =
  let code =
    [| Asm.Pfadd (1, 2, 3); Asm.Plabel 1; Asm.Pfadd (4, 5, 6) |]
  in
  checki "label resets the overlap window" 4 (Timing.static_costs code).(2)

(* The mask windows against the list stepper they replaced
   (test/timing_ref.ml), on random instruction sequences over few
   registers, so that pairing, FPU overlap and load-use stalls all
   occur and all get blocked. *)
let asm_code_arb : Asm.instr list QCheck.arbitrary =
  QCheck.make
    ~print:(fun code -> String.concat "\n" (List.map Target.Emit.instr_str code))
    Testlib.Gen.asm_code

let timing_oracle_prop =
  QCheck.Test.make ~count:500
    ~name:"timing: mask windows = list windows (static_costs)" asm_code_arb
    (fun code ->
       let code = Array.of_list code in
       Timing.static_costs code = Timing_ref.static_costs code)

(* the masks encode exactly the register sets of [Asm.defs]/[Asm.uses] *)
let reg_masks_prop =
  let masks (rs : Asm.reg list) : int * int =
    List.fold_left
      (fun (mi, mf) r ->
         match r with
         | Asm.IR n -> (mi lor (1 lsl n), mf)
         | Asm.FR n -> (mi, mf lor (1 lsl n)))
      (0, 0) rs
  in
  QCheck.Test.make ~count:500 ~name:"asm: register masks = defs/uses lists"
    asm_code_arb
    (List.for_all (fun i ->
         masks (Asm.defs i) = (Asm.idefs_mask i, Asm.fdefs_mask i)
         && masks (Asm.uses i) = (Asm.iuses_mask i, Asm.fuses_mask i)))

(* ---- simulator ---- *)

let empty_source : Minic.Ast.program =
  { Minic.Ast.prog_globals = [ ("g", Minic.Ast.Tint) ];
    prog_arrays = [];
    prog_volatiles = [];
    prog_funcs =
      [ { Minic.Ast.fn_name = "f"; fn_params = []; fn_locals = [];
          fn_ret = Some Minic.Ast.Tint; fn_body = Minic.Ast.Sskip } ];
    prog_main = "f" }

let run_asm ?(source = empty_source) (code : Asm.instr list) : Target.Sim.run_result =
  let prog = { Asm.pr_funcs = [ { Asm.fn_name = "f"; fn_code = code } ]; pr_main = "f" } in
  let lay = Target.Layout.build source prog in
  Target.Sim.run ~source prog lay (Minic.Interp.constant_world 0.0) []

let test_sim_arith () =
  let r =
    run_asm
      [ Asm.Paddi (3, 0, 20l); Asm.Paddi (4, 0, 22l); Asm.Padd (3, 3, 4);
        Asm.Pblr ]
  in
  (match r.Target.Sim.rr_result.Minic.Interp.res_return with
   | Some (Minic.Value.Vint 42l) -> ()
   | _ -> Alcotest.fail "20 + 22 = 42 in r3")

let test_sim_loop_and_branch () =
  (* r3 = 0; for r4 = 5 downto 1: r3 += r4 *)
  let r =
    run_asm
      [ Asm.Paddi (3, 0, 0l); Asm.Paddi (4, 0, 5l); Asm.Plabel 1;
        Asm.Padd (3, 3, 4); Asm.Paddi (4, 4, -1l); Asm.Pcmpwi (4, 0l);
        Asm.Pbc (Asm.BT Asm.CRgt, 1); Asm.Pblr ]
  in
  (match r.Target.Sim.rr_result.Minic.Interp.res_return with
   | Some (Minic.Value.Vint 15l) -> ()
   | _ -> Alcotest.fail "sum 1..5 = 15")

let test_sim_memory_and_global () =
  let r =
    run_asm
      [ Asm.Paddi (3, 0, 7l); Asm.Pstw (3, Asm.Aglob ("g", 0l));
        Asm.Plwz (4, Asm.Aglob ("g", 0l)); Asm.Padd (3, 4, 4); Asm.Pblr ]
  in
  (match r.Target.Sim.rr_result.Minic.Interp.res_return with
   | Some (Minic.Value.Vint 14l) -> ()
   | _ -> Alcotest.fail "store/load a global");
  checki "one read, one write" 1 r.Target.Sim.rr_stats.Target.Sim.dcache_reads;
  checki "write count" 1 r.Target.Sim.rr_stats.Target.Sim.dcache_writes

let test_sim_fmadd_fused () =
  (* fma(1e16, 1e16, 1.0) differs from (1e16*1e16)+1.0 only in rounding
     of the intermediate; use a case with an observable difference:
     a = 1 + 2^-52 (so a*a has a low bit the two-step rounding drops) *)
  let a = 1.0 +. Float.of_string "0x1p-52" in
  let r =
    run_asm
      [ Asm.Plfdc (1, a); Asm.Plfdc (2, a); Asm.Plfdc (3, -1.0);
        Asm.Pfmadd (4, 1, 2, 3); Asm.Pfmr (1, 4); Asm.Pblr ]
  in
  (* fused: a*a - 1 = 2^-51 + 2^-104 exactly rounded; two-step would
     give 2^-51. We simply check it equals OCaml's Float.fma. *)
  let prog2 =
    [ Asm.Plfdc (1, a); Asm.Plfdc (2, a); Asm.Plfdc (3, -1.0);
      Asm.Pfmul (4, 1, 2); Asm.Pfadd (4, 4, 3); Asm.Pfmr (1, 4); Asm.Pblr ]
  in
  let r2 = run_asm prog2 in
  let get r =
    match r.Target.Sim.rr_result.Minic.Interp.res_return with
    | Some _ -> ()
    | None -> Alcotest.fail "no return"
  in
  get r;
  get r2;
  (* direct register values via float return would need Tfloat ret; we
     only assert the fused instruction exists and executes. *)
  ()

let test_sim_movcc () =
  let r =
    run_asm
      [ Asm.Paddi (3, 0, 1l); Asm.Paddi (4, 0, 9l); Asm.Pcmpwi (3, 0l);
        Asm.Pmovcc (3, 4, Asm.BT Asm.CRgt); (* 1 > 0: r3 := 9 *)
        Asm.Pcmpwi (3, 100l);
        Asm.Pmovcc (3, 0, Asm.BT Asm.CRgt); (* 9 > 100 false: keep *)
        Asm.Pblr ]
  in
  (match r.Target.Sim.rr_result.Minic.Interp.res_return with
   | Some (Minic.Value.Vint 9l) -> ()
   | _ -> Alcotest.fail "conditional move semantics")

let test_sim_annot_event () =
  let r =
    run_asm
      [ Asm.Paddi (3, 0, 11l);
        Asm.Pannot ("0 <= %1 <= 20", [ Asm.AA_ireg 3 ]); Asm.Pblr ]
  in
  (match r.Target.Sim.rr_result.Minic.Interp.res_events with
   | [ Minic.Interp.Ev_annot ("0 <= %1 <= 20", [ Minic.Value.Vint 11l ]) ] -> ()
   | _ -> Alcotest.fail "annotation event from register")

(* ---- paged memory, range checks, late errors ---- *)

(* [empty_source] plus an actuator [q]: [Pouti ("q", r)] records the
   value of [r] as an event, so one run can report several words. *)
let probe_source : Minic.Ast.program =
  { empty_source with
    Minic.Ast.prog_volatiles = [ ("q", Minic.Ast.Tint, Minic.Ast.Vol_out) ] }

let outputs (r : Target.Sim.run_result) : int32 list =
  List.filter_map
    (fun e ->
       match e with
       | Minic.Interp.Ev_vol_write ("q", Minic.Value.Vint n) -> Some n
       | _ -> None)
    r.Target.Sim.rr_result.Minic.Interp.res_events

let check_words (msg : string) (expected : int32 list) (code : Asm.instr list) =
  Alcotest.check (Alcotest.list Alcotest.int32) msg expected
    (outputs (run_asm ~source:probe_source code))

let layout0 : Target.Layout.t =
  Target.Layout.build empty_source { Asm.pr_funcs = []; pr_main = "f" }

let mem_size : int = layout0.Target.Layout.lay_mem_size

let out_of_range (addr : int) : exn =
  Minic.Interp.Runtime_error (Printf.sprintf "memory access out of range: 0x%x" addr)

(* 0x11000 starts a page nothing else touches. A 4-byte store at
   0x10ffe and an 8-byte store at 0x10ffc straddle it through [Aindx]
   (r5 + r6); the aligned words on either side read back the halves,
   big-endian, and the straddling load reads back the whole. *)
let test_sim_page_straddle () =
  check_words "4-byte store and load across a page"
    [ 0x00001122l; 0x33440000l; 0x11223344l ]
    [ Asm.Paddi (5, 0, 0x10ffcl); Asm.Paddi (6, 0, 2l);
      Asm.Paddis (3, 0, 0x1122l); Asm.Pori (3, 3, 0x3344l);
      Asm.Pstw (3, Asm.Aindx (5, 6));
      Asm.Plwz (7, Asm.Aind (5, 0l)); Asm.Pouti ("q", 7);
      Asm.Plwz (7, Asm.Aind (5, 4l)); Asm.Pouti ("q", 7);
      Asm.Plwz (7, Asm.Aindx (5, 6)); Asm.Pouti ("q", 7); Asm.Pblr ];
  let x = Int64.float_of_bits 0x0102030405060708L in
  check_words "8-byte store and load across a page"
    [ 0x01020304l; 0x05060708l; 0x01020304l; 0x05060708l ]
    [ Asm.Paddi (5, 0, 0x10ff0l); Asm.Paddi (6, 0, 12l);
      Asm.Plfdc (1, x); Asm.Pstfd (1, Asm.Aindx (5, 6));
      Asm.Plwz (7, Asm.Aind (5, 12l)); Asm.Pouti ("q", 7);
      Asm.Plwz (7, Asm.Aind (5, 16l)); Asm.Pouti ("q", 7);
      (* copy the double back through a straddling load *)
      Asm.Plfd (2, Asm.Aindx (5, 6)); Asm.Pstfd (2, Asm.Aind (5, 32l));
      Asm.Plwz (7, Asm.Aind (5, 32l)); Asm.Pouti ("q", 7);
      Asm.Plwz (7, Asm.Aind (5, 36l)); Asm.Pouti ("q", 7); Asm.Pblr ]

let test_sim_untouched_page () =
  check_words "a never-written page reads 0" [ 0l; 0l; 0l ]
    [ Asm.Paddi (3, 0, -1l); Asm.Pstw (3, Asm.Aglob ("g", 0l));
      Asm.Pstw (3, Asm.Aglob ("g", 4l));
      Asm.Paddi (5, 0, 0x40000l); Asm.Plwz (7, Asm.Aind (5, 0l));
      Asm.Pouti ("q", 7); Asm.Plfd (1, Asm.Aind (5, 8l));
      Asm.Pstfd (1, Asm.Aglob ("g", 0l));
      Asm.Plwz (7, Asm.Aglob ("g", 0l)); Asm.Pouti ("q", 7);
      Asm.Plwz (7, Asm.Aglob ("g", 4l)); Asm.Pouti ("q", 7); Asm.Pblr ]

let test_sim_range_edges () =
  let at a = [ Asm.Paddi (5, 0, Int32.of_int a) ] in
  check_words "accesses ending exactly at the top of memory" [ 7l; 0l ]
    (at (mem_size - 8)
     @ [ Asm.Paddi (3, 0, 7l); Asm.Pstw (3, Asm.Aind (5, 4l));
         Asm.Plwz (7, Asm.Aind (5, 4l)); Asm.Pouti ("q", 7);
         Asm.Plfd (1, Asm.Aind (5, 0l)); Asm.Pstfd (1, Asm.Aind (5, 0l));
         Asm.Plwz (7, Asm.Aind (5, 0l)); Asm.Pouti ("q", 7); Asm.Pblr ]);
  Alcotest.check_raises "4-byte load one byte past the top"
    (out_of_range (mem_size - 3)) (fun () ->
        ignore (run_asm (at (mem_size - 3) @ [ Asm.Plwz (7, Asm.Aind (5, 0l)); Asm.Pblr ])));
  Alcotest.check_raises "8-byte store one byte past the top"
    (out_of_range (mem_size - 7)) (fun () ->
        ignore (run_asm (at (mem_size - 7) @ [ Asm.Pstfd (1, Asm.Aind (5, 0l)); Asm.Pblr ])));
  Alcotest.check_raises "negative address" (out_of_range (-4)) (fun () ->
      ignore (run_asm (at (-4) @ [ Asm.Plwz (7, Asm.Aind (5, 0l)); Asm.Pblr ])))

let test_sim_undefined_label () =
  let code taken =
    [ Asm.Paddi (3, 0, if taken then 1l else 0l); Asm.Pcmpwi (3, 0l);
      Asm.Pbc (Asm.BT Asm.CRgt, 99); Asm.Pblr; Asm.Pb 98 ]
  in
  (match (run_asm (code false)).Target.Sim.rr_result.Minic.Interp.res_return with
   | Some (Minic.Value.Vint 0l) -> ()
   | _ -> Alcotest.fail "untaken branch to an undefined label is harmless");
  Alcotest.check_raises "taken branch to an undefined label"
    (Minic.Interp.Runtime_error "undefined label 99") (fun () ->
        ignore (run_asm (code true)))

(* Annotation stack slots are range-checked like loads, but reading one
   charges neither the data cache nor any cycle. *)
let test_sim_annot_stack_range () =
  let run annot =
    run_asm
      ([ Asm.Paddi (3, 0, 5l); Asm.Pstw (3, Asm.Aind (Asm.sp, -8l)) ]
       @ annot @ [ Asm.Pblr ])
  in
  let plain = run [] in
  let annotated =
    run [ Asm.Pannot ("%1 = 5", [ Asm.AA_stack_int (-8l) ]) ]
  in
  (match annotated.Target.Sim.rr_result.Minic.Interp.res_events with
   | [ Minic.Interp.Ev_annot (_, [ Minic.Value.Vint 5l ]) ] -> ()
   | _ -> Alcotest.fail "annotation reads the stack slot");
  let st r = r.Target.Sim.rr_stats in
  checki "no extra cycles" (st plain).Target.Sim.cycles (st annotated).Target.Sim.cycles;
  checki "no dcache read" (st plain).Target.Sim.dcache_reads
    (st annotated).Target.Sim.dcache_reads;
  let past_top size =
    Int32.of_int (layout0.Target.Layout.lay_mem_size - size + 1
                  - layout0.Target.Layout.lay_stack_top)
  in
  Alcotest.check_raises "int slot one byte past the top"
    (out_of_range (mem_size - 3)) (fun () ->
        ignore (run [ Asm.Pannot ("%1", [ Asm.AA_stack_int (past_top 4) ]) ]));
  Alcotest.check_raises "float slot one byte past the top"
    (out_of_range (mem_size - 7)) (fun () ->
        ignore (run [ Asm.Pannot ("%1", [ Asm.AA_stack_float (past_top 8) ]) ]))

(* ---- pinned simulator output ---- *)

(* The simulator's observable output and counters on fixed inputs,
   recorded as MD5 digests: for each compiler, 40 nodes of the flight
   program (seed 2026) on worlds 1..3, 4 control cycles each. Cycles and
   dcache counters are the paper's Table 1 columns, so a change to the
   simulator's data structures must leave every figure as it was. *)

let sim_digests =
  [ (Fcstack.Chain.Cdefault_o0, "3ee8e5d1756a06c68ebfad89012cc610");
    (Fcstack.Chain.Cdefault_o2, "ab0492eea14d4dd3805766633fca5dba");
    (Fcstack.Chain.Cvcomp, "4e4a43810ccf2eb2fe42d101bea335dd") ]

let sim_digest (c : Fcstack.Chain.compiler) : string =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  for i = 0 to 39 do
    let b =
      Fcstack.Chain.build c
        (Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i))
    in
    List.iter
      (fun seed ->
         let r = Fcstack.Chain.simulate ~cycles:4 b (Minic.Interp.seeded_world ~seed ()) in
         let st = r.Target.Sim.rr_stats in
         Format.fprintf ppf "%d %d %d %d %d@.%a@." i seed st.Target.Sim.cycles
           st.Target.Sim.dcache_reads st.Target.Sim.dcache_writes
           Minic.Interp.pp_result r.Target.Sim.rr_result)
      [ 1; 2; 3 ]
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_sim_digests () =
  List.iter
    (fun (c, expected) ->
       Alcotest.check Alcotest.string (Fcstack.Chain.compiler_name c) expected
         (sim_digest c))
    sim_digests

(* ---- load once, execute per world ---- *)

let flight_node (c : Fcstack.Chain.compiler) (i : int) : Fcstack.Chain.built =
  Fcstack.Chain.build c (Scade.Acg.generate (Scade.Workload.node_at ~seed:2026 i))

let same_run (what : string) (a : Target.Sim.run_result)
    (b : Target.Sim.run_result) : unit =
  let sa = a.Target.Sim.rr_stats and sb = b.Target.Sim.rr_stats in
  checkb (what ^ ": result") true
    (Minic.Interp.result_equal a.Target.Sim.rr_result b.Target.Sim.rr_result);
  checki (what ^ ": cycles") sb.Target.Sim.cycles sa.Target.Sim.cycles;
  checki (what ^ ": dcache reads") sb.Target.Sim.dcache_reads
    sa.Target.Sim.dcache_reads;
  checki (what ^ ": dcache writes") sb.Target.Sim.dcache_writes
    sa.Target.Sim.dcache_writes

(* One image runs every world exactly like a fresh [Sim.run] would, and
   a run cut short by its fuel leaves nothing behind in the image. *)
let test_image_reuse () =
  List.iter
    (fun c ->
       for i = 0 to 39 do
         let b = flight_node c i in
         let image = Fcstack.Chain.sim_image b in
         let fresh seed =
           Target.Sim.run ~cycles:4 ~source:b.Fcstack.Chain.b_source
             b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
             (Minic.Interp.seeded_world ~seed ()) []
         in
         let exec ?fuel seed =
           Target.Sim.exec ~cycles:4 ?fuel image
             (Minic.Interp.seeded_world ~seed ()) []
         in
         let what seed =
           Printf.sprintf "%s node %d seed %d" (Fcstack.Chain.compiler_name c) i seed
         in
         for seed = 1 to 6 do
           same_run (what seed) (exec seed) (fresh seed)
         done;
         Alcotest.check_raises (what 1 ^ ": starved run") Minic.Interp.Out_of_fuel
           (fun () -> ignore (exec ~fuel:10 1));
         same_run (what 2 ^ " after a starved run") (exec 2) (fresh 2)
       done)
    [ Fcstack.Chain.Cdefault_o0; Fcstack.Chain.Cdefault_o2; Fcstack.Chain.Cvcomp ]

(* The step loop allocates only for the events it records. Executed
   instructions are counted through the fuel budget: a run of [n]
   steps succeeds exactly when its fuel exceeds [n]. *)
let steps (image : Target.Sim.image) (world : unit -> Minic.Interp.world) : int =
  let runs fuel =
    match Target.Sim.exec ~cycles:4 ~fuel image (world ()) [] with
    | _ -> true
    | exception Minic.Interp.Out_of_fuel -> false
  in
  let hi = ref 1 in
  while not (runs !hi) do hi := 2 * !hi done;
  let lo = ref (!hi / 2) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if runs mid then hi := mid else lo := mid
  done;
  !hi - 1

let test_exec_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let world () = Minic.Interp.seeded_world ~seed:1 () in
  let images =
    List.init 40 (fun i -> Fcstack.Chain.sim_image (flight_node Fcstack.Chain.Cdefault_o0 i))
  in
  let instrs = List.fold_left (fun n im -> n + steps im world) 0 images in
  let before = Gc.minor_words () in
  List.iter (fun im -> ignore (Target.Sim.exec ~cycles:4 im (world ()) [])) images;
  let words = Gc.minor_words () -. before in
  let per_instr = words /. float_of_int instrs in
  if per_instr > 2.0 then
    Alcotest.failf "%.0f minor words over %d instructions: %.2f a step (at most 2)"
      words instrs per_instr

let test_emit_substitution () =
  let i = Asm.Pannot ("0 <= %1 <= %2 < 360", [ Asm.AA_ireg 3; Asm.AA_stack_int 32l ]) in
  Alcotest.check Alcotest.string "paper-style substitution"
    "\t# annotation: 0 <= r3 <= @32 < 360" (Target.Emit.instr_str i)

let suite =
  [ ("cache: basics", `Quick, test_cache_basics);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache: hit/miss counts", `Quick, test_cache_counts);
    QCheck_alcotest.to_alcotest cache_capacity_prop;
    QCheck_alcotest.to_alcotest (cache_oracle_prop "tiny" Cache.tiny);
    QCheck_alcotest.to_alcotest (cache_oracle_prop "mpc755_l1" Cache.mpc755_l1);
    ("timing: dual-issue pairing", `Quick, test_dual_issue_pairing);
    ("timing: pairing needs independence", `Quick, test_pairing_dependence);
    ("timing: FPU overlap", `Quick, test_fpu_overlap);
    ("timing: load-to-use stall", `Quick, test_load_use_stall);
    ("timing: window reset at labels", `Quick, test_window_reset_at_label);
    ("sim: arithmetic", `Quick, test_sim_arith);
    ("sim: loop and branches", `Quick, test_sim_loop_and_branch);
    ("sim: memory and globals", `Quick, test_sim_memory_and_global);
    ("sim: fmadd executes", `Quick, test_sim_fmadd_fused);
    ("sim: conditional move", `Quick, test_sim_movcc);
    ("sim: annotation events", `Quick, test_sim_annot_event);
    ("sim: stores and loads straddling a page", `Quick, test_sim_page_straddle);
    ("sim: untouched pages read 0", `Quick, test_sim_untouched_page);
    ("sim: range check at the top of memory", `Quick, test_sim_range_edges);
    ("sim: undefined label raises only when taken", `Quick, test_sim_undefined_label);
    ("sim: annotation stack slots are range-checked", `Quick, test_sim_annot_stack_range);
    ("sim: output digests pinned (3 compilers x 40 nodes)", `Quick, test_sim_digests);
    ("sim: one image serves every world (3 compilers x 40 nodes)", `Quick, test_image_reuse);
    ("sim: exec allocates at most 2 words a step (-O0, 40 nodes)", `Quick, test_exec_allocation);
    ("emit: %i substitution", `Quick, test_emit_substitution);
    (* appended last so that the cases above keep their indices *)
    QCheck_alcotest.to_alcotest timing_oracle_prop;
    QCheck_alcotest.to_alcotest reg_masks_prop ]
