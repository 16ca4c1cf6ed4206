(* Integration tests over the full development chain, including band
   assertions that lock in the *shape* of the paper reproduction
   (EXPERIMENTS.md): who wins, in which direction, by roughly what
   factor. The workload here is smaller than the benchmark's for test
   speed; bands are correspondingly loose. *)

let checkb = Alcotest.check Alcotest.bool

let workload = lazy (Fcstack.Experiments.run_workload ~nodes:20 ~seed:4242 ())

let total (c : Fcstack.Chain.compiler) (f : Fcstack.Experiments.per_compiler -> int) :
  int =
  Fcstack.Experiments.total (Lazy.force workload) c f

let ratio (c : Fcstack.Chain.compiler) (f : Fcstack.Experiments.per_compiler -> int) :
  float =
  float_of_int (total c f) /. float_of_int (total Fcstack.Chain.Cdefault_o0 f)

let test_chain_validation_all () =
  (* every compiler configuration (exact mode) is bit-exact on a sample
     of workload nodes over several cycles; the world battery is
     batched against one compile+layout per (node, compiler) *)
  let program = Scade.Workload.flight_program ~nodes:8 ~seed:11 in
  List.iter
    (fun (_, src) ->
       List.iter
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp src in
            match Fcstack.Chain.validate_chain ~cycles:4 ~worlds:3 b with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
         Fcstack.Chain.all_compilers)
    program

(* qcheck trace equivalence, batched: one build per (program, compiler)
   amortized over a battery of worlds — the harness the ROADMAP's
   "batched differential validation" item asks for. Replaces the old
   per-world rebuild pattern. *)
let batched_validation_prop =
  QCheck.Test.make ~count:40
    ~name:"chain: batched differential validation on random programs"
    QCheck.small_int
    (fun seed ->
       let p = Testlib.Gen.gen_program (seed land 0xFFF) in
       List.for_all
         (fun comp ->
            let b = Fcstack.Chain.build ~exact:true comp p in
            Result.is_ok (Fcstack.Chain.validate_chain ~cycles:2 ~worlds:6 b))
         Fcstack.Chain.all_compilers)

(* mutation check: the batch really exercises its battery — a corrupted
   build must be rejected, and the honest one accepted, by the same
   [~worlds] run *)
let test_batched_validation_catches_corruption () =
  let p =
    Minic.Parser.parse_program
      {| global double g; double m() { return 5.0 -. $g; } main m; |}
  in
  Minic.Typecheck.check_program_exn p;
  let b = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp p in
  checkb "honest build passes 8 worlds" true
    (Result.is_ok (Fcstack.Chain.validate_chain ~cycles:2 ~worlds:8 b));
  (* swap the operands of the subtraction: 5.0 -. g becomes g -. 5.0,
     observably different on any world with g <> 2.5; same code size,
     so the original layout stays valid *)
  let changed = ref false in
  let bad_funcs =
    List.map
      (fun f ->
         { f with
           Target.Asm.fn_code =
             List.map
               (fun i ->
                  match i with
                  | Target.Asm.Pfsub (d, a, b) when not !changed ->
                    changed := true;
                    Target.Asm.Pfsub (d, b, a)
                  | _ -> i)
               f.Target.Asm.fn_code })
      b.Fcstack.Chain.b_asm.Target.Asm.pr_funcs
  in
  checkb "program contains the subtraction" true !changed;
  let b' =
    { b with
      Fcstack.Chain.b_asm =
        { b.Fcstack.Chain.b_asm with Target.Asm.pr_funcs = bad_funcs } }
  in
  checkb "corrupted build rejected by the battery" true
    (Result.is_error (Fcstack.Chain.validate_chain ~cycles:2 ~worlds:8 b'))

let test_band_o1_negligible () =
  (* paper: -0.5%; band: within [-3%, 0%] *)
  let r = ratio Fcstack.Chain.Cdefault_o1 (fun p -> p.Fcstack.Experiments.pc_wcet) in
  checkb (Printf.sprintf "O1 WCET ratio %.3f in [0.97, 1.0]" r) true
    (r >= 0.97 && r <= 1.0)

let test_band_vcomp_wcet () =
  (* paper: -12.0%; band: a clear double-digit-scale gain, [-30%, -5%] *)
  let r = ratio Fcstack.Chain.Cvcomp (fun p -> p.Fcstack.Experiments.pc_wcet) in
  checkb (Printf.sprintf "vcomp WCET ratio %.3f in [0.70, 0.95]" r) true
    (r >= 0.70 && r <= 0.95)

let test_band_o2_vs_vcomp () =
  (* The paper (CompCert 1.7) has the fully optimized default (-18.4%)
     ahead of the verified compiler (-12%), and attributes the residual
     gap to the optimizations CompCert then lacked. With GVN-CSE and
     LICM landed (the -O 2 default), vcomp closes that gap on this
     workload: assert the new ordering, and keep it honest — within 5%
     of each other, not a blowout. *)
  let o2 = total Fcstack.Chain.Cdefault_o2 (fun p -> p.Fcstack.Experiments.pc_wcet) in
  let vc = total Fcstack.Chain.Cvcomp (fun p -> p.Fcstack.Experiments.pc_wcet) in
  checkb (Printf.sprintf "vcomp (%d) <= default-O2 (%d)" vc o2) true (vc <= o2);
  checkb
    (Printf.sprintf "gap small: vcomp (%d) >= 0.95 * default-O2 (%d)" vc o2)
    true
    (float_of_int vc >= 0.95 *. float_of_int o2)

let test_band_o2_beats_vcomp_o1 () =
  (* the paper's original shape, pinned under the paper's pipeline:
     with vcomp restricted to -O 1 (constprop + local CSE + deadcode,
     the CompCert 1.7 middle end), the fully optimized default is
     ahead again *)
  let passes = Vcomp.Pass.level 1 in
  let config = { Fcstack.Toolchain.default with Fcstack.Toolchain.passes } in
  let wr = Fcstack.Experiments.run_workload ~nodes:20 ~seed:4242 ~config () in
  let t c = Fcstack.Experiments.total wr c (fun p -> p.Fcstack.Experiments.pc_wcet) in
  let o2 = t Fcstack.Chain.Cdefault_o2 in
  let vc1 = t Fcstack.Chain.Cvcomp in
  checkb
    (Printf.sprintf "default-O2 (%d) <= vcomp@-O1 (%d)" o2 vc1) true
    (o2 <= vc1)

let test_band_cache_reads () =
  (* paper: -76% cache reads for CompCert; band [-90%, -60%] *)
  let r = ratio Fcstack.Chain.Cvcomp (fun p -> p.Fcstack.Experiments.pc_reads) in
  checkb (Printf.sprintf "vcomp cache-read ratio %.3f in [0.10, 0.40]" r) true
    (r >= 0.10 && r <= 0.40)

let test_band_cache_writes () =
  (* paper: -65%; our pattern baseline spills more, so the band is
     wide: at least -60% *)
  let r = ratio Fcstack.Chain.Cvcomp (fun p -> p.Fcstack.Experiments.pc_writes) in
  checkb (Printf.sprintf "vcomp cache-write ratio %.3f <= 0.40" r) true (r <= 0.40)

let test_band_code_size () =
  (* paper: -26%; our band: at least -25% *)
  let r = ratio Fcstack.Chain.Cvcomp (fun p -> p.Fcstack.Experiments.pc_size) in
  checkb (Printf.sprintf "vcomp size ratio %.3f <= 0.75" r) true (r <= 0.75)

let test_annot_demo () =
  let d = Fcstack.Experiments.run_annot_demo () in
  checkb "annotation comment emitted" true
    (String.length d.Fcstack.Experiments.ad_annot_comment > 0);
  checkb "WCET produced with annotation" true
    (d.Fcstack.Experiments.ad_wcet_with > 0);
  checkb "analysis fails without annotation" true
    (String.length d.Fcstack.Experiments.ad_failure_without > 0
     && not
          (String.equal d.Fcstack.Experiments.ad_failure_without
             "(unexpected: analyzer produced a bound without the annotation)"))

let test_listing_shapes () =
  (* the O0 compile of the listing node contains the pattern sequence;
     the vcomp compile contains no stack traffic at all *)
  let src = Scade.Acg.generate Fcstack.Experiments.listing_node in
  let b0 = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cdefault_o0 src in
  let bv = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp src in
  let stack_accesses (asm : Target.Asm.program) : int =
    List.fold_left
      (fun acc f ->
         acc
         + List.length
             (List.filter
                (fun i ->
                   match i with
                   | Target.Asm.Plwz (_, Target.Asm.Aind (r, _))
                   | Target.Asm.Pstw (_, Target.Asm.Aind (r, _))
                   | Target.Asm.Plfd (_, Target.Asm.Aind (r, _))
                   | Target.Asm.Pstfd (_, Target.Asm.Aind (r, _)) ->
                     r = Target.Asm.sp
                   | _ -> false)
                f.Target.Asm.fn_code))
      0 asm.Target.Asm.pr_funcs
  in
  checkb "pattern compile round-trips the stack" true
    (stack_accesses b0.Fcstack.Chain.b_asm > 0);
  Alcotest.check Alcotest.int "vcomp compile keeps wires in registers" 0
    (stack_accesses bv.Fcstack.Chain.b_asm)

let test_fcc_roundtrip_via_files () =
  (* fcgen-style: print a node to text, parse it back, compile, compare *)
  let program = Scade.Workload.flight_program ~nodes:2 ~seed:77 in
  List.iter
    (fun (_, src) ->
       let text = Minic.Pp.program_to_string src in
       let src' = Minic.Parser.parse_program text in
       Minic.Typecheck.check_program_exn src';
       let b = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp src' in
       match Fcstack.Chain.validate_chain b with
       | Ok () -> ()
       | Error msg -> Alcotest.fail msg)
    program

let test_map_workload_shapes () =
  (* the one workload traversal equals a plain map over the
     materialized program in every shape: batch (one shard of
     [max 1 nodes]), single-node shards, a shard size that does not
     divide the workload, exactly one shard and an oversized one; with
     one domain and two, on an empty, a single-node and a 7-node
     workload *)
  let seed = 31 in
  let f ((node : Scade.Symbol.node), src) =
    (node.Scade.Symbol.n_name, Minic.Pp.program_to_string src)
  in
  List.iter
    (fun nodes ->
       let expected =
         List.map f (Scade.Workload.flight_program ~nodes ~seed)
       in
       let shapes =
         None
         :: List.map
              (fun size ->
                 Some
                   { Fcstack.Toolchain.default_stream with
                     Fcstack.Toolchain.so_shard_size = max 1 size })
              [ 1; 3; nodes; nodes + 5 ]
       in
       List.iter
         (fun stream ->
            List.iter
              (fun jobs ->
                 let config =
                   { Fcstack.Toolchain.default with
                     Fcstack.Toolchain.jobs; stream }
                 in
                 checkb
                   (Printf.sprintf "nodes=%d jobs=%d shard=%s" nodes jobs
                      (match stream with
                       | None -> "batch"
                       | Some s ->
                         string_of_int s.Fcstack.Toolchain.so_shard_size))
                   true
                   (Fcstack.Experiments.map_workload ~config ~nodes ~seed f
                    = expected))
              [ 1; 2 ])
         shapes)
    [ 0; 1; 7 ]

let suite =
  [ ("chain validation across compilers", `Slow, test_chain_validation_all);
    ("band: O1 gain negligible (paper -0.5%)", `Slow, test_band_o1_negligible);
    ("band: vcomp double-digit WCET gain (paper -12%)", `Slow, test_band_vcomp_wcet);
    ("band: vcomp with GVN+LICM catches default-O2", `Slow,
     test_band_o2_vs_vcomp);
    ("band: default-O2 ahead of vcomp at -O 1 (paper -18.4% vs -12%)", `Slow,
     test_band_o2_beats_vcomp_o1);
    ("band: cache reads (paper -76%)", `Slow, test_band_cache_reads);
    ("band: cache writes (paper -65%)", `Slow, test_band_cache_writes);
    ("band: code size (paper -26%)", `Slow, test_band_code_size);
    QCheck_alcotest.to_alcotest batched_validation_prop;
    ("batched validation catches corruption", `Quick,
     test_batched_validation_catches_corruption);
    ("annotation flow demo", `Quick, test_annot_demo);
    ("listing shapes", `Quick, test_listing_shapes);
    ("file round trip through the tools", `Quick, test_fcc_roundtrip_via_files);
    ("map_workload equals a plain map in every shape", `Quick,
     test_map_workload_shapes) ]
