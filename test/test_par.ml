(* Tests of the parallel per-node pipeline (Fcstack.Par): the work
   queue itself, determinism of parallel runs against the sequential
   reference, the WCET-soundness oracle over a parallel run, and a
   domain-safety regression that compiles concurrently from two
   Domains (catching hidden global state the audit might have missed). *)

let checkb = Alcotest.check Alcotest.bool

(* ---- the work queue itself ---- *)

let test_run_order () =
  (* results are merged by task index, not completion order; make the
     early tasks slow so completion order inverts submission order *)
  let tasks =
    Array.init 16 (fun i () ->
        let spin = ref 0 in
        for _ = 1 to (16 - i) * 10_000 do incr spin done;
        ignore !spin;
        i * i)
  in
  let expect = Array.init 16 (fun i -> i * i) in
  Alcotest.check (Alcotest.array Alcotest.int) "jobs=4 keeps task order"
    expect (Fcstack.Par.run ~jobs:4 tasks);
  Alcotest.check (Alcotest.array Alcotest.int) "jobs=1 reference"
    expect (Fcstack.Par.run ~jobs:1 tasks)

let test_run_more_jobs_than_tasks () =
  let tasks = Array.init 3 (fun i () -> i + 1) in
  Alcotest.check (Alcotest.array Alcotest.int) "jobs=8 over 3 tasks"
    [| 1; 2; 3 |] (Fcstack.Par.run ~jobs:8 tasks)

exception Boom of int

let test_run_exception_deterministic () =
  (* several tasks raise: the smallest-indexed exception must win *)
  let tasks =
    Array.init 12 (fun i () -> if i mod 3 = 1 then raise (Boom i) else i)
  in
  List.iter
    (fun jobs ->
       match Fcstack.Par.run ~jobs tasks with
       | _ -> Alcotest.fail "expected an exception"
       | exception Boom i ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "smallest raising index (jobs=%d)" jobs) 1 i)
    [ 1; 4 ]

let test_map_list_empty_and_single () =
  Alcotest.check (Alcotest.list Alcotest.int) "empty" []
    (Fcstack.Par.map_list ~jobs:4 (fun x -> x) []);
  Alcotest.check (Alcotest.list Alcotest.int) "single" [ 7 ]
    (Fcstack.Par.map_list ~jobs:4 (fun x -> x + 1) [ 6 ])

(* ---- bounded-buffer streaming ---- *)

(* shard shapes with empty shards mixed in, derived from [seed] *)
let stream_shards ~(seed : int) : int array array =
  let nshards = 1 + (seed land 7) in
  let next = ref 0 in
  Array.init nshards (fun k ->
      let len = (seed + (3 * k)) mod 5 in (* 0..4 tasks, some empty *)
      Array.init len (fun _ -> let v = !next in incr next; v))

let stream_equals_seq_prop =
  QCheck.Test.make ~count:40
    ~name:"par: run_stream jobs:4 lookahead:1 = sequential"
    QCheck.small_int
    (fun seed ->
       let shards = stream_shards ~seed in
       let producer k =
         if k < Array.length shards then
           Some (Array.map (fun v () -> v * v) shards.(k))
         else None
       in
       let consumer acc i v = (i, v) :: acc in
       let run jobs =
         List.rev
           (Fcstack.Par.run_stream ~jobs ~lookahead:1 ~producer ~consumer
              ~init:[] ())
       in
       let expected =
         Array.to_list (Array.concat (Array.to_list shards))
         |> List.mapi (fun i v -> (i, v * v))
       in
       run 1 = expected && run 4 = expected)

let test_stream_empty_and_exception () =
  (* empty stream folds to init *)
  Alcotest.check (Alcotest.list Alcotest.int) "empty stream" []
    (Fcstack.Par.run_stream ~jobs:4 ~producer:(fun _ -> None)
       ~consumer:(fun acc _ v -> v :: acc) ~init:[] ());
  (* a raising task: smallest global index wins, the prefix before it
     is consumed, nothing at or after it reaches the consumer *)
  let producer k =
    if k < 4 then
      Some (Array.init 3 (fun j ->
          let g = (3 * k) + j in
          fun () -> if g >= 5 then raise (Boom g) else g))
    else None
  in
  List.iter
    (fun jobs ->
       let seen = ref [] in
       match
         Fcstack.Par.run_stream ~jobs ~producer
           ~consumer:(fun () g v -> seen := (g, v) :: !seen) ~init:() ()
       with
       | () -> Alcotest.fail "expected Boom"
       | exception Boom g ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "smallest raising index (jobs=%d)" jobs) 5 g;
         Alcotest.check
           (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
           (Printf.sprintf "prefix before failure (jobs=%d)" jobs)
           [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ]
           (List.rev !seen))
    [ 1; 4 ];
  (* a raising producer: its exception reaches the caller *)
  let producer k =
    if k < 2 then Some (Array.init 3 (fun j () -> (3 * k) + j))
    else raise (Boom (-1))
  in
  List.iter
    (fun jobs ->
       match
         Fcstack.Par.run_stream ~jobs ~lookahead:1 ~producer
           ~consumer:(fun acc _ v -> v :: acc) ~init:[] ()
       with
       | _ -> Alcotest.fail "expected the producer's exception"
       | exception Boom g ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "producer exception (jobs=%d)" jobs) (-1) g)
    [ 1; 4 ]

let test_stream_bounded_window () =
  (* the producer observes how many shards are alive (produced minus
     fully consumed): it must never exceed jobs + lookahead + 1 (the
     +1 being the shard under production) even for a long stream *)
  let jobs = 2 and lookahead = 1 in
  let nshards = 40 and shard_len = 3 in
  let consumed = Atomic.make 0 in
  let produced = Atomic.make 0 in
  let max_alive = ref 0 in
  let producer k =
    if k >= nshards then None
    else begin
      let alive = Atomic.fetch_and_add produced 1 - Atomic.get consumed in
      if alive > !max_alive then max_alive := alive;
      Some (Array.init shard_len (fun j () -> (shard_len * k) + j))
    end
  in
  let consumer acc g v =
    Alcotest.check Alcotest.int "stream order" g v;
    if (g + 1) mod shard_len = 0 then Atomic.incr consumed;
    acc + 1
  in
  let n =
    Fcstack.Par.run_stream ~jobs ~lookahead ~producer ~consumer ~init:0 ()
  in
  Alcotest.check Alcotest.int "all tasks consumed" (nshards * shard_len) n;
  checkb
    (Printf.sprintf "resident shards bounded (max %d)" !max_alive)
    true
    (!max_alive <= jobs + lookahead + 1)

(* ---- determinism of the parallel per-node chain ---- *)

let named_workload ~(nodes : int) ~(seed : int) :
  (string * Minic.Ast.program) list =
  List.map
    (fun (n, src) -> (n.Scade.Symbol.n_name, src))
    (Scade.Workload.flight_program ~nodes ~seed)

let par_equals_seq_prop =
  QCheck.Test.make ~count:6
    ~name:"par: run_chain jobs:4 = sequential (asm, wcet, validation)"
    QCheck.small_int
    (fun seed ->
       let nodes = 3 + (seed land 3) in
       let workload = named_workload ~nodes ~seed:(1000 + seed) in
       List.for_all
         (fun compiler ->
            let config jobs =
              Fcstack.Toolchain.of_session_request
                (Fcstack.Toolchain.session ~jobs ())
                (Fcstack.Toolchain.request_opts ~worlds:2 ~compiler ())
            in
            let seq =
              Fcstack.Par.run_chain ~config:(config 1) ~exact:true ~cycles:2
                workload
            in
            let par =
              Fcstack.Par.run_chain ~config:(config 4) ~exact:true ~cycles:2
                workload
            in
            seq = par)
         [ Fcstack.Chain.Cvcomp; Fcstack.Chain.Cdefault_o0 ])

(* the streaming chain is the batch chain, shard by shard *)
let chain_stream_equals_batch_prop =
  QCheck.Test.make ~count:4
    ~name:"par: run_chain_stream jobs:4 = run_chain"
    QCheck.small_int
    (fun seed ->
       let nodes = 4 + (seed land 3) in
       let workload = named_workload ~nodes ~seed:(4000 + seed) in
       let arr = Array.of_list workload in
       let shard_size = 1 + (seed mod 3) in
       let producer k =
         let lo = k * shard_size in
         if lo >= Array.length arr then None
         else
           Some (Array.sub arr lo (min shard_size (Array.length arr - lo)))
       in
       let config jobs =
         Fcstack.Toolchain.of_session_request
           (Fcstack.Toolchain.session ~jobs ())
           (Fcstack.Toolchain.request_opts ~worlds:2 ())
       in
       let batch =
         Fcstack.Par.run_chain ~config:(config 1) ~exact:true ~cycles:2
           workload
       in
       let stream =
         List.rev
           (Fcstack.Par.run_chain_stream ~config:(config 4) ~exact:true
              ~cycles:2 ~producer
              ~consumer:(fun acc _ r -> r :: acc) ~init:[] ())
       in
       stream = batch)

(* workload measurement (the bench path) is deterministic under -j *)
let workload_par_equals_seq_prop =
  QCheck.Test.make ~count:4
    ~name:"par: Experiments.run_workload jobs:4 = jobs:1"
    QCheck.small_int
    (fun seed ->
       let nodes = 4 + (seed land 3) in
       let config jobs =
         Fcstack.Toolchain.of_session_request
           (Fcstack.Toolchain.session ~jobs ())
           Fcstack.Toolchain.default_request
       in
       Fcstack.Experiments.run_workload ~nodes ~seed:(2000 + seed)
         ~config:(config 4) ()
       = Fcstack.Experiments.run_workload ~nodes ~seed:(2000 + seed)
           ~config:(config 1) ())

(* ---- soundness oracle over a parallel run ---- *)

let test_parallel_wcet_soundness () =
  (* WCET >= simulated cycles for every node of a parallel run: the
     ROADMAP invariant must survive the fan-out *)
  let program = Scade.Workload.flight_program ~nodes:8 ~seed:3131 in
  let named = List.map (fun (n, src) -> (n.Scade.Symbol.n_name, src)) program in
  let results =
    Fcstack.Par.run_chain
      ~config:
        (Fcstack.Toolchain.of_session_request
           (Fcstack.Toolchain.session ~jobs:4 ())
           (Fcstack.Toolchain.request_opts ~compiler:Fcstack.Chain.Cvcomp ()))
      ~exact:true named
  in
  List.iter2
    (fun (name, src) outcome ->
       let r =
         match outcome with
         | Ok r -> r
         | Error d ->
           Alcotest.failf "%s failed: %s" name (Fcstack.Diag.to_string d)
       in
       checkb (name ^ " validated") true (Result.is_ok r.Fcstack.Par.pn_validation);
       let b = Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp src in
       List.iter
         (fun seed ->
            let sim =
              Fcstack.Chain.simulate b (Minic.Interp.seeded_world ~seed ())
            in
            let cycles = sim.Target.Sim.rr_stats.Target.Sim.cycles in
            checkb
              (Printf.sprintf "%s: WCET %d >= simulated %d (seed %d)" name
                 r.Fcstack.Par.pn_wcet cycles seed)
              true
              (r.Fcstack.Par.pn_wcet >= cycles))
         [ 1; 2; 3 ])
    named results

(* ---- domain-safety regression ---- *)

let test_concurrent_compilations_isolated () =
  (* two Domains compile *different* programs concurrently, repeatedly;
     both must equal their sequential counterparts. This catches hidden
     global mutable state (fresh-name counters, memo tables) that the
     audit missed: cross-domain interference would perturb generated
     names, register numbers or analysis results. *)
  let p1 = Testlib.Gen.gen_program 101 and p2 = Testlib.Gen.gen_program 202 in
  let compile (p : Minic.Ast.program) :
    Target.Asm.program * Target.Asm.program * int =
    let vasm = Vcomp.Driver.compile ~options:Vcomp.Driver.no_validation p in
    let casm =
      Cotsc.Driver.compile ~level:Cotsc.Driver.Ofull ~contract_fma:false p
    in
    let lay = Target.Layout.build p vasm in
    (vasm, casm, (Wcet.Driver.analyze vasm lay).Wcet.Report.rp_wcet)
  in
  let expected1 = compile p1 and expected2 = compile p2 in
  let rounds = 6 in
  let d1 = Domain.spawn (fun () -> List.init rounds (fun _ -> compile p1)) in
  let d2 = Domain.spawn (fun () -> List.init rounds (fun _ -> compile p2)) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  List.iteri
    (fun i r ->
       checkb (Printf.sprintf "domain 1 round %d = sequential" i) true
         (r = expected1))
    r1;
  List.iteri
    (fun i r ->
       checkb (Printf.sprintf "domain 2 round %d = sequential" i) true
         (r = expected2))
    r2

let test_shared_cache_across_domains () =
  (* two Domains hammer ONE Wcet.Memo from both sides, analyzing
     overlapping programs repeatedly: every result — hit or miss, under
     whatever interleaving — must equal the uncached sequential
     reference. This is the race regression for the sharded cache:
     a torn entry, a lost update or a cross-function mixup would
     surface as a differing report. *)
  let programs =
    List.map Testlib.Gen.gen_program [ 301; 302; 303; 301 (* overlap *) ]
  in
  let builds =
    List.map (Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp) programs
  in
  let analyze ?cache (b : Fcstack.Chain.built) :
    (Wcet.Report.t, string) Result.t =
    match
      Fcstack.Chain.wcet
        ~config:
          (Fcstack.Toolchain.of_session_request
             (Fcstack.Toolchain.session ?cache ())
             Fcstack.Toolchain.default_request)
        b
    with
    | r -> Ok r
    | exception Wcet.Driver.Error m -> Error m
  in
  let expected = List.map (fun b -> analyze b) builds in
  let cache = Wcet.Memo.create () in
  let rounds = 8 in
  let worker () = List.init rounds (fun _ -> List.map (analyze ~cache) builds) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  List.iteri
    (fun i r ->
       checkb (Printf.sprintf "domain 1 round %d = uncached sequential" i) true
         (r = expected))
    r1;
  List.iteri
    (fun i r ->
       checkb (Printf.sprintf "domain 2 round %d = uncached sequential" i) true
         (r = expected))
    r2;
  (* both domains analyzed the same content: the cache must have served
     hits (the point of sharing) without double-counting entries *)
  let st = Wcet.Memo.stats cache in
  checkb "shared cache produced hits" true (st.Wcet.Report.st_hits > 0);
  checkb "entries bounded by distinct analyses" true
    (st.Wcet.Report.st_entries <= st.Wcet.Report.st_misses)

let suite =
  [ ("par: results merged by task index", `Quick, test_run_order);
    ("par: more jobs than tasks", `Quick, test_run_more_jobs_than_tasks);
    ("par: deterministic exception choice", `Quick,
     test_run_exception_deterministic);
    ("par: map_list edge cases", `Quick, test_map_list_empty_and_single);
    QCheck_alcotest.to_alcotest stream_equals_seq_prop;
    ("par: run_stream empty stream and mid-shard failure", `Quick,
     test_stream_empty_and_exception);
    ("par: run_stream window stays bounded", `Quick,
     test_stream_bounded_window);
    QCheck_alcotest.to_alcotest par_equals_seq_prop;
    QCheck_alcotest.to_alcotest chain_stream_equals_batch_prop;
    QCheck_alcotest.to_alcotest workload_par_equals_seq_prop;
    ("par: WCET >= simulated cycles on a parallel run", `Slow,
     test_parallel_wcet_soundness);
    ("par: concurrent compilations from two Domains", `Slow,
     test_concurrent_compilations_isolated);
    ("par: one shared analysis cache from two Domains", `Slow,
     test_shared_cache_across_domains) ]
