(* Tests of the parallel per-node pipeline (Fcstack.Par): the work
   queue itself, determinism of parallel runs against the sequential
   reference, the WCET-soundness oracle over a parallel run, and a
   domain-safety regression that compiles concurrently from two
   Domains (catching hidden global state the audit might have missed). *)

let checkb = Alcotest.check Alcotest.bool

(* every result of [tasks] in task order, through [Par.fold] *)
let run ~jobs (tasks : (unit -> 'a) array) : 'a array =
  Array.of_list
    (List.rev
       (Fcstack.Par.fold ~jobs tasks ~consumer:(fun acc _ v -> v :: acc)
          ~init:[]))

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
    expect (run ~jobs:4 tasks);
  Alcotest.check (Alcotest.array Alcotest.int) "jobs=1 reference"
    expect (run ~jobs:1 tasks)

let test_run_more_jobs_than_tasks () =
  let tasks = Array.init 3 (fun i () -> i + 1) in
  Alcotest.check (Alcotest.array Alcotest.int) "jobs=8 over 3 tasks"
    [| 1; 2; 3 |] (run ~jobs:8 tasks)

exception Boom of int

let test_run_exception_deterministic () =
  (* several tasks raise: the smallest-indexed exception must win *)
  let tasks =
    Array.init 12 (fun i () -> if i mod 3 = 1 then raise (Boom i) else i)
  in
  List.iter
    (fun jobs ->
       match run ~jobs tasks with
       | _ -> Alcotest.fail "expected an exception"
       | exception Boom i ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "smallest raising index (jobs=%d)" jobs) 1 i)
    [ 1; 4 ]

let test_fold_empty_and_single () =
  Alcotest.check (Alcotest.array Alcotest.int) "empty" [||]
    (run ~jobs:4 [||]);
  Alcotest.check (Alcotest.array Alcotest.int) "single" [| 7 |]
    (run ~jobs:4 [| (fun () -> 7) |]);
  (* a stream nested in a task or in a consumer runs on its own lock *)
  let sum6 () =
    Array.fold_left ( + ) 0 (run ~jobs:2 (Array.init 3 (fun i () -> i + 1)))
  in
  Alcotest.check (Alcotest.array Alcotest.int) "nested in a task" [| 6; 6 |]
    (run ~jobs:2 [| sum6; sum6 |]);
  List.iter
    (fun jobs ->
       Alcotest.check Alcotest.int
         (Printf.sprintf "nested in a consumer (jobs=%d)" jobs) 18
         (Fcstack.Par.fold ~jobs [| (fun () -> 1); (fun () -> 2) |]
            ~consumer:(fun acc _ v -> acc + (v * sum6 ())) ~init:0))
    [ 1; 2 ]

(* After task [i] raises no task above it is claimed: one job runs
   exactly tasks 0..i. Task [i] raises at once while every other task
   sleeps, so with more jobs only the [jobs - 1] tasks running when it
   raised may lie above it. *)
let test_no_claim_after_failure () =
  let n = 200 in
  List.iter
    (fun (i, stream) ->
       List.iter
         (fun jobs ->
            let ran = Atomic.make 0 in
            let tasks =
              Array.init n (fun t () ->
                  Atomic.incr ran;
                  if t = i then raise (Boom t);
                  Unix.sleepf 0.0002)
            in
            (match Fcstack.Par.fold ~jobs ?stream tasks
                     ~consumer:(fun () _ () -> ()) ~init:() with
             | () -> Alcotest.fail "expected Boom"
             | exception Boom t ->
               Alcotest.check Alcotest.int "raising index" i t);
            let what =
              Printf.sprintf "tasks run after task %d raised (jobs=%d, %s)" i
                jobs
                (match stream with
                 | None -> "one shard"
                 | Some s -> Printf.sprintf "shards of %d" s)
            in
            if jobs = 1 then
              Alcotest.check Alcotest.int what (i + 1) (Atomic.get ran)
            else
              checkb
                (Printf.sprintf "%s: %d <= %d" what (Atomic.get ran) (i + jobs))
                true
                (Atomic.get ran <= i + jobs))
         [ 1; 2 ])
    [ (0, None); (3, None); (57, None); (3, Some 7); (57, Some 1) ]

(* Run [f] on its own Domain and fail the test if it has not returned
   after [seconds]: a deadlocked stream then fails one test instead of
   hanging the suite. *)
let with_watchdog ~(seconds : float) (f : unit -> 'a) : 'a =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
      Domain.join d;
      (match r with Ok v -> v | Error e -> raise e)
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "no answer after %.0f s: the stream deadlocked" seconds
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ()

(* A raising consumer fails the stream at its index, whichever domain
   it runs on: its exception reaches the caller and the consumed prefix
   is the sequential one. *)
let test_consumer_exception () =
  let rounds = 40 in
  let outcomes =
    with_watchdog ~seconds:30.0 (fun () ->
        List.init rounds (fun round ->
            let c = round mod 9 in
            let tasks =
              Array.init 12 (fun i () ->
                  let spin = ref 0 in
                  for _ = 1 to ((i * 7) + round) mod 5 * 5_000 do
                    incr spin
                  done;
                  ignore !spin;
                  i)
            in
            let seen = ref [] in
            match
              Fcstack.Par.fold ~jobs:2 ~stream:(1 + (round mod 3)) tasks
                ~consumer:(fun () i v ->
                    if i = c then raise (Boom i);
                    seen := v :: !seen)
                ~init:()
            with
            | () -> (c, None, List.rev !seen)
            | exception Boom i -> (c, Some i, List.rev !seen)))
  in
  List.iter
    (fun (c, raised, seen) ->
       Alcotest.check
         (Alcotest.option Alcotest.int)
         (Printf.sprintf "consumer exception at %d reaches the caller" c)
         (Some c) raised;
       Alcotest.check (Alcotest.list Alcotest.int)
         (Printf.sprintf "prefix before the consumer raised at %d" c)
         (List.init c Fun.id) seen)
    outcomes

(* ---- bounded-buffer streaming ---- *)

(* The one engine against the sequential reference of [Par_ref]: random
   shard shapes (empty shards included), at most one raising task,
   producer or consumer at a random index. Every [jobs] must consume
   the reference's prefix and end the same way. *)
type fault = No_fault | Task of int | Producer of int | Consumer of int

exception Fault of string * int

let fault_to_string = function
  | No_fault -> "none"
  | Task i -> Printf.sprintf "task %d" i
  | Producer k -> Printf.sprintf "producer %d" k
  | Consumer i -> Printf.sprintf "consumer %d" i

let stream_case : (int list * fault) QCheck.arbitrary =
  let open QCheck.Gen in
  let gen =
    list_size (int_bound 8) (int_bound 4) >>= fun lens ->
    let total = List.fold_left ( + ) 0 lens in
    oneof
      [ return No_fault;
        map (fun i -> Task i) (int_bound total);
        map (fun k -> Producer k) (int_bound (List.length lens));
        map (fun i -> Consumer i) (int_bound total) ]
    >|= fun fault -> (lens, fault)
  in
  QCheck.make gen
    ~print:(fun (lens, fault) ->
        Printf.sprintf "shards [%s], fault %s"
          (String.concat "; " (List.map string_of_int lens))
          (fault_to_string fault))

let stream_equals_ref_prop =
  QCheck.Test.make ~count:300
    ~name:"par: run_stream jobs:1/2/4 = Par_ref (prefix and exception)"
    stream_case
    (fun (lens, fault) ->
       let shards =
         let next = ref 0 in
         Array.of_list
           (List.map
              (fun len ->
                 Array.init len (fun _ ->
                     let g = !next in
                     incr next;
                     g))
              lens)
       in
       let producer k =
         if fault = Producer k then raise (Fault ("producer", k))
         else if k < Array.length shards then
           Some
             (Array.map
                (fun g () ->
                   if fault = Task g then raise (Fault ("task", g));
                   let spin = ref 0 in
                   for _ = 1 to (g * 7919) mod 3000 do incr spin done;
                   ignore !spin;
                   g * g)
                shards.(k))
         else None
       in
       let observe run =
         let seen = ref [] in
         let consumer acc i v =
           if fault = Consumer i then raise (Fault ("consumer", i));
           seen := (i, v) :: !seen;
           (i, v) :: acc
         in
         let outcome =
           match run ~producer ~consumer with
           | acc -> Ok (List.rev acc)
           | exception Fault (who, i) -> Error (who, i)
         in
         (List.rev !seen, outcome)
       in
       let expected =
         observe (fun ~producer ~consumer ->
             Par_ref.run_stream ~producer ~consumer ~init:[])
       in
       List.for_all
         (fun jobs ->
            observe (fun ~producer ~consumer ->
                Fcstack.Par.run_stream ~jobs ~producer ~consumer ~init:[] ())
            = expected)
         [ 1; 2; 4 ])

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
         Fcstack.Par.run_stream ~jobs ~producer
           ~consumer:(fun acc _ v -> v :: acc) ~init:[] ()
       with
       | _ -> Alcotest.fail "expected the producer's exception"
       | exception Boom g ->
         Alcotest.check Alcotest.int
           (Printf.sprintf "producer exception (jobs=%d)" jobs) (-1) g)
    [ 1; 4 ]

let test_stream_bounded_window () =
  (* the producer observes how many shards are alive (produced minus
     fully consumed): it must never exceed jobs + 1 + 1 (the last +1
     being the shard under production) even for a long stream *)
  let jobs = 2 in
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
  let n = Fcstack.Par.run_stream ~jobs ~producer ~consumer ~init:0 () in
  Alcotest.check Alcotest.int "all tasks consumed" (nshards * shard_len) n;
  checkb
    (Printf.sprintf "resident shards bounded (max %d)" !max_alive)
    true
    (!max_alive <= jobs + 1 + 1)

(* ---- determinism of the parallel per-node chain ---- *)

let par_equals_seq_prop =
  QCheck.Test.make ~count:6
    ~name:"par: run_chain_nodes jobs:4 = jobs:1 (asm, wcet, validation)"
    QCheck.small_int
    (fun seed ->
       let nodes = 3 + (seed land 3) in
       let workload =
         List.map fst (Scade.Workload.flight_program ~nodes ~seed:(1000 + seed))
       in
       List.for_all
         (fun compiler ->
            let run jobs =
              Fcstack.Par.run_chain_nodes
                ~config:
                  (Fcstack.Toolchain.of_session_request
                     (Fcstack.Toolchain.session ~jobs ())
                     (Fcstack.Toolchain.request_opts ~worlds:2 ~compiler ()))
                ~exact:true ~cycles:2 workload
            in
            run 1 = run 4)
         [ Fcstack.Chain.Cvcomp; Fcstack.Chain.Cdefault_o0 ])

(* the streaming chain is the batch chain, shard by shard *)
let chain_stream_equals_batch_prop =
  QCheck.Test.make ~count:4
    ~name:"par: chain_node streamed jobs:4 = run_chain_nodes"
    QCheck.small_int
    (fun seed ->
       let nodes = 4 + (seed land 3) in
       let program = Scade.Workload.flight_program ~nodes ~seed:(4000 + seed) in
       let config jobs =
         Fcstack.Toolchain.of_session_request
           (Fcstack.Toolchain.session ~jobs ())
           (Fcstack.Toolchain.request_opts ~worlds:2 ())
       in
       let batch =
         Fcstack.Par.run_chain_nodes ~config:(config 1) ~exact:true ~cycles:2
           (List.map fst program)
       in
       let tasks =
         Array.of_list
           (List.map
              (fun ((n : Scade.Symbol.node), src) () ->
                 Fcstack.Par.chain_node ~config:(config 4) ~exact:true
                   ~cycles:2 n.Scade.Symbol.n_name src)
              program)
       in
       let stream =
         List.rev
           (Fcstack.Par.fold ~jobs:4 ~stream:(1 + (seed mod 3)) tasks
              ~consumer:(fun acc _ r -> r :: acc) ~init:[])
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
    Fcstack.Par.run_chain_nodes
      ~config:
        (Fcstack.Toolchain.of_session_request
           (Fcstack.Toolchain.session ~jobs:4 ())
           (Fcstack.Toolchain.request_opts ~compiler:Fcstack.Chain.Cvcomp ()))
      ~exact:true (List.map fst program)
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
    ("par: fold edge cases", `Quick, test_fold_empty_and_single);
    QCheck_alcotest.to_alcotest stream_equals_ref_prop;
    ("par: run_stream empty stream and mid-shard failure", `Quick,
     test_stream_empty_and_exception);
    ("par: run_stream window stays bounded", `Quick,
     test_stream_bounded_window);
    ("par: no task above a failure is claimed", `Quick,
     test_no_claim_after_failure);
    ("par: a raising consumer reaches the caller (jobs:2)", `Quick,
     test_consumer_exception);
    QCheck_alcotest.to_alcotest par_equals_seq_prop;
    QCheck_alcotest.to_alcotest chain_stream_equals_batch_prop;
    QCheck_alcotest.to_alcotest workload_par_equals_seq_prop;
    ("par: WCET >= simulated cycles on a parallel run", `Slow,
     test_parallel_wcet_soundness);
    ("par: concurrent compilations from two Domains", `Slow,
     test_concurrent_compilations_isolated);
    ("par: one shared analysis cache from two Domains", `Slow,
     test_shared_cache_across_domains) ]
