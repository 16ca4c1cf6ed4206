(* Deterministic parallel work queue over OCaml 5 Domains.

   The paper's evaluation compiles and analyzes ~2,500 *independent*
   SCADE nodes; every per-node chain stage (ACG, compilation, layout,
   WCET analysis, differential validation) is a pure function of the
   node, so the workload fans out across Domains freely. Determinism is
   non-negotiable for a verification pipeline: results are merged by
   task index, never by completion order, so the output of a parallel
   run is byte-identical to the sequential one regardless of
   scheduling. The sequential reference itself lives with the tests
   ([test/par_ref.ml]); the product has one engine for every [jobs].

   Domain-safety audit: every compilation/analysis library the workers
   call ([Cotsc], [Vcomp], [Wcet], [Target], [Scade], [Minic]) keeps
   its mutable state in per-call records — codegen contexts
   ([Cotsc.Codegen.ctx], [Scade.Acg.gen_state]), per-function
   fresh-name counters ([Vcomp.Rtl.f_next_reg]/[f_next_node]),
   per-analysis hashtables ([Wcet.*], [Target.Layout]), per-run machine
   state ([Target.Sim.machine]) and seeded [Random.State] values
   ([Scade.Workload], [Testlib.Gen]). No module-level refs, memo tables
   or shared formatters exist, so workers need no locks; the regression
   test in [test/test_par.ml] runs two compilations concurrently from
   two Domains to keep it that way. *)

(* ---- bounded-buffer streaming --------------------------------------- *)

(* One in-flight shard: its tasks, their results, a claim cursor and a
   consume cursor. All fields are guarded by the stream mutex; a slot
   is written once, by the domain that claimed its index. *)
type 'a shard = {
  sh_base : int;                 (* global index of task 0 *)
  sh_tasks : (unit -> 'a) array;
  sh_slots : 'a option array;
  mutable sh_next : int;         (* next unclaimed task *)
  mutable sh_consumed : int;     (* next task to fold into the consumer *)
}

(* The lock and condition of the last stream this domain finished, kept
   for its next one. Both are custom blocks with finalizers; a fresh
   pair per stream, promoted with every long task, raised the major
   heap peak of perfbench batch-o0 (a one-node stream per node at -j 1)
   by about 8%. A stream takes the pair out while it runs, so a stream
   nested in a task or a consumer makes its own. *)
let spare : (Mutex.t * Condition.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Pull shards lazily from [producer] (shard k, [None] = end of
   stream), run every task on [jobs] domains, the calling one
   included, and fold results into [consumer] in global task order.
   Memory is bounded: at most [jobs + 1] shards are resident (produced
   but not yet consumed) at any instant, so the resident set is
   independent of the stream length — the flat-RSS contract of the
   streaming pipeline.

   Determinism: tasks are claimed in global order, oldest shard first,
   and a result reaches [consumer] only once every result below it
   has, so [consumer] observes exactly the sequential order no matter
   how the domains interleave. A failure is a global index with an
   exception: a raising task at its index, a raising producer at the
   first index of the shard it did not produce, a raising consumer at
   the index it was handed. The smallest failing index wins; once it
   has failed no task above it is claimed and nothing is produced, and
   no result at or beyond it reaches [consumer], so the consumed prefix
   is the sequential one. Its exception is re-raised in the caller once
   every domain has wound down.

   [producer] is called from worker domains, one call at a time (never
   concurrently, shards in order), outside the lock: generation
   overlaps compilation, but a producer need not be thread-safe beyond
   being callable from another domain. [consumer] always runs under
   the lock — never concurrently with itself. With [jobs = 1] the
   calling domain runs the loop alone and no domain is spawned: it
   produces a shard, runs and consumes its tasks in order, then
   produces the next, exactly as the sequential reference does. *)
let run_stream ~(jobs : int)
    ~(producer : int -> (unit -> 'a) array option)
    ~(consumer : 'acc -> int -> 'a -> 'acc) ~(init : 'acc) () : 'acc =
  let jobs = max 1 jobs in
  let cap = jobs + 1 in
  let mutex, cond =
    match Domain.DLS.get spare with
    | Some pair ->
      Domain.DLS.set spare None;
      pair
    | None -> (Mutex.create (), Condition.create ())
  in
  (* all of the following is guarded by [mutex] *)
  let window : 'a shard Queue.t = Queue.create () in
  let next_shard = ref 0 in       (* next shard index to produce *)
  let produced = ref 0 in         (* global task count produced *)
  let producing = ref false in    (* a domain is inside [producer] *)
  let exhausted = ref false in    (* producer returned None *)
  let acc = ref init in
  (* The smallest failing index with its exception. It is published
     without the lock: a raising task records it before it waits for
     the lock, so no other domain claims a task above it meanwhile. *)
  let failed : (int * exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None
  in
  let rec fail g e bt =
    match Atomic.get failed with
    | Some (f, _, _) when f <= g -> ()
    | cur ->
      if not (Atomic.compare_and_set failed cur (Some (g, e, bt))) then
        fail g e bt
  in
  let below_failure g =
    match Atomic.get failed with None -> true | Some (f, _, _) -> g < f
  in
  (* fold finished results into [consumer] front to back, stopping at
     the first unfinished task or the failure; drop consumed shards *)
  let rec consume () =
    match Queue.peek_opt window with
    | None -> ()
    | Some sh when sh.sh_consumed = Array.length sh.sh_tasks ->
      ignore (Queue.pop window);
      consume ()
    | Some sh ->
      let i = sh.sh_consumed in
      let g = sh.sh_base + i in
      (match sh.sh_slots.(i) with
       | Some v when below_failure g ->
         sh.sh_consumed <- i + 1;
         (match consumer !acc g v with
          | a ->
            acc := a;
            consume ()
          | exception e -> fail g e (Printexc.get_raw_backtrace ()))
       | Some _ | None -> ())
  in
  (* claim the oldest unclaimed task, unless it lies at or above the
     failure: claims are in global order, so that one is the only
     candidate *)
  let claim () =
    match Seq.find (fun sh -> sh.sh_next < Array.length sh.sh_tasks)
            (Queue.to_seq window) with
    | Some sh when below_failure (sh.sh_base + sh.sh_next) ->
      let i = sh.sh_next in
      sh.sh_next <- i + 1;
      Some (sh, i)
    | Some _ | None -> None
  in
  let worker () =
    Mutex.lock mutex;
    let rec loop () =
      match claim () with
      | Some (sh, i) ->
        Mutex.unlock mutex;
        let r =
          try Some (sh.sh_tasks.(i) ())
          with e ->
            fail (sh.sh_base + i) e (Printexc.get_raw_backtrace ());
            None
        in
        Mutex.lock mutex;
        sh.sh_slots.(i) <- r;
        consume ();
        Condition.broadcast cond;
        loop ()
      | None when !exhausted || Atomic.get failed <> None ->
        (* nothing left to claim, and nothing more will be produced:
           tasks still running elsewhere consume their own results *)
        Mutex.unlock mutex
      | None when !producing || Queue.length window >= cap ->
        Condition.wait cond mutex;
        loop ()
      | None ->
        let k = !next_shard in
        incr next_shard;
        producing := true;
        Mutex.unlock mutex;
        (* outside the lock, so generation overlaps the in-flight work *)
        let r =
          try Ok (producer k)
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock mutex;
        producing := false;
        (match r with
         | Ok None -> exhausted := true
         | Ok (Some tasks) ->
           let n = Array.length tasks in
           Queue.push
             { sh_base = !produced;
               sh_tasks = tasks;
               sh_slots = Array.make n None;
               sh_next = 0;
               sh_consumed = 0 }
             window;
           produced := !produced + n;
           (* an empty shard has no task to finish: drop it here *)
           consume ()
         | Error (e, bt) -> fail !produced e bt);
        Condition.broadcast cond;
        loop ()
    in
    loop ()
  in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Domain.DLS.set spare (Some (mutex, cond));
  match Atomic.get failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> !acc

(* The shard size of [n] tasks: the stream's when set, and without it
   the whole input as one shard. *)
let shape (stream : int option) ~(n : int) : int =
  max 1 (Option.value stream ~default:n)

(* The one slicer of a task array: cut [tasks] into shards of
   [shape stream] tasks and fold their results through the stream
   above in task order, on at most one domain per task. *)
let fold ~(jobs : int) ?stream (tasks : (unit -> 'a) array)
    ~(consumer : 'acc -> int -> 'a -> 'acc) ~(init : 'acc) : 'acc =
  let n = Array.length tasks in
  let shard = shape stream ~n in
  let producer k =
    let lo = k * shard in
    if lo >= n then None else Some (Array.sub tasks lo (min shard (n - lo)))
  in
  run_stream ~jobs:(min jobs n) ~producer ~consumer ~init ()

(* ---- the per-node chain as a parallel workload ---------------------- *)

(* What the paper's toolchain produces per node: the compiled assembly,
   its static WCET bound, and the whole-chain differential-validation
   verdict. Plain structural data, so parallel and sequential runs are
   comparable with [=]. *)
type node_result = {
  pn_name : string;
  pn_asm : Target.Asm.program;
  pn_wcet : int;
  pn_validation : (unit, string) Result.t;
}

(* The per-node body: each stage under [Diag.capture], so a failure
   costs exactly this node — the caller's other nodes proceed, and the
   diagnostic records node, stage and message. The compiler typechecks
   its input on entry, and [Diag.of_exn] turns its rejection into a
   Typecheck diagnostic. Exceptions never escape this function. *)
let chain_node ~(config : Toolchain.config) ?exact ?cycles
    (name : string) (src : Minic.Ast.program) :
  (node_result, Diag.t) Result.t =
  let ( let* ) = Result.bind in
  let* b =
    Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
        Chain.build ?exact ~passes:config.Toolchain.passes
          config.Toolchain.compiler src)
  in
  let* report =
    Diag.capture ~node:name ~stage:Diag.Wcet (fun () -> Chain.wcet ~config b)
  in
  let* validation =
    Diag.capture ~node:name ~stage:Diag.Sim (fun () ->
        Chain.validate_chain ?cycles ?worlds:config.Toolchain.worlds
          ?sim_fuel:config.Toolchain.sim_fuel b)
  in
  Ok
    { pn_name = name;
      pn_asm = b.Chain.b_asm;
      pn_wcet = report.Wcet.Report.rp_wcet;
      pn_validation = validation }

(* Run the full per-node chain — the ACG, then [chain_node] — for every
   SCADE node of a workload, fanned out over [config.jobs] domains and
   returned in input order. The config's cache is the shared
   WCET-analysis cache: Wcet.Memo is sharded and mutex-protected, so
   one cache may be handed to any number of concurrent workers without
   perturbing results (a hit returns what a miss would compute). A
   failing node, an ACG failure included (a Compile-stage diagnostic),
   is recorded as its [Diag.t]; every other node completes exactly as
   in a fault-free run. *)
let run_chain_nodes ?(config = Toolchain.default) ?exact ?cycles
    (nodes : Scade.Symbol.node list) : (node_result, Diag.t) Result.t list =
  let task (node : Scade.Symbol.node) () =
    let name = node.Scade.Symbol.n_name in
    Result.bind
      (Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
           Scade.Acg.generate node))
      (chain_node ~config ?exact ?cycles name)
  in
  List.rev
    (fold ~jobs:config.Toolchain.jobs
       (Array.of_list (List.map task nodes))
       ~consumer:(fun acc _ r -> r :: acc) ~init:[])
