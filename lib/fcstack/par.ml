(* Deterministic parallel work queue over OCaml 5 Domains.

   The paper's evaluation compiles and analyzes ~2,500 *independent*
   SCADE nodes; every per-node chain stage (ACG, compilation, layout,
   WCET analysis, differential validation) is a pure function of the
   node, so the workload fans out across Domains freely. Determinism is
   non-negotiable for a verification pipeline: results are merged by
   task index, never by completion order, so the output of a parallel
   run is byte-identical to the sequential one regardless of
   scheduling.

   Domain-safety audit (this PR): every compilation/analysis library
   the workers call ([Cotsc], [Vcomp], [Wcet], [Target], [Scade],
   [Minic]) keeps its mutable state in per-call records — codegen
   contexts ([Cotsc.Codegen.ctx], [Scade.Acg.gen_state]), per-function
   fresh-name counters ([Vcomp.Rtl.f_next_reg]/[f_next_node]),
   per-analysis hashtables ([Wcet.*], [Target.Layout]), per-run machine
   state ([Target.Sim.machine]) and seeded [Random.State] values
   ([Scade.Workload], [Testlib.Gen]). No module-level refs, memo tables
   or shared formatters exist, so workers need no locks; the regression
   test in [test/test_par.ml] runs two compilations concurrently from
   two Domains to keep it that way. *)

let default_jobs () : int = max 1 (Domain.recommended_domain_count ())

(* One task's captured outcome, written race-free by the single domain
   that claimed its index. *)
type 'a slot = ('a, exn * Printexc.raw_backtrace) Result.t option

(* The one index-merge of the whole module: walk a retired shard's
   index-ordered slots front to back, handing each result to [f] with
   its global index, and stop at the first captured exception — the
   smallest-indexed one therefore always wins, and no result at or
   beyond it is ever observed. *)
let fold_slots ~(base : int) (slots : 'a slot array)
    (f : int -> 'a -> unit) : (exn * Printexc.raw_backtrace) option =
  let n = Array.length slots in
  let rec go i =
    if i >= n then None
    else
      match slots.(i) with
      | Some (Ok v) ->
        f (base + i) v;
        go (i + 1)
      | Some (Error e) -> Some e
      | None -> assert false (* every index was claimed *)
  in
  go 0

(* ---- bounded-buffer streaming --------------------------------------- *)

(* One in-flight shard: its tasks, their slots, a claim cursor and a
   completion count. All fields are guarded by the stream mutex. *)
type 'a shard = {
  sh_base : int;                 (* global index of task 0 *)
  sh_tasks : (unit -> 'a) array;
  sh_slots : 'a slot array;
  mutable sh_next : int;         (* next unclaimed task *)
  mutable sh_done : int;         (* completed tasks *)
}

(* Pull shards lazily from [producer] (shard k, [None] = end of
   stream), run every task on up to [jobs] domains, and fold completed
   results into [consumer] in global task order. Memory is bounded: at
   most [jobs + lookahead] shards are resident (produced but not yet
   retired) at any instant, so the resident set is independent of the
   stream length — the flat-RSS contract of the streaming pipeline.

   Determinism: tasks are claimed oldest shard first; a shard is
   retired — its slots folded, in index order, under the stream lock —
   only when complete and when every older shard has been retired, so
   [consumer] observes exactly the sequential order no matter how the
   domains interleave. A raised task exception is re-raised in the
   caller after all domains wind down; the first one in global order
   wins (the stream stops claiming and producing, and no result at or
   beyond the raising index reaches [consumer]). [jobs <= 1] runs
   everything in the calling domain: produce a shard, run it, retire
   it — the reference behaviour the parallel path reproduces.

   [producer] is called from worker domains, one call at a time (never
   concurrently, shards in order), outside the lock: generation
   overlaps compilation, but a producer need not be thread-safe beyond
   being callable from another domain. [consumer] always runs under
   the lock — never concurrently with itself. *)
let run_stream ?(jobs = default_jobs ()) ?(lookahead = 1)
    ~(producer : int -> (unit -> 'a) array option)
    ~(consumer : 'acc -> int -> 'a -> 'acc) ~(init : 'acc) () : 'acc =
  let lookahead = max 0 lookahead in
  if jobs <= 1 then begin
    (* sequential reference: one shard resident at a time *)
    let acc = ref init in
    let k = ref 0 and base = ref 0 and finished = ref false in
    while not !finished do
      match producer !k with
      | None -> finished := true
      | Some tasks ->
        Array.iteri
          (fun i t -> acc := consumer !acc (!base + i) (t ()))
          tasks;
        base := !base + Array.length tasks;
        incr k
    done;
    !acc
  end
  else begin
    let cap = jobs + lookahead in
    let mutex = Mutex.create () and cond = Condition.create () in
    (* all of the following is guarded by [mutex] *)
    let window : 'a shard Queue.t = Queue.create () in
    let next_shard = ref 0 in       (* next shard index to produce *)
    let produced = ref 0 in         (* global task count produced *)
    let producing = ref false in    (* a domain is inside [producer] *)
    let exhausted = ref false in    (* producer returned None *)
    let failed : (exn * Printexc.raw_backtrace) option ref = ref None in
    let acc = ref init in
    (* retire complete shards from the front of the window; under the
       lock, so consumer folds are serial and in global order. After a
       recorded failure nothing further is consumed or retired. *)
    let retire_front () =
      while
        !failed = None
        && (not (Queue.is_empty window))
        && (let sh = Queue.peek window in
            sh.sh_done = Array.length sh.sh_tasks)
      do
        let sh = Queue.pop window in
        match
          fold_slots ~base:sh.sh_base sh.sh_slots (fun i v ->
              acc := consumer !acc i v)
        with
        | None -> ()
        | Some e -> failed := Some e
      done
    in
    let worker () =
      Mutex.lock mutex;
      let rec loop () =
        if !failed <> None then Mutex.unlock mutex
        else begin
          (* oldest shard with an unclaimed task, if any *)
          let claim = ref None in
          (try
             Queue.iter
               (fun sh ->
                  if sh.sh_next < Array.length sh.sh_tasks then begin
                    claim := Some (sh, sh.sh_next);
                    sh.sh_next <- sh.sh_next + 1;
                    raise Exit
                  end)
               window
           with Exit -> ());
          match !claim with
          | Some (sh, i) ->
            Mutex.unlock mutex;
            let r =
              try Ok (sh.sh_tasks.(i) ())
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            Mutex.lock mutex;
            sh.sh_slots.(i) <- Some r;
            sh.sh_done <- sh.sh_done + 1;
            retire_front ();
            Condition.broadcast cond;
            loop ()
          | None ->
            if (not !exhausted) && (not !producing)
            && Queue.length window < cap then begin
              let k = !next_shard in
              incr next_shard;
              producing := true;
              Mutex.unlock mutex;
              (* producer runs outside the lock so generation overlaps
                 the in-flight work; a producer exception fails the
                 whole stream (the prefix consumed before it is
                 whatever had already retired) *)
              let shard =
                try Ok (producer k)
                with e -> Error (e, Printexc.get_raw_backtrace ())
              in
              Mutex.lock mutex;
              producing := false;
              (match shard with
               | Error e ->
                 exhausted := true;
                 if !failed = None then failed := Some e
               | Ok None -> exhausted := true
               | Ok (Some tasks) ->
                 Queue.push
                   { sh_base = !produced;
                     sh_tasks = tasks;
                     sh_slots = Array.make (Array.length tasks) None;
                     sh_next = 0;
                     sh_done = 0 }
                   window;
                 produced := !produced + Array.length tasks;
                 (* an empty shard has no task to complete: retire it
                    here or the window never drains *)
                 retire_front ());
              Condition.broadcast cond;
              loop ()
            end
            else if !exhausted && Queue.is_empty window && not !producing
            then begin
              Condition.broadcast cond;
              Mutex.unlock mutex
            end
            else begin
              Condition.wait cond mutex;
              loop ()
            end
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    match !failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> !acc
  end

(* The shard size of [n] tasks: the stream's when set, and without it
   the whole input as one shard. *)
let shape (stream : int option) ~(n : int) : int =
  max 1 (Option.value stream ~default:n)

(* The one slicer of a task array: cut [tasks] into shards of
   [shape stream] tasks and fold their results through the stream
   above in task order. With one job or at most one task everything
   runs sequentially in the calling domain. *)
let fold ?(jobs = default_jobs ()) ?stream (tasks : (unit -> 'a) array)
    ~(consumer : 'acc -> int -> 'a -> 'acc) ~(init : 'acc) : 'acc =
  let n = Array.length tasks in
  let shard = shape stream ~n in
  let producer k =
    let lo = k * shard in
    if lo >= n then None else Some (Array.sub tasks lo (min shard (n - lo)))
  in
  run_stream ~jobs:(min jobs n) ~producer ~consumer ~init ()

(* Run [tasks.(i) ()] for every [i] on up to [jobs] domains and return
   the results in task order: [fold] over one shard, so a batch
   inherits the stream's smallest-index exception rule. *)
let run ?jobs (tasks : (unit -> 'a) array) : 'a array =
  Array.of_list
    (List.rev (fold ?jobs tasks ~consumer:(fun acc _ v -> v :: acc) ~init:[]))

(* Order-preserving parallel map over a list. *)
let map_list ?jobs (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (run ?jobs (Array.map (fun x () -> f x) (Array.of_list xs)))

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
let chain_node ~(config : Toolchain.config) ?exact ?validate ?cycles
    (name : string) (src : Minic.Ast.program) :
  (node_result, Diag.t) Result.t =
  let ( let* ) = Result.bind in
  let* b =
    Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
        Chain.build ?exact ?validate ~passes:config.Toolchain.passes
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

(* Run the full per-node chain — ACG when given a SCADE node, then
   compile under the config's compiler, link ([Layout.build] inside
   [Chain.build]), analyze and validate — for every node of a
   workload, fanned out over [config.jobs] domains. The config's cache
   is the shared WCET-analysis cache: Wcet.Memo is sharded and
   mutex-protected, so one cache may be handed to any number of
   concurrent workers without perturbing results (a hit returns what a
   miss would compute). [exact]/[validate]/[cycles] stay per-call
   knobs: they pick the semantics being checked, not how the toolchain
   runs.

   Failure containment: each node's outcome is a [Result.t] — a
   failing node is recorded as its [Diag.t] and *skipped*; every other
   node completes and merges by index exactly as before, so the
   successful entries of a partially-failed run are byte-identical to
   a fault-free run restricted to those nodes. *)
let run_chain ?(config = Toolchain.default) ?exact ?validate ?cycles
    (nodes : (string * Minic.Ast.program) list) :
  (node_result, Diag.t) Result.t list =
  map_list ~jobs:config.Toolchain.jobs
    (fun (name, src) -> chain_node ~config ?exact ?validate ?cycles name src)
    nodes

(* Same, starting from SCADE nodes (runs the ACG inside the worker; an
   ACG failure is a Compile-stage diagnostic). *)
let run_chain_nodes ?(config = Toolchain.default) ?exact ?validate ?cycles
    (nodes : Scade.Symbol.node list) : (node_result, Diag.t) Result.t list =
  map_list ~jobs:config.Toolchain.jobs
    (fun node ->
       let name = node.Scade.Symbol.n_name in
       Result.bind
         (Diag.capture ~node:name ~stage:Diag.Compile (fun () ->
              Scade.Acg.generate node))
         (fun src -> chain_node ~config ?exact ?validate ?cycles name src))
    nodes

(* The streaming counterpart of [run_chain]: named mini-C programs
   arrive shard by shard from [producer], each node runs [chain_node]
   under the config, and outcomes fold into [consumer] in global input
   order — the per-node results are identical to [run_chain] over the
   concatenated shards, with only [jobs + 1] shards resident. *)
let run_chain_stream ?(config = Toolchain.default) ?exact ?validate ?cycles
    ~(producer : int -> (string * Minic.Ast.program) array option)
    ~(consumer : 'acc -> int -> (node_result, Diag.t) Result.t -> 'acc)
    ~(init : 'acc) () : 'acc =
  run_stream ~jobs:config.Toolchain.jobs
    ~producer:(fun k ->
        Option.map
          (Array.map (fun (name, src) () ->
               chain_node ~config ?exact ?validate ?cycles name src))
          (producer k))
    ~consumer ~init ()
