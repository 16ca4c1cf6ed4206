(* The unified toolchain configuration.

   PR 3 left the public surface with ?cache/?jobs/?worlds optionals
   scattered across Chain, Par and Experiments, and every new knob
   multiplied across that surface. [config] consolidates them: one
   record, built once (typically from CLI flags), threaded as a single
   ?config through the chain entry points.

   The compiler *type* lives here rather than in [Chain] so that the
   config can name a configuration without a dependency cycle; [Chain]
   re-exports it as an equation ([type compiler = Toolchain.compiler =
   ...]), so [Chain.Cvcomp] et al. keep working. *)

type compiler =
  | Cdefault_o0   (* COTS baseline, certified pattern configuration *)
  | Cdefault_o1   (* COTS baseline, optimized without register allocation *)
  | Cdefault_o2   (* COTS baseline, fully optimized (incl. FMA contraction) *)
  | Cvcomp        (* verified-style optimizing compiler (CompCert stand-in) *)

(* Streaming execution shape (Par.run_stream): the workload is pulled
   shard by shard instead of materialized up front, bounding resident
   memory at [jobs + so_lookahead] shards of [so_shard_size] nodes.
   Output stays byte-identical to the batch path — the stream option
   picks an execution shape, never a semantics. *)
type stream_opts = {
  so_shard_size : int;  (* nodes per produced shard, >= 1 *)
  so_lookahead : int;   (* resident shards beyond [jobs], >= 0 *)
}

let default_stream : stream_opts =
  { so_shard_size = Scade.Workload.default_shard_size; so_lookahead = 1 }

type config = {
  jobs : int;
  (* WCET-analysis cache, possibly persistent (Wcet.Memo.create ?dir).
     The handle lives here — in an explicit record the caller created —
     never in a module-level global (the PR-2/PR-3 repo rule). *)
  cache : Wcet.Memo.t option;
  (* differential-validation battery size (None: Chain's default seeds) *)
  worlds : int option;
  compiler : compiler;
  (* simulator step budget per run (None: Target.Sim's default) *)
  sim_fuel : int option;
  (* iteration budgets for every fixpoint/solver loop of the analyzer;
     part of the analysis-cache content key (see Wcet.Fuel) *)
  analysis_fuel : Wcet.Fuel.t;
  (* vcomp middle-end pass selection (-O / --passes); its canonical
     spec string joins the analysis-cache content key, since two
     pipelines can produce different assembly for the same source *)
  passes : Vcomp.Pass.options;
  (* WCET path-analysis engine (--engine): structural IPET (default),
     the OMT engine, or both cross-checked per node; part of the
     analysis-cache content key *)
  engine : Wcet.Report.engine;
  (* streaming execution shape (--stream): the shard size and lookahead
     of Par.run_stream. None = batch, which is the same stream with the
     whole workload as one shard. Output is byte-identical either way. *)
  stream : stream_opts option;
}

let default : config =
  { jobs = 1;
    cache = None;
    worlds = None;
    compiler = Cvcomp;
    sim_fuel = None;
    analysis_fuel = Wcet.Fuel.default;
    passes = Vcomp.Pass.default_options;
    engine = Wcet.Report.Ipet;
    stream = None }

(* ---- the session / request split (PR 9) ---------------------------

   A persistent server holds state that outlives any one request (the
   warm cache, the Domain pool width) and must
   never let one request's options leak into the next (compiler,
   passes, engine, worlds, fuel — everything that changes what a
   single answer means). The two records below make that split a type:
   [Service.run_request] combines one [session] with one
   [request_opts] per request, so per-request state cannot be shared
   by construction. The combined [config] record remains the internal
   currency of [Chain]/[Par]/[Experiments]; [of_session_request] is
   its one remaining constructor. *)

type session = {
  ss_jobs : int;                   (* Domains for per-node fan-out *)
  ss_cache : Wcet.Memo.t option;   (* ONE warm cache for the whole session *)
  ss_stream : stream_opts option;  (* execution shape; None = one shard *)
}

type request_opts = {
  ro_compiler : compiler;
  ro_worlds : int option;          (* validation battery size *)
  ro_sim_fuel : int option;        (* simulator step budget *)
  ro_analysis_fuel : Wcet.Fuel.t;  (* part of the analysis-cache key *)
  ro_passes : Vcomp.Pass.options;  (* part of the analysis-cache key *)
  ro_engine : Wcet.Report.engine;  (* part of the analysis-cache key *)
}

let default_session : session =
  { ss_jobs = 1; ss_cache = None; ss_stream = None }

let default_request : request_opts =
  { ro_compiler = Cvcomp;
    ro_worlds = None;
    ro_sim_fuel = None;
    ro_analysis_fuel = Wcet.Fuel.default;
    ro_passes = Vcomp.Pass.default_options;
    ro_engine = Wcet.Report.Ipet }

let session ?(jobs = 1) ?cache ?stream () : session =
  { ss_jobs = max 1 jobs; ss_cache = cache; ss_stream = stream }

let request_opts ?(compiler = Cvcomp) ?worlds ?sim_fuel
    ?(analysis_fuel = Wcet.Fuel.default)
    ?(passes = Vcomp.Pass.default_options) ?(engine = Wcet.Report.Ipet) () :
  request_opts =
  { ro_compiler = compiler;
    ro_worlds = worlds;
    ro_sim_fuel = sim_fuel;
    ro_analysis_fuel = analysis_fuel;
    ro_passes = passes;
    ro_engine = engine }

let of_session_request (s : session) (r : request_opts) : config =
  { jobs = s.ss_jobs;
    cache = s.ss_cache;
    stream = s.ss_stream;
    compiler = r.ro_compiler;
    worlds = r.ro_worlds;
    sim_fuel = r.ro_sim_fuel;
    analysis_fuel = r.ro_analysis_fuel;
    passes = r.ro_passes;
    engine = r.ro_engine }
