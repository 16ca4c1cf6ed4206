(* The typed request surface of the compilation service.

   One [Request.t] is everything a client may ask for in one shot:
   source text, an action (compile or analyze, with the per-action
   knobs), and the request-scoped options — compiler, passes, engine,
   worlds, fuel ([Toolchain.request_opts]); session state (cache,
   jobs) deliberately cannot be expressed here. This module is also
   the one home of the CLI name<->variant maps for compilers and
   engines: the CLIs and the wire decoder both parse through it, and
   [of_string (to_string c) = Ok c] is qcheck-pinned
   (test/test_service.ml). *)

type compiler = Toolchain.compiler =
  | Cdefault_o0
  | Cdefault_o1
  | Cdefault_o2
  | Cvcomp

(* Canonical CLI spelling; [of_string] also accepts the long
   [default-O*] names for compatibility with existing scripts. *)
let compiler_to_string (c : compiler) : string =
  match c with
  | Cdefault_o0 -> "o0"
  | Cdefault_o1 -> "o1"
  | Cdefault_o2 -> "o2"
  | Cvcomp -> "vcomp"

let compiler_of_string (s : string) : (compiler, string) Result.t =
  match s with
  | "o0" | "default-O0" -> Ok Cdefault_o0
  | "o1" | "default-O1" -> Ok Cdefault_o1
  | "o2" | "default-O2" -> Ok Cdefault_o2
  | "vcomp" -> Ok Cvcomp
  | _ -> Error (Printf.sprintf "unknown compiler %S (o0|o1|o2|vcomp)" s)

let engine_to_string : Wcet.Report.engine -> string = Wcet.Report.engine_name

let engine_of_string : string -> (Wcet.Report.engine, string) Result.t =
  Wcet.Report.engine_of_string

type action =
  | Compile of {
      ac_dump_rtl : bool;  (* prepend the optimized RTL dump (vcomp) *)
    }
  | Analyze of {
      an_compare : bool;         (* all four configurations *)
      an_simulate : bool;        (* worst observed cycles next to bound *)
      an_annot : string option;  (* annotation-file path; the path is
                                    quoted in the report text, so it is
                                    part of the request *)
    }
  | Ping  (* liveness probe: answers with session stats, runs no
             toolchain work and consumes no request budget *)

type t = {
  rq_name : string;    (* node/file name diagnostics will carry *)
  rq_source : string;  (* mini-C source text — requests carry text,
                          never paths: the daemon has no business in
                          the client's filesystem *)
  rq_action : action;
  rq_opts : Toolchain.request_opts;
  rq_validate : bool;  (* whole-chain differential validation (fcc) *)
  rq_exact : bool;     (* disable semantics-relaxing optimizations *)
  rq_deadline_ms : int option;
  (* wall-clock budget the server may spend before answering: past it,
     the request is refused with a Deadline diag — refusal, never a
     partial or unsound answer, and never cached. Deliberately NOT in
     [rq_opts]: the deadline is about when an answer stops being
     useful, not what the answer is, so it must stay out of every
     cache key. *)
}

let make ?(name = "<request>") ?(action = Compile { ac_dump_rtl = false })
    ?(opts = Toolchain.default_request) ?(validate = false) ?(exact = false)
    ?deadline_ms (source : string) : t =
  { rq_name = name;
    rq_source = source;
    rq_action = action;
    rq_opts = opts;
    rq_validate = validate;
    rq_exact = exact;
    rq_deadline_ms = deadline_ms }

(* ---- wire codec ------------------------------------------------------ *)

let bool_bit (b : bool) : string = if b then "1" else "0"

let bit_bool (s : string) : (bool, string) Result.t =
  match s with
  | "1" -> Ok true
  | "0" -> Ok false
  | s -> Error (Printf.sprintf "bad boolean %S (0|1)" s)

(* Pass options travel field-by-field (NOT via [Pass.spec], which
   canonicalizes away [opt_validate] and non-default fuel): the decoded
   record must equal the original exactly. *)
let passes_fields (o : Vcomp.Pass.options) : (string * string) list =
  [ ("pcp", bool_bit o.Vcomp.Pass.opt_constprop);
    ("pcse", bool_bit o.Vcomp.Pass.opt_cse);
    ("pgvn", bool_bit o.Vcomp.Pass.opt_gvn);
    ("plicm", bool_bit o.Vcomp.Pass.opt_licm);
    ("pdc", bool_bit o.Vcomp.Pass.opt_deadcode);
    ("pval", bool_bit o.Vcomp.Pass.opt_validate);
    ("pfuel", string_of_int o.Vcomp.Pass.opt_fuel) ]

let passes_of_fields (kvs : (string * string) list) :
  (Vcomp.Pass.options, string) Result.t =
  let ( let* ) = Result.bind in
  let bit k = Result.bind (Wire.kv_find kvs k) bit_bool in
  let* cp = bit "pcp" in
  let* cse = bit "pcse" in
  let* gvn = bit "pgvn" in
  let* licm = bit "plicm" in
  let* dc = bit "pdc" in
  let* v = bit "pval" in
  let* fuel = Wire.kv_int kvs "pfuel" in
  Ok
    { Vcomp.Pass.opt_constprop = cp;
      opt_cse = cse;
      opt_gvn = gvn;
      opt_licm = licm;
      opt_deadcode = dc;
      opt_validate = v;
      opt_fuel = fuel }

let opt_int (v : int option) : string =
  match v with None -> "-" | Some n -> string_of_int n

let int_opt (s : string) : (int option, string) Result.t =
  if s = "-" then Ok None
  else
    match int_of_string_opt s with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "bad optional integer %S" s)

(* Header line (k=v), then the raw source bytes. *)
let to_wire (rq : t) : string =
  let action_fields =
    match rq.rq_action with
    | Compile { ac_dump_rtl } ->
      [ ("action", "compile"); ("dump-rtl", bool_bit ac_dump_rtl) ]
    | Analyze { an_compare; an_simulate; an_annot } ->
      [ ("action", "analyze");
        ("compare", bool_bit an_compare);
        ("simulate", bool_bit an_simulate);
        ("annot", Option.value an_annot ~default:"-") ]
    | Ping -> [ ("action", "ping") ]
  in
  let o = rq.rq_opts in
  let fuel = o.Toolchain.ro_analysis_fuel in
  Wire.kv
    ([ ("v", "1"); ("name", rq.rq_name) ]
     @ action_fields
     @ [ ("compiler", compiler_to_string o.Toolchain.ro_compiler);
         ("engine", engine_to_string o.Toolchain.ro_engine);
         ("worlds", opt_int o.Toolchain.ro_worlds);
         ("sim-fuel", opt_int o.Toolchain.ro_sim_fuel);
         ("fwiden", string_of_int fuel.Wcet.Fuel.fl_widen);
         ("fsimplex", string_of_int fuel.Wcet.Fuel.fl_simplex);
         ("fbb", string_of_int fuel.Wcet.Fuel.fl_bb_nodes);
         ("fomt", string_of_int fuel.Wcet.Fuel.fl_omt);
         ("validate", bool_bit rq.rq_validate);
         ("exact", bool_bit rq.rq_exact);
         ("deadline", opt_int rq.rq_deadline_ms) ]
     @ passes_fields o.Toolchain.ro_passes)
  ^ "\n" ^ rq.rq_source

let of_wire (payload : string) : (t, string) Result.t =
  let header, source =
    match String.index_opt payload '\n' with
    | None -> (payload, "")
    | Some i ->
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )
  in
  let kvs = Wire.parse_kv header in
  let ( let* ) = Result.bind in
  let* v = Wire.kv_find kvs "v" in
  if v <> "1" then Error (Printf.sprintf "unsupported request version %S" v)
  else
    let* name = Wire.kv_find kvs "name" in
    let* action_name = Wire.kv_find kvs "action" in
    let* action =
      match action_name with
      | "compile" ->
        let* dump = Result.bind (Wire.kv_find kvs "dump-rtl") bit_bool in
        Ok (Compile { ac_dump_rtl = dump })
      | "analyze" ->
        let* compare = Result.bind (Wire.kv_find kvs "compare") bit_bool in
        let* simulate = Result.bind (Wire.kv_find kvs "simulate") bit_bool in
        let* annot = Wire.kv_find kvs "annot" in
        Ok
          (Analyze
             { an_compare = compare;
               an_simulate = simulate;
               an_annot = (if annot = "-" then None else Some annot) })
      | "ping" -> Ok Ping
      | a -> Error (Printf.sprintf "unknown action %S (compile|analyze|ping)" a)
    in
    let* compiler =
      Result.bind (Wire.kv_find kvs "compiler") compiler_of_string
    in
    let* engine = Result.bind (Wire.kv_find kvs "engine") engine_of_string in
    let* worlds = Result.bind (Wire.kv_find kvs "worlds") int_opt in
    let* sim_fuel = Result.bind (Wire.kv_find kvs "sim-fuel") int_opt in
    let* fl_widen = Wire.kv_int kvs "fwiden" in
    let* fl_simplex = Wire.kv_int kvs "fsimplex" in
    let* fl_bb_nodes = Wire.kv_int kvs "fbb" in
    let* fl_omt = Wire.kv_int kvs "fomt" in
    let* validate = Result.bind (Wire.kv_find kvs "validate") bit_bool in
    let* exact = Result.bind (Wire.kv_find kvs "exact") bit_bool in
    (* lenient: a v=1 peer from before deadlines simply omits the
       field, which means "no deadline" — not a protocol error *)
    let* deadline_ms =
      match List.assoc_opt "deadline" kvs with
      | None -> Ok None
      | Some s -> int_opt s
    in
    let* passes = passes_of_fields kvs in
    Ok
      { rq_name = name;
        rq_source = source;
        rq_action = action;
        rq_opts =
          { Toolchain.ro_compiler = compiler;
            ro_worlds = worlds;
            ro_sim_fuel = sim_fuel;
            ro_analysis_fuel =
              { Wcet.Fuel.fl_widen; fl_simplex; fl_bb_nodes; fl_omt };
            ro_passes = passes;
            ro_engine = engine };
        rq_validate = validate;
        rq_exact = exact;
        rq_deadline_ms = deadline_ms }
