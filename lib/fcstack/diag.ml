(* Structured diagnostics: the failure currency of the toolchain.

   A certification pipeline over thousands of independent nodes must
   contain failure, not propagate it: one malformed node, one analyzer
   refusal or one diverging fixpoint must cost exactly that node, with
   a record of which node died, at which stage, and why — while the
   rest of the workload completes and stays byte-identical to a run
   without the faulty node. Every catchable failure in the per-node
   chain therefore becomes a [Diag.t] instead of an escaping exception;
   exceptions never cross the [Par] boundary.

   Rendering is deliberately stable and one-line (newlines inside
   messages are flattened), so diagnostics are greppable in CI logs and
   comparable across runs. Diagnostics go to stderr only: stdout stays
   byte-identical across failure configurations. *)

type stage =
  | Parse      (* .mc text -> AST *)
  | Typecheck  (* AST well-formedness *)
  | Compile    (* ACG / codegen / translation validation *)
  | Layout     (* link/load address map *)
  | Sim        (* simulator runs, differential validation *)
  | Wcet       (* static analysis (refusals, diverging fixpoints) *)
  | Cache      (* analysis-store access *)
  | Deadline   (* request deadline expired mid-work: refusal, the
                  answer stopped being useful — NOT retryable (a
                  retry would just expire again) and never cached *)
  | Transport  (* service protocol/socket failure: retryable, no answer *)

type severity =
  | Error
  | Warning

type t = {
  d_node : string;       (* node (or file) the failure belongs to *)
  d_stage : stage;
  d_severity : severity;
  d_message : string;
  d_context : (string * string) list;  (* extra key=value detail *)
}

let stage_name (s : stage) : string =
  match s with
  | Parse -> "parse"
  | Typecheck -> "typecheck"
  | Compile -> "compile"
  | Layout -> "layout"
  | Sim -> "sim"
  | Wcet -> "wcet"
  | Cache -> "cache"
  | Deadline -> "deadline"
  | Transport -> "transport"

let stage_of_name (s : string) : (stage, string) Result.t =
  match s with
  | "parse" -> Ok Parse
  | "typecheck" -> Ok Typecheck
  | "compile" -> Ok Compile
  | "layout" -> Ok Layout
  | "sim" -> Ok Sim
  | "wcet" -> Ok Wcet
  | "cache" -> Ok Cache
  | "deadline" -> Ok Deadline
  | "transport" -> Ok Transport
  | s -> Error (Printf.sprintf "unknown diagnostic stage %S" s)

let severity_name (s : severity) : string =
  match s with Error -> "error" | Warning -> "warning"

let severity_of_name (s : string) : (severity, string) Result.t =
  match s with
  | "error" -> Ok Error
  | "warning" -> Ok Warning
  | s -> Error (Printf.sprintf "unknown diagnostic severity %S" s)

let make ?(severity = Error) ?(context = []) ~(node : string)
    ~(stage : stage) (message : string) : t =
  { d_node = node;
    d_stage = stage;
    d_severity = severity;
    d_message = message;
    d_context = context }

(* One line, always: embedded newlines become "; " so a multi-line
   validation trace still renders as a single greppable record. *)
let flatten (s : string) : string =
  String.concat "; "
    (List.filter
       (fun l -> l <> "")
       (List.map String.trim (String.split_on_char '\n' s)))

let to_string (d : t) : string =
  let ctx =
    match d.d_context with
    | [] -> ""
    | kvs ->
      Printf.sprintf " [%s]"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs))
  in
  Printf.sprintf "%s: %s %s: %s%s" d.d_node (stage_name d.d_stage)
    (severity_name d.d_severity) (flatten d.d_message) ctx

let pp (ppf : Format.formatter) (d : t) : unit =
  Format.pp_print_string ppf (to_string d)

(* ---- wire codec (service protocol) ---- *)

(* Structural, not textual: a diagnostic crossing the service boundary
   must reconstruct to the same value, so [to_string] renders
   identically on both sides — the context list travels as
   comma-separated k:v pairs with both halves percent-encoded. *)
let to_wire (d : t) : string =
  Wire.kv
    [ ("node", d.d_node);
      ("stage", stage_name d.d_stage);
      ("sev", severity_name d.d_severity);
      ("msg", d.d_message);
      ( "ctx",
        String.concat ","
          (List.map
             (fun (k, v) -> Wire.enc k ^ ":" ^ Wire.enc v)
             d.d_context) ) ]

let of_wire (line : string) : (t, string) Result.t =
  let kvs = Wire.parse_kv line in
  let ( let* ) = Result.bind in
  let* node = Wire.kv_find kvs "node" in
  let* stage = Result.bind (Wire.kv_find kvs "stage") stage_of_name in
  let* sev = Result.bind (Wire.kv_find kvs "sev") severity_of_name in
  let* msg = Wire.kv_find kvs "msg" in
  let* ctx_raw = Wire.kv_find kvs "ctx" in
  let ctx =
    if ctx_raw = "" then []
    else
      List.map
        (fun pair ->
           match String.index_opt pair ':' with
           | Some i ->
             ( Wire.dec (String.sub pair 0 i),
               Wire.dec (String.sub pair (i + 1) (String.length pair - i - 1))
             )
           | None -> (Wire.dec pair, ""))
        (String.split_on_char ',' ctx_raw)
  in
  Ok (make ~severity:sev ~context:ctx ~node ~stage msg)

(* Exception -> diagnostic. [stage] is where the chain was when the
   exception escaped; recognizable exceptions override it (a parse
   error is a parse error wherever it was caught, and a type error is
   the checker's rejection, raised on entry by every compiler). *)
let of_exn ~(node : string) ~(stage : stage) (e : exn) : t =
  match e with
  | Minic.Parser.Parse_error msg -> make ~node ~stage:Parse msg
  | Minic.Lexer.Lex_error (msg, pos) ->
    make ~node ~stage:Parse ~context:[ ("pos", string_of_int pos) ] msg
  | Minic.Typecheck.Error e ->
    make ~node ~stage:Typecheck (Minic.Typecheck.error_to_string e)
  | Wcet.Driver.Error msg -> make ~node ~stage:Wcet msg
  | Wcet.Fuel.Expired ->
    make ~node ~stage:Deadline
      "request deadline expired before the analysis finished (refusing to \
       answer late)"
  | Minic.Interp.Out_of_fuel ->
    make ~node ~stage:Sim "simulation step budget exhausted"
  | Minic.Interp.Runtime_error msg -> make ~node ~stage:Sim msg
  | Invalid_argument msg -> make ~node ~stage msg
  | Failure msg -> make ~node ~stage msg
  | e -> make ~node ~stage (Printexc.to_string e)

let capture ~(node : string) ~(stage : stage) (f : unit -> 'a) :
  ('a, t) Result.t =
  match f () with
  | v -> Ok v
  | exception e -> Result.Error (of_exn ~node ~stage e)

(* ---- aggregation over a per-node run ---- *)

let errors_of (results : ('a, t) Result.t list) : t list =
  List.filter_map (function Ok _ -> None | Result.Error d -> Some d) results

(* The whole-run exit-code contract: 0 = every node ok, 1 = some nodes
   failed (the run completed, survivors' output is intact), 2 = total
   failure (nothing usable came out — including the degenerate
   single-node run whose one node failed). *)
let exit_code ~(total : int) ~(failed : int) : int =
  if failed = 0 then 0 else if failed >= total then 2 else 1

(* Stable stderr summary: one line per diagnostic (input order), then a
   count. Callers print it only when something failed, so fault-free
   runs keep a clean stderr. *)
let pp_summary (ppf : Format.formatter) ~(total : int) (diags : t list) : unit =
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) diags;
  let failed = List.length diags in
  if failed > 0 then
    Format.fprintf ppf "%d/%d nodes failed (%d ok)@." failed total
      (total - failed)

let print_summary ~(total : int) (diags : t list) : unit =
  if diags <> [] then Format.eprintf "%a" (fun ppf -> pp_summary ppf ~total) diags
