(** Structured diagnostics: the failure currency of the toolchain.

    Every catchable failure in the per-node chain becomes a [Diag.t]
    instead of an escaping exception — exceptions never cross the
    {!Par} boundary, and [--fail-fast] is a client-side choice to stop
    running and emitting after the first failed input. Rendering is
    stable and one-line; diagnostics and summaries go to stderr only,
    so stdout stays byte-identical across failure configurations. *)

type stage =
  | Parse      (** [.mc] text → AST *)
  | Typecheck  (** AST well-formedness *)
  | Compile    (** ACG / codegen / translation validation *)
  | Layout     (** link/load address map *)
  | Sim        (** simulator runs, differential validation *)
  | Wcet       (** static analysis (refusals, diverged fixpoints) *)
  | Cache      (** analysis-store access *)
  | Deadline   (** request deadline expired mid-work: refusal (the
                   answer stopped being useful), never cached, not
                   retryable *)
  | Transport  (** service protocol/socket failure: the request was
                   never answered — retryable, unlike a refusal *)

type severity =
  | Error
  | Warning

type t = {
  d_node : string;  (** node (or file) the failure belongs to *)
  d_stage : stage;
  d_severity : severity;
  d_message : string;
  d_context : (string * string) list;  (** extra key=value detail *)
}

val stage_name : stage -> string
val severity_name : severity -> string

val stage_of_name : string -> (stage, string) Result.t
(** Inverse of {!stage_name} (wire decoding). *)

val severity_of_name : string -> (severity, string) Result.t
(** Inverse of {!severity_name} (wire decoding). *)

val make :
  ?severity:severity -> ?context:(string * string) list -> node:string ->
  stage:stage -> string -> t

val to_string : t -> string
(** Stable one-line rendering:
    ["<node>: <stage> <severity>: <message> [k=v, ...]"] — embedded
    newlines are flattened to ["; "]. *)

val pp : Format.formatter -> t -> unit

val to_wire : t -> string
(** One-line structural encoding for the service protocol: the decoded
    value is equal to the original (so {!to_string} renders identically
    on both sides of the wire). *)

val of_wire : string -> (t, string) Result.t
(** Inverse of {!to_wire}; [Error] on missing fields or unknown
    stage/severity names. *)

val of_exn : node:string -> stage:stage -> exn -> t
(** Convert an escaped exception. [stage] is where the chain was when
    it escaped; recognizable exceptions override it: parse errors,
    [Minic.Typecheck.Error] (the [Typecheck] stage, with
    [Minic.Typecheck.error_to_string] as the message — every compiler
    checks its input on entry, so this is the one typecheck of a
    compile), analyzer refusals, simulator fuel/runtime errors. *)

val capture : node:string -> stage:stage -> (unit -> 'a) -> ('a, t) Result.t
(** Run [f], turning any exception into a diagnostic via {!of_exn}. *)

val errors_of : ('a, t) Result.t list -> t list
(** The diagnostics of the failed entries, in input order. *)

val exit_code : total:int -> failed:int -> int
(** The whole-run contract: 0 = all nodes ok; 1 = some failed (the run
    completed, survivors intact); 2 = total failure (every node failed
    — including a failing single-node run). *)

val pp_summary : Format.formatter -> total:int -> t list -> unit
(** One line per diagnostic, then ["<k>/<n> nodes failed (<m> ok)"]. *)

val print_summary : total:int -> t list -> unit
(** {!pp_summary} on stderr; prints nothing when [diags] is empty. *)
