(** The middle-end pass manager: a declarative pipeline of named
    passes, each enabled by a predicate over {!options}, checked by its
    translation validator when [opt_validate] is set, and measured. GVN, LICM and the dead-code
    fixpoint run under a fuel budget — exhaustion skips work, it never
    miscompiles. The canonical {!spec} string joins the WCET layer's
    content-addressed cache key, since two pipelines can produce
    different assembly for the same source. *)

type options = {
  opt_constprop : bool;
  opt_cse : bool;  (** local, epoch-aware value numbering (loads) *)
  opt_gvn : bool;  (** global value numbering of pure operations *)
  opt_licm : bool; (** loop-invariant code motion *)
  opt_deadcode : bool;
  opt_validate : bool;
      (** run the per-pass differential validators (raises
          {!Validate.Validation_failed} on any behaviour change) *)
  opt_fuel : int;  (** analysis budget for GVN/LICM/deadcode *)
}

val default_fuel : int
val default_options : options
(** Everything on, including GVN and LICM ([-O 2]). *)

val all_off : options
(** No optimization passes ([-O 0]); [opt_validate] on. *)

val level : int -> options
(** [-O] levels: 0 = none, 1 = constprop+cse+deadcode (the classic
    CompCert 1.7 pipeline of the paper), 2 and above = plus GVN-CSE
    and LICM. Every level has [opt_validate] on; a caller that compiles
    for a CLI sets it from [--validate] instead. *)

val spec : options -> string
(** Canonical pipeline spec: enabled pass names comma-separated
    ("none" when empty), with a ["#fuel"] suffix when the fuel budget
    is not the default. Validation is excluded — it never changes the
    generated code. *)

val of_spec : string -> (options, string) result
(** Parse a comma-separated pass list (or ["none"]); unknown names are
    an [Error]. Validation and fuel keep their defaults. *)

type pass = {
  name : string;
  transform : fuel:int -> Rtl.program -> Rtl.program;
  enabled_by : options -> bool;
}

val pipeline : pass list
(** In execution order: constprop, cse, gvn, licm, deadcode. *)

type pass_stats = {
  st_pass : string;
  st_enabled : bool;
  st_rewrites : int; (** instructions changed in place *)
  st_removed : int;  (** instructions that became no-ops *)
  st_hoisted : int;  (** instructions added outside loops by LICM *)
  st_ms : float;
}

val run_pipeline : options -> Rtl.program -> Rtl.program * pass_stats list
(** Run every enabled pass over the selected program, in place;
    returns the program and per-pass stats in pipeline order.
    @raise Validate.Validation_failed if a validator rejects a pass. *)

val aggregate : pass_stats list list -> pass_stats list
(** Sum stats across many compilations, in pipeline order. *)

val pp_stats : Format.formatter -> pass_stats list -> unit
(** One accounting line per pass, for stderr reporting. Deliberately
    omits [st_ms]: the printed form is byte-deterministic (the cram
    suite captures it); wall times are for programmatic consumers. *)
