(** Code generator of the COTS baseline compiler in its three
    certification-relevant configurations (see the implementation
    header and DESIGN.md section 2 for the full pass description). *)

type config = {
  cg_fold : bool;           (** AST constant folding *)
  cg_peephole : bool;
  cg_regstack : bool;       (** register-stack evaluation + fusion *)
  cg_locals_in_regs : bool; (** linear-scan allocation of locals *)
  cg_sda : bool;            (** small-data-area addressing of globals *)
  cg_fmadd : bool;
      (** fused multiply-add contraction: semantics-relaxing (single
          rounding); the trace-equivalence tests disable it, the
          benchmark configuration ships it like a real -O2 *)
}

val o0 : config
(** The certified pattern configuration (paper Listing 1). *)

val o1 : config
(** Optimized without register allocation. *)

val o2 : config
(** Fully optimized. *)

exception Error of string

val gen_program : config -> Minic.Ast.program -> Target.Asm.program
