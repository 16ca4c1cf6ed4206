(** Type checker for mini-C programs, run by every compiler front end.

    It rejects a program, with the first error it finds, unless:
    - no name is declared twice (globals, arrays, volatiles, functions,
      and the parameters and locals of one function);
    - every array has an element and the entry point is defined;
    - every name used is declared, with the kind of its use (local,
      global scalar, array, volatile);
    - every expression is well typed and arrays are indexed by integers;
    - volatile directions are respected: inputs are only read, outputs
      only written;
    - guards are boolean, counted-loop counters and bounds are integers,
      and returns agree with the function's return type;
    - annotation arguments are of scalar numeric type;
    - MISRA-C rule 13.6 holds: a counted loop's counter is neither
      assigned in its body nor reused by a nested counted loop.

    Names resolve through {!Symtab}. *)

type error = {
  err_func : string; (** enclosing function, [""] at program level *)
  err_msg : string;
}

val error_to_string : error -> string

val check_program : Ast.program -> (unit, error) result

val check_program_exn : Ast.program -> unit
(** @raise Invalid_argument on the first error. *)

val expr_type : Symtab.t -> Symtab.scope -> Ast.expr -> (Ast.typ, error) result
(** The type the checker assigns to an expression in a function's scope
    over its program's table, or the first error it finds there
    ([err_func] is [""]). *)
