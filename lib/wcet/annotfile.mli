(** The annotation file of paper section 3.4: extracted from the
    annotation comments of a compiled program (function-relative
    program counter + text with substituted locations), rendered to and
    parsed from a small textual format. *)

type entry = {
  an_function : string;
  an_offset : int;   (** bytes from function start *)
  an_text : string;  (** with substituted locations *)
}

val entry_equal : entry -> entry -> bool
val extract_func : Target.Asm.func -> entry list
val extract : Target.Asm.program -> entry list
val render : entry list -> string

exception Parse_error of string

val parse : string -> entry list
(** @raise Parse_error on malformed lines. *)
