(** Instruction selection: mini-C to RTL control-flow graphs (CompCert
    RTLgen style, backwards construction). Expressions evaluate
    strictly left-to-right (fixing the order of volatile reads);
    conditional expressions compile to branches (lazy), matching the
    reference interpreter. *)

exception Error of string

val trans_program : Minic.Ast.program -> Rtl.program
