(** Driver of the COTS baseline compiler in the paper's three
    configurations. *)

type level =
  | Onone        (** no optimization: the certified pattern process *)
  | Onoregalloc  (** optimized without register allocation *)
  | Ofull        (** fully optimized *)

val config_of_level : level -> Codegen.config

val compile :
  ?level:level -> ?contract_fma:bool -> Minic.Ast.program ->
  Target.Asm.program
(** [contract_fma] (default true, as a real -O2 ships) applies only at
    {!Ofull}; disable it to obtain bit-exact source semantics — the
    trace-equivalence tests do, the benchmarks do not, which is the
    paper's certification argument in executable form. *)
