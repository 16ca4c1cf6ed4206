(** Symbol tables of a mini-C program: the one place where a name
    resolves to its declaration, shared by the type checker and both
    compilers.

    A program table holds the globals, arrays and volatiles; a scope
    adds the parameters and locals of one function. Each is built once
    (per program, per function) and answers a lookup in constant time.
    Where a name is declared twice, the first declaration wins, as a
    scan of the declaration list would find it; the type checker
    rejects such programs before it looks a name up. *)

type t
(** Globals, arrays and volatiles of one program. *)

val of_program : Ast.program -> t

val global : t -> Ast.ident -> Ast.typ
(** @raise Not_found when no global scalar has that name. *)

val array : t -> Ast.ident -> Ast.array_def
(** @raise Not_found when no global array has that name. *)

val volatile : t -> Ast.ident -> Ast.typ * Ast.vol_dir
(** @raise Not_found when no volatile has that name. *)

type scope
(** A function's parameters and locals over its program's table. *)

val scope : t -> Ast.func -> scope

val var : scope -> Ast.ident -> Ast.typ
(** @raise Not_found when no parameter or local has that name. *)

(** {1 Static types} *)

val unop_sig : Ast.unop -> Ast.typ * Ast.typ
(** Operand and result type of a unary operator. *)

val binop_sig : Ast.binop -> Ast.typ * Ast.typ * Ast.typ
(** Operand types and result type of a binary operator. *)

val expr_typ : scope -> Ast.expr -> Ast.typ
(** Static type of an expression of a checked program, unchecked: an
    operator's result type, a conditional's first branch's type.
    @raise Not_found on a name the program does not declare. *)
