(** Hash-consed symbolic terms, the key language of value numbering in
    {!Cse} and {!Gvn}. A table lives for one function and hands out
    dense ids. *)

type opkey =
  | Kop of Rtl.operation (** never [Ofloatconst] *)
  | Kfconst of int64     (** a float constant, by its bit pattern *)

type key =
  | Tinit of Rtl.reg        (** a parameter's entry value *)
  | Topaque of Rtl.node     (** the value the node defined last time *)
  | Targ of Rtl.node * int  (** the node's argument [i], last time *)
  | Top of opkey * int list (** a pure operation over term ids *)
  | Tload of Rtl.chunk * Rtl.addressing * int list * int
      (** a load over term ids, under a memory epoch *)

type t

val create : Rtl.walk -> t

val op : Rtl.operation -> int list -> key
(** [Top] of the operation, a float constant by its bits. *)

val id : t -> key -> int
(** The key's id, made on first use. *)

val fresh : t -> int
(** An id no key maps to. *)

val mentioned : t -> Rtl.node -> bool
(** Some term mentions the node. *)

val mentions : t -> int -> Rtl.node -> bool
(** The term mentions the node, directly or through its arguments. *)

val hold : t -> int -> Rtl.reg -> unit
(** Record that some environment bound the register to the term. *)

val holders : t -> int -> Rtl.reg Seq.t
(** Every register recorded by [hold] for the term, ascending. *)
