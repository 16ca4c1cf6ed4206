(** Concrete set-associative LRU cache — the execution model of the
    MPC755 split L1 caches. The WCET analyzer re-derives the same
    geometry from {!config} and over-approximates the replacement;
    property tests compare the two access by access. *)

type config = {
  cfg_sets : int;
  cfg_assoc : int;
  cfg_line : int;  (** bytes *)
}

val mpc755_l1 : config
(** MPC755 L1: 32 KiB, 8-way, 32-byte lines (128 sets), split I/D. *)

val tiny : config
(** Small configuration for unit tests: 4 sets, 2-way, 16-byte lines. *)

type t = {
  cfg : config;
  sets : int list array;  (** per set: resident line indices, MRU first *)
  mutable hits : int;
  mutable misses : int;
}

val create : config -> t

val set_of : t -> int -> int
(** Set index of a line index. *)

val resident : t -> int -> bool
(** Is this line index currently cached? *)

val touch : t -> int -> bool
(** Touch one line; [true] on miss. Updates LRU order and counters. *)

val access : t -> int -> int -> int
(** [access c addr size] touches every line overlapping
    [\[addr, addr+size)]; returns the number of misses. *)
