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
  line_bits : int;  (** [cfg_line = 1 lsl line_bits] *)
  set_mask : int;  (** [cfg_sets - 1] *)
  ways : int array array;
      (** per set [s]: the resident line indices in
          [ways.(s).(0 .. fill.(s)-1)], most recently used first. A set
          shares one empty array until its first miss gives it
          [cfg_assoc] slots of its own; after that no access
          allocates. *)
  fill : int array;  (** per set: how many lines are resident *)
  mutable hits : int;
  mutable misses : int;
}

val create : config -> t
(** An empty cache.
    @raise Invalid_argument unless [cfg_line] and [cfg_sets] are powers
    of two. *)

val set_of : t -> int -> int
(** Set index of a line index. *)

val resident : t -> int -> bool
(** Is this line index currently cached? *)

val touch : t -> int -> bool
(** Touch one line; [true] on miss. Updates LRU order and counters. *)

val access : t -> int -> int -> int
(** [access c addr size] touches every line overlapping
    [\[addr, addr+size)]; returns the number of misses. *)
