(** Register allocation by graph coloring (Chaitin–Briggs with
    conservative move coalescing) — the optimization the paper singles
    out as CompCert's main gain over the pattern process. Integer and
    float pseudo-registers are colored separately against the EABI
    allocatable banks; uncolorable nodes spill to frame slots. *)

type loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int  (** index of an 8-byte spill slot in the frame *)

type allocation = loc option array
(** By register: [None] for a register the function never mentions. *)

val loc_equal : loc -> loc -> bool

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
}

val allocate : Rtl.func -> Liveness.t -> result
(** [allocate f lv] colors [f] from its liveness [lv], which it only
    reads. *)

val location : result -> Rtl.reg -> loc

val verify : Rtl.func -> Liveness.t -> result -> (unit, string) Result.t
(** Independent structural validator: checks, on the liveness it is
    given and only reads, that no two simultaneously-live
    pseudo-registers share a location. Rejects deliberately corrupted
    allocations (mutation-tested). The first conflict in reverse
    postorder, registers ascending, is the [Error]; so is a compared
    register without a class or a location. *)
