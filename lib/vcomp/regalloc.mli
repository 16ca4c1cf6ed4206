(** Register allocation by graph coloring (Chaitin–Briggs with
    conservative move coalescing) — the optimization the paper singles
    out as CompCert's main gain over the pattern process. Integer and
    float pseudo-registers are colored separately against the EABI
    allocatable banks; uncolorable nodes spill to frame slots. *)

type loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int  (** index of an 8-byte spill slot in the frame *)

type allocation = (Rtl.reg, loc) Hashtbl.t

val loc_equal : loc -> loc -> bool

(** The interference graph as built, before coalescing. Every table is
    indexed by register. *)
type graph = {
  g_node : bool array;  (** the register occurs in the function *)
  g_adj : Rtl.reg array array Lazy.t;
      (** interfering registers, ascending; sorted when first forced *)
  g_uses : int array;  (** occurrence count, for spill cost *)
  g_moves : (Rtl.reg * Rtl.reg) list;  (** move-related pairs, same class *)
}

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
  ra_graph : graph;
}

val allocate : Rtl.func -> result
val location : result -> Rtl.reg -> loc

val verify : Rtl.func -> result -> (unit, string) Result.t
(** Independent structural validator: recomputes liveness and checks
    that no two simultaneously-live pseudo-registers share a location.
    Rejects deliberately corrupted allocations (mutation-tested). The
    first conflict in reverse postorder, registers ascending, is the
    [Error]; so is a compared register without a class or a location. *)
