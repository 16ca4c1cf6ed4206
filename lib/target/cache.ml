(* Concrete set-associative LRU cache — the execution model of the
   MPC755 split L1 caches. The WCET analyzer never runs this code; it
   re-derives the same geometry from [config] and over-approximates the
   LRU replacement (capacity persistence + must-cache ageing), which the
   property tests check against this concrete model access by access. *)

type config = {
  cfg_sets : int;
  cfg_assoc : int;
  cfg_line : int;  (* bytes *)
}

(* MPC755 L1: 32 KiB, 8-way, 32-byte lines (128 sets), split I/D. *)
let mpc755_l1 : config = { cfg_sets = 128; cfg_assoc = 8; cfg_line = 32 }

(* Tiny configuration for unit tests: conflicts within a few accesses. *)
let tiny : config = { cfg_sets = 4; cfg_assoc = 2; cfg_line = 16 }

(* Per set, the resident line indices in [ways.(s).(0 .. fill.(s)-1)],
   MRU first. A set starts as the shared empty array and gets its own
   [cfg_assoc] slots on its first miss, so a run pays only for the sets
   it touches; after that a hit or a miss moves lines in place and
   allocates nothing. Line size and set count are powers of two, so the
   line and set of an address are a shift and a mask. *)
type t = {
  cfg : config;
  line_bits : int;
  set_mask : int;
  ways : int array array;
  fill : int array;
  mutable hits : int;
  mutable misses : int;
}

let log2 (what : string) (n : int) : int =
  let b = ref 0 in
  while 1 lsl !b < n do incr b done;
  if 1 lsl !b <> n then
    invalid_arg
      (Printf.sprintf "Cache.create: %s %d is not a power of two" what n);
  !b

let create (cfg : config) : t =
  { cfg;
    line_bits = log2 "line size" cfg.cfg_line;
    set_mask = (1 lsl log2 "set count" cfg.cfg_sets) - 1;
    ways = Array.make cfg.cfg_sets [||];
    fill = Array.make cfg.cfg_sets 0;
    hits = 0;
    misses = 0 }

let set_of (c : t) (line : int) : int = line land c.set_mask

(* Position of [line] in set [s], or -1. *)
let[@inline] find (c : t) (s : int) (line : int) : int =
  let w = c.ways.(s) and n = c.fill.(s) in
  let i = ref 0 in
  while !i < n && w.(!i) <> line do incr i done;
  if !i < n then !i else -1

let resident (c : t) (line : int) : bool = find c (set_of c line) line >= 0

(* Shift [w.(0 .. k-1)] up one slot and put [line] first. A loop, not
   [Array.blit]: a set has a handful of slots, and blit is a C call. *)
let[@inline] push_front (w : int array) (k : int) (line : int) : unit =
  for j = k downto 1 do w.(j) <- w.(j - 1) done;
  w.(0) <- line

(* Touch one line: returns true on miss. LRU within the set: the line
   moves to the front, and a miss in a full set drops the last one. *)
let touch (c : t) (line : int) : bool =
  let s = set_of c line in
  let i = find c s line in
  if i >= 0 then begin
    c.hits <- c.hits + 1;
    push_front c.ways.(s) i line;
    false
  end
  else begin
    c.misses <- c.misses + 1;
    let n = c.fill.(s) in
    if n = 0 then c.ways.(s) <- Array.make c.cfg.cfg_assoc 0;
    let kept = if n < c.cfg.cfg_assoc then n else n - 1 in
    push_front c.ways.(s) kept line;
    c.fill.(s) <- kept + 1;
    true
  end

(* Access [size] bytes at [addr]; returns the number of lines missed
   (0, 1 or 2 — scalar accesses touch two lines only when straddling a
   line boundary, which the natural alignment of the layout avoids for
   compiled code). *)
let access (c : t) (addr : int) (size : int) : int =
  let first = addr asr c.line_bits in
  let last = (addr + size - 1) asr c.line_bits in
  let n = ref 0 in
  for line = first to last do
    if touch c line then incr n
  done;
  !n
