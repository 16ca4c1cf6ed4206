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

type t = {
  cfg : config;
  sets : int list array;  (* per set: resident line indices, MRU first *)
  mutable hits : int;
  mutable misses : int;
}

let create (cfg : config) : t =
  { cfg; sets = Array.make cfg.cfg_sets []; hits = 0; misses = 0 }

let set_of (c : t) (line : int) : int = line mod c.cfg.cfg_sets

let resident (c : t) (line : int) : bool =
  List.mem line c.sets.(set_of c line)

(* Touch one line: returns true on miss. LRU within the set. *)
let touch (c : t) (line : int) : bool =
  let s = set_of c line in
  let ways = c.sets.(s) in
  if List.mem line ways then begin
    c.hits <- c.hits + 1;
    c.sets.(s) <- line :: List.filter (fun l -> l <> line) ways;
    false
  end
  else begin
    c.misses <- c.misses + 1;
    let ways = line :: ways in
    c.sets.(s) <-
      (if List.length ways > c.cfg.cfg_assoc then
         List.filteri (fun i _ -> i < c.cfg.cfg_assoc) ways
       else ways);
    true
  end

(* Access [size] bytes at [addr]; returns the number of lines missed
   (0, 1 or 2 — scalar accesses touch two lines only when straddling a
   line boundary, which the natural alignment of the layout avoids for
   compiled code). *)
let access (c : t) (addr : int) (size : int) : int =
  let first = addr / c.cfg.cfg_line in
  let last = (addr + size - 1) / c.cfg.cfg_line in
  let n = ref 0 in
  for line = first to last do
    if touch c line then incr n
  done;
  !n
