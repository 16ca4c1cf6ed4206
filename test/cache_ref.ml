(* The list-based LRU cache that Target.Cache replaced: per set, the
   resident line indices as a list, MRU first. Kept as the oracle for
   the array-based model (test_target's cache property). *)

type t = {
  cfg : Target.Cache.config;
  sets : int list array;  (* per set: resident line indices, MRU first *)
  mutable hits : int;
  mutable misses : int;
}

let create (cfg : Target.Cache.config) : t =
  { cfg; sets = Array.make cfg.Target.Cache.cfg_sets []; hits = 0; misses = 0 }

let set_of (c : t) (line : int) : int = line mod c.cfg.Target.Cache.cfg_sets

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
      (if List.length ways > c.cfg.Target.Cache.cfg_assoc then
         List.filteri (fun i _ -> i < c.cfg.Target.Cache.cfg_assoc) ways
       else ways);
    true
  end

let access (c : t) (addr : int) (size : int) : int =
  let first = addr / c.cfg.Target.Cache.cfg_line in
  let last = (addr + size - 1) / c.cfg.Target.Cache.cfg_line in
  let n = ref 0 in
  for line = first to last do
    if touch c line then incr n
  done;
  !n
