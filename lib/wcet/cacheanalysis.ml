(* Cache analysis for the split L1 instruction and data caches.

   The analysis classifies every memory line the function can touch by a
   conflict-capacity argument that exactly matches the concrete LRU
   model of [Target.Cache]:

   - collect the set of distinct lines the function may access
     (instruction fetch ranges per block; data accesses resolved through
     the value analysis: stack slots, globals, arrays with interval
     offsets, the float constant pool);
   - a cache set is "safe" when the number of distinct lines mapping to
     it does not exceed the associativity: LRU can then never evict any
     of them during the run, so each such line misses at most once
     "persistent" in aiT terminology — Ferdinand's persistence
     analysis specialised to a single uninterrupted task run, the
     situation of the paper's flight control nodes);
   - lines in over-subscribed sets (or any statically unresolved access)
     are *not classified*: every access is charged a miss.

   The WCET then adds one miss penalty per persistent line (first
   touch), and the per-execution penalties for NC accesses to the block
   costs. Soundness versus the simulator is checked by the test suite on
   random programs. *)

module Asm = Target.Asm

type t = {
  ca_dextra : int array;    (* per-block per-execution data-miss cycles *)
  ca_iextra : int array;    (* per-block per-execution fetch-miss cycles *)
  ca_first_miss : int;      (* one-time cycles: persistent line fills *)
  ca_imprecise : bool;      (* an unresolved access degraded the analysis *)
  ca_dlines : int;          (* distinct data lines (footprint), for reports *)
  ca_ilines : int;          (* distinct code lines *)
  ca_daccesses : int list list array;
  (* per block, per data access in order: the lines it may touch
     ([] = unresolved); used by the must-cache refinement *)
  ca_dpersistent : int -> bool; (* is this data line persistent? *)
}

(* The geometry of the analyzed caches, shared with [Mustcache]. *)
let line_size = Target.Cache.mpc755_l1.Target.Cache.cfg_line
let nsets = Target.Cache.mpc755_l1.Target.Cache.cfg_sets
let assoc = Target.Cache.mpc755_l1.Target.Cache.cfg_assoc

let set_of (line : int) : int =
  let s = line mod nsets in
  if s < 0 then s + nsets else s

let lines_of_range (lo : int) (hi : int) : int list =
  (* inclusive byte range *)
  let first = lo / line_size and last = hi / line_size in
  List.init (last - first + 1) (fun i -> first + i)

(* Data access of one instruction: Some (lo, hi) inclusive byte range(s),
   or None for "no data access", or raises Not_resolved. *)
exception Not_resolved

let access_range (lay : Target.Layout.t) (st : Valueanalysis.state)
    (a : Asm.address) (size : int) : int * int =
  let stack_top = lay.Target.Layout.lay_stack_top in
  match Valueanalysis.region_of_address st a with
  | Valueanalysis.Rslot k -> (stack_top + k, stack_top + k + size - 1)
  | Valueanalysis.Rstack itv ->
    (* clamp to a frame-sized window below the entry stack pointer *)
    let lo = max itv.Interval.lo (-65536) and hi = min itv.Interval.hi 0 in
    if lo > hi then raise Not_resolved
    else (stack_top + lo, stack_top + hi + size - 1)
  | Valueanalysis.Rsym (s, itv) ->
    let base =
      match Hashtbl.find_opt lay.Target.Layout.lay_sym s with
      | Some b -> b
      | None -> raise Not_resolved
    in
    let sym_size =
      Option.value ~default:size
        (Hashtbl.find_opt lay.Target.Layout.lay_sym_size s)
    in
    let lo = max 0 itv.Interval.lo in
    let hi = min (sym_size - size) itv.Interval.hi in
    if lo > hi then (base, base + sym_size - 1) (* degenerate: whole symbol *)
    else (base + lo, base + hi + size - 1)
  | Valueanalysis.Rpool c ->
    let a = Target.Layout.const_addr lay c in
    (a, a + size - 1)
  | Valueanalysis.Runknown -> raise Not_resolved

let data_access (lay : Target.Layout.t) (st : Valueanalysis.state)
    (i : Asm.instr) : (int * int) option =
  match i with
  | Asm.Plwz (_, a) | Asm.Pstw (_, a) -> Some (access_range lay st a 4)
  | Asm.Plfd (_, a) | Asm.Pstfd (_, a) -> Some (access_range lay st a 8)
  | Asm.Plfdc (_, c) ->
    let addr = Target.Layout.const_addr lay c in
    Some (addr, addr + 7)
  | _ -> None

let analyze (cfg : Cfg.t) (va : Valueanalysis.result) (lay : Target.Layout.t) :
  t =
  let nb = Cfg.num_blocks cfg in
  let reachable = Cfg.reverse_postorder cfg in
  let imprecise = ref false in
  (* ---- collect footprints ---- *)
  let dlines : (int, unit) Hashtbl.t = Hashtbl.create 251 in
  let ilines : (int, unit) Hashtbl.t = Hashtbl.create 251 in
  (* per block: data accesses as line lists (computed once) *)
  let block_daccesses : int list list array = Array.make nb [] in
  List.iter
    (fun b ->
       let blk = Cfg.block cfg b in
       (* instruction lines *)
       if blk.Cfg.b_size > 0 then
         List.iter
           (fun l -> Hashtbl.replace ilines l ())
           (lines_of_range blk.Cfg.b_addr (blk.Cfg.b_addr + blk.Cfg.b_size - 1));
       (* data lines *)
       let accs = ref [] in
       Valueanalysis.iter_block va b (fun _ st instr ->
           try
             match data_access lay st instr with
             | Some (lo, hi) ->
               let ls = lines_of_range lo hi in
               List.iter (fun l -> Hashtbl.replace dlines l ()) ls;
               accs := ls :: !accs
             | None -> ()
           with Not_resolved ->
             imprecise := true;
             accs := [] :: !accs (* marker: unresolved access *));
       block_daccesses.(b) <- List.rev !accs)
    reachable;
  (* ---- per-set capacity check ---- *)
  let count_per_set (lines : (int, unit) Hashtbl.t) : int array =
    let counts = Array.make nsets 0 in
    Hashtbl.iter (fun l () -> counts.(set_of l) <- counts.(set_of l) + 1) lines;
    counts
  in
  let dcounts = count_per_set dlines in
  let icounts = count_per_set ilines in
  (* when an access could not be resolved, it may touch any set: degrade
     everything (sound, and loud in the report) *)
  let dset_safe s = (not !imprecise) && dcounts.(s) <= assoc in
  let iset_safe s = icounts.(s) <= assoc in
  let line_persistent_d l = dset_safe (set_of l) in
  let line_persistent_i l = iset_safe (set_of l) in
  (* ---- per-block per-execution penalties ---- *)
  let penalty = Target.Timing.cache_miss_penalty in
  let dextra = Array.make nb 0 in
  let iextra = Array.make nb 0 in
  List.iter
    (fun b ->
       let blk = Cfg.block cfg b in
       (* data: one line per scalar access is the concrete maximum (all
          data is naturally aligned); an unresolved access (empty list
          marker) also touches one line per execution *)
       let d =
         List.fold_left
           (fun acc ls ->
              match ls with
              | [] -> acc + penalty (* unresolved: always miss *)
              | ls ->
                if List.for_all line_persistent_d ls then acc
                else acc + penalty)
           0 block_daccesses.(b)
       in
       dextra.(b) <- d;
       (* instruction fetch: the block spans fixed lines; each
          non-persistent line is re-fetched at worst every execution *)
       let il =
         if blk.Cfg.b_size = 0 then []
         else lines_of_range blk.Cfg.b_addr (blk.Cfg.b_addr + blk.Cfg.b_size - 1)
       in
       iextra.(b) <-
         List.fold_left
           (fun acc l -> if line_persistent_i l then acc else acc + penalty)
           0 il)
    reachable;
  (* ---- one-time first-miss budget ---- *)
  let first_miss =
    let count_pers (lines : (int, unit) Hashtbl.t) (pers : int -> bool) : int =
      Hashtbl.fold (fun l () acc -> if pers l then acc + 1 else acc) lines 0
    in
    penalty
    * (count_pers dlines line_persistent_d + count_pers ilines line_persistent_i)
  in
  { ca_dextra = dextra;
    ca_iextra = iextra;
    ca_first_miss = first_miss;
    ca_imprecise = !imprecise;
    ca_dlines = Hashtbl.length dlines;
    ca_ilines = Hashtbl.length ilines;
    ca_daccesses = block_daccesses;
    ca_dpersistent = line_persistent_d }

(* Refinement by a per-access ALWAYS-HIT classification (from the
   must-cache ageing analysis): an access charged as a miss by the
   capacity argument is dropped when the ageing argument proves it a
   hit. [hits b] lists one boolean per data access of block [b], in
   order. *)
let refine (t : t) (hits : int -> bool list) : t =
  let penalty = Target.Timing.cache_miss_penalty in
  let dextra =
    Array.mapi
      (fun b accs ->
         let hs = hits b in
         let hs =
           if List.length hs = List.length accs then hs
           else List.map (fun _ -> false) accs (* disagreement: no refinement *)
         in
         List.fold_left2
           (fun acc ls hit ->
              match ls with
              | [] -> if hit then acc else acc + penalty
              | ls ->
                if List.for_all t.ca_dpersistent ls || hit then acc
                else acc + penalty)
           0 accs hs)
      t.ca_daccesses
  in
  { t with ca_dextra = dextra }
