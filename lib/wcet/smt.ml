(* Optimization-modulo-theory WCET engine (after Henry, Asavoae,
   Monniaux & Maïza, "How to compute worst-case execution time by
   optimization modulo theory and a clever encoding of program
   semantics").

   The engine searches the IPET engine's own paths ([Ipet.sweep]) under
   *semantic* information the structural ILP cannot see: "conflict
   cuts" over pairs of branch edges whose guarding conditions cannot
   both hold in one execution. The worst case is then the costliest
   path that takes no two edges of one cut, found by branch & bound
   over the longest-path pass (Henry et al.'s view of WCET as a search
   over feasible paths). No external SMT/OMT solver is involved; the
   "theory" part is the cut derivation below. The root of the search is
   the IPET engine's pass itself, so a cut-free function costs nothing
   more than IPET.

   Cut derivation — a deliberately small but *sound* theory:

   The branch condition of a [Pbc] is the CR0 outcome of the nearest
   preceding compare ([Pcmpw]/[Pcmpwi]/[Pfcmpu] are the only CR0
   writers), found by scanning backward through unique-predecessor
   chains. Compare operands are traced to symbolic *origins*: a stack
   or global memory location ([Plwz]/[Plfd] from a resolvable address),
   an integer constant ([Paddi r, 0, k] / [Pcmpwi] immediate), or a
   float constant ([Plfdc]); register moves are followed, anything else
   is unknown and blocks the cut. Loads additionally forward through
   the nearest same-location store in the chain (the stream covers
   every instruction executed between that store and the load, so the
   stored value *is* the loaded value) — without this, the -O0 idiom
   of materializing constants through a reused spill slot would hide
   every comparison against a constant.

   Two branch-edge tests conflict when they constrain the *same stable
   value* in incompatible ways:
     - same predicate (equal normalized operand origins), disjoint
       CR-outcome sets — e.g. [x > c] taken and [x > c] not-taken;
     - interval disjointness against constants — e.g. [x < c1] and
       [x > c2] with c1 <= c2 (closed/open endpoints handled exactly;
       float tests whose outcome set admits "unordered" are skipped).

   Soundness side-conditions, checked per cut:
     - both branch blocks and every traced load lie outside all loop
       bodies, so each executes at most once per run (in a reducible
       CFG a block on any cycle belongs to a natural loop);
     - every traced memory location is *stable*: no indirect stores in
       the function, and at most one store overlaps the location — that
       store's block must be outside loops and dominate (or precede
       within) each load, so both tests observe the same value.

   The cuts only ever *exclude* paths no real execution takes, so the
   constrained optimum stays a sound upper bound; and because every
   path the search admits is one the IPET pass admits, the bound can
   only tighten: omt <= ipet by construction. *)

module Asm = Target.Asm

type result = {
  smt_wcet : int;        (* OMT bound, incl. cache first-miss budget *)
  smt_ipet_wcet : int;   (* base IPET bound (same paths, no cuts) *)
  smt_exact : bool;      (* the optimum, not a fallback bound *)
  smt_flow_cycles : int; (* OMT bound without the first-miss budget *)
  smt_cuts : int;        (* conflict cuts in the encoding *)
  smt_queries : int;     (* search nodes swept after the root *)
}

(* ---------------------------------------------------------------- *)
(* Symbolic operand origins                                          *)
(* ---------------------------------------------------------------- *)

type location =
  | Lstack of int32          (* sp-relative slot *)
  | Lglob of string * int32  (* absolute symbol + displacement *)
  | Lsda of string * int32   (* small-data-area symbol + displacement *)

type operand =
  | Oload of location * int * int  (* location, load block, load index *)
  | Oconst of int32
  | Oconstf of float

(* Origin modulo the load site — two loads of one location denote the
   same value once stability is established. *)
type okey = Kload of location | Kint of int32 | Kflt of float

let okey_of (o : operand) : okey =
  match o with
  | Oload (l, _, _) -> Kload l
  | Oconst c -> Kint c
  | Oconstf f -> Kflt f

let loc_of_addr (a : Asm.address) : location option =
  match a with
  | Asm.Aind (b, off) when b = Asm.sp -> Some (Lstack off)
  | Asm.Aind _ | Asm.Aindx _ -> None  (* unresolved indirect access *)
  | Asm.Aglob (s, off) -> Some (Lglob (s, off))
  | Asm.Asda (s, off) -> Some (Lsda (s, off))

(* Byte-interval overlap; Lglob and Lsda ranges of one symbol are
   conservatively treated as aliased. *)
let overlaps (l1 : location) (n1 : int) (l2 : location) (n2 : int) : bool =
  let span o n =
    let o = Int64.of_int32 o in
    (o, Int64.add o (Int64.of_int n))
  in
  let inter (a, b) (c, d) = a < d && c < b in
  match l1, l2 with
  | Lstack o1, Lstack o2 -> inter (span o1 n1) (span o2 n2)
  | (Lglob (s1, o1) | Lsda (s1, o1)), (Lglob (s2, o2) | Lsda (s2, o2)) ->
    s1 = s2 && inter (span o1 n1) (span o2 n2)
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Backward instruction stream                                       *)
(* ---------------------------------------------------------------- *)

(* Blocks from [b] backwards through *unique* predecessors: every
   instruction in the stream executes on each run reaching [b], in
   stream order, immediately before [b]'s terminator. *)
let chain_blocks (preds : int list array) (b : int) : int list =
  let visited = Hashtbl.create 8 in
  let rec go b =
    if Hashtbl.mem visited b then []
    else begin
      Hashtbl.add visited b ();
      b
      ::
      (match List.sort_uniq compare preds.(b) with
       | [ p ] -> go p
       | _ -> [])
    end
  in
  go b

(* Flattened backward stream: element 0 is the last instruction of
   [b], walking towards the function entry. *)
let back_stream (cfg : Cfg.t) (preds : int list array) (b : int) :
  (int * int * Asm.instr) array =
  chain_blocks preds b
  |> List.concat_map (fun blk ->
    let instrs = (Cfg.block cfg blk).Cfg.b_instrs in
    List.init (Array.length instrs) (fun k ->
      let i = Array.length instrs - 1 - k in
      (blk, i, instrs.(i))))
  |> Array.of_list

(* Nearest preceding compare — the CR0 value [Pbc] tests, since the
   three compares are the only CR0 writers. *)
let rec find_compare (stream : (int * int * Asm.instr) array) (pos : int) :
  (int * Asm.instr) option =
  if pos >= Array.length stream then None
  else
    let _, _, i = stream.(pos) in
    match i with
    | Asm.Pcmpw _ | Asm.Pcmpwi _ | Asm.Pfcmpu _ -> Some (pos, i)
    | _ -> find_compare stream (pos + 1)

(* Store-to-load forwarding inside the chain: the nearest store whose
   bytes may touch the loaded location decides the loaded value (all
   instructions between the two are in the stream, so nothing else can
   intervene). [Fexact] = same location, same size: the stored register
   forwards. Any partial or unresolvable overlap blocks forwarding and
   the load keeps its own identity — which the global stability check
   must then justify. Volatile actuator writes count against their
   symbol. *)
type fwd = Fnone | Fblocked | Fexact of int * Asm.reg

let rec nearest_store (stream : (int * int * Asm.instr) array) (pos : int)
    (loc : location) (len : int) : fwd =
  if pos >= Array.length stream then Fnone
  else
    let _, _, i = stream.(pos) in
    let store src a slen =
      match loc_of_addr a with
      | Some sl when sl = loc && slen = len -> Fexact (pos, src)
      | Some sl when overlaps sl slen loc len -> Fblocked
      | Some _ -> nearest_store stream (pos + 1) loc len
      | None -> Fblocked  (* indirect store: may overlap *)
    in
    match i with
    | Asm.Pstw (s, a) -> store (Asm.IR s) a 4
    | Asm.Pstfd (s, a) -> store (Asm.FR s) a 8
    | Asm.Pouti (sym, _) | Asm.Poutf (sym, _) ->
      if overlaps (Lglob (sym, 0l)) 8 loc len then Fblocked
      else nearest_store stream (pos + 1) loc len
    | _ -> nearest_store stream (pos + 1) loc len

(* Trace an integer register backward from stream position [pos] to
   its origin; [None] when the defining instruction is not one we can
   interpret (or the def site is out of the unique-predecessor chain). *)
let rec trace_ireg (stream : (int * int * Asm.instr) array) (pos : int)
    (r : int) : operand option =
  if pos >= Array.length stream then None
  else
    let blk, idx, i = stream.(pos) in
    match i with
    | Asm.Plwz (d, a) when d = r ->
      (match loc_of_addr a with
       | None -> None
       | Some loc ->
         let direct = Some (Oload (loc, blk, idx)) in
         (match nearest_store stream (pos + 1) loc 4 with
          | Fexact (q, Asm.IR s) ->
            (match trace_ireg stream (q + 1) s with
             | Some o -> Some o
             | None -> direct)
          | Fexact _ | Fblocked | Fnone -> direct))
    | Asm.Paddi (d, base, k) when d = r ->
      if base = 0 then Some (Oconst k) else None
    | Asm.Pmr (d, s) when d = r -> trace_ireg stream (pos + 1) s
    | i when Asm.idefs_mask i land Asm.bit r <> 0 -> None
    | _ -> trace_ireg stream (pos + 1) r

let rec trace_freg (stream : (int * int * Asm.instr) array) (pos : int)
    (r : int) : operand option =
  if pos >= Array.length stream then None
  else
    let blk, idx, i = stream.(pos) in
    match i with
    | Asm.Plfd (d, a) when d = r ->
      (match loc_of_addr a with
       | None -> None
       | Some loc ->
         let direct = Some (Oload (loc, blk, idx)) in
         (match nearest_store stream (pos + 1) loc 8 with
          | Fexact (q, Asm.FR s) ->
            (match trace_freg stream (q + 1) s with
             | Some o -> Some o
             | None -> direct)
          | Fexact _ | Fblocked | Fnone -> direct))
    | Asm.Plfdc (d, c) when d = r ->
      if Float.is_nan c then None else Some (Oconstf c)
    | Asm.Pfmr (d, s) when d = r -> trace_freg stream (pos + 1) s
    | i when Asm.fdefs_mask i land Asm.bit r <> 0 -> None
    | _ -> trace_freg stream (pos + 1) r

(* ---------------------------------------------------------------- *)
(* Branch-edge tests                                                 *)
(* ---------------------------------------------------------------- *)

(* Compare outcome; [Runo] = unordered (NaN operand, floats only). *)
type rel = Rlt | Rgt | Req | Runo

type test = {
  t_block : int;       (* the branch block *)
  t_kind : Cfg.edge_kind; (* the direction of its edge *)
  t_left : operand;
  t_right : operand;
  t_float : bool;
  t_rels : rel list;   (* outcomes under which this edge is taken *)
}

let rel_of_bit (b : Asm.crbit) : rel =
  match b with Asm.CRlt -> Rlt | Asm.CRgt -> Rgt | Asm.CReq -> Req

(* Outcomes selecting the taken edge of [Pbc c]. For the fall edge,
   negate the condition. A superset is always sound here — an edge's
   set only ever *excuses* it from cuts. *)
let taken_rels ~(float_ : bool) (c : Asm.branch_cond) : rel list =
  let universe = if float_ then [ Rlt; Rgt; Req; Runo ] else [ Rlt; Rgt; Req ] in
  match c with
  | Asm.BT b -> [ rel_of_bit b ]
  | Asm.BF b -> List.filter (fun r -> r <> rel_of_bit b) universe

let mirror_rels (rels : rel list) : rel list =
  List.map (function Rlt -> Rgt | Rgt -> Rlt | r -> r) rels

(* Tests for the out-edges of branch block [b], provided the block is
   outside all loops, its condition resolves to traced origins, and
   every traced load is itself outside all loops. *)
let tests_of_block (cfg : Cfg.t) (preds : int list array)
    (in_loop : bool array) (b : int) : test list =
  let instrs = (Cfg.block cfg b).Cfg.b_instrs in
  let len = Array.length instrs in
  if len = 0 || in_loop.(b) then []
  else
    match instrs.(len - 1) with
    | Asm.Pbc (c, _) ->
      let stream = back_stream cfg preds b in
      (* position 0 is the Pbc itself *)
      let resolved =
        match find_compare stream 1 with
        | Some (pos, Asm.Pcmpw (a, b')) ->
          (match trace_ireg stream (pos + 1) a, trace_ireg stream (pos + 1) b' with
           | Some l, Some r -> Some (l, r, false)
           | _ -> None)
        | Some (pos, Asm.Pcmpwi (a, imm)) ->
          (match trace_ireg stream (pos + 1) a with
           | Some l -> Some (l, Oconst imm, false)
           | None -> None)
        | Some (pos, Asm.Pfcmpu (a, b')) ->
          (match trace_freg stream (pos + 1) a, trace_freg stream (pos + 1) b' with
           | Some l, Some r -> Some (l, r, true)
           | _ -> None)
        | _ -> None
      in
      (match resolved with
       | None -> []
       | Some (left, right, float_) ->
         let load_blocks =
           List.filter_map
             (function Oload (_, blk, _) -> Some blk | _ -> None)
             [ left; right ]
         in
         if not (List.for_all (fun blk -> not in_loop.(blk)) load_blocks)
         then []
         else
           List.map
             (fun (_, kind) ->
                let cond =
                  match kind with
                  | Cfg.Etaken -> c
                  | Cfg.Efall -> Asm.negate_cond c
                in
                { t_block = b;
                  t_kind = kind;
                  t_left = left;
                  t_right = right;
                  t_float = float_;
                  t_rels = taken_rels ~float_ cond })
             (Cfg.successors cfg b))
    | _ -> []

(* ---------------------------------------------------------------- *)
(* Conflict detection                                                *)
(* ---------------------------------------------------------------- *)

(* Operand order normalized (smaller key left; mirroring the outcome
   set swaps lt/gt), so [cmpw a, b] and [cmpw b, a] tests unify. *)
let normalized_pred (t : test) : okey * okey * rel list =
  let kl = okey_of t.t_left and kr = okey_of t.t_right in
  if compare kl kr <= 0 then (kl, kr, List.sort compare t.t_rels)
  else (kr, kl, List.sort compare (mirror_rels t.t_rels))

let disjoint_sets (a : rel list) (b : rel list) : bool =
  not (List.exists (fun x -> List.mem x b) a)

let same_pred_conflict (t1 : test) (t2 : test) : bool =
  t1.t_float = t2.t_float
  &&
  let a1, b1, r1 = normalized_pred t1 and a2, b2, r2 = normalized_pred t2 in
  a1 = a2 && b1 = b2 && disjoint_sets r1 r2

(* Intervals with explicit strictness, so int and float endpoints need
   no +-1 arithmetic (and no overflow cases). *)
type 'a interval = {
  iv_lo : ('a * bool) option;  (* bool: strict *)
  iv_hi : ('a * bool) option;
}

let interval_of_rels (rels : rel list) (c : 'a) : 'a interval option =
  match List.sort compare rels with
  | [ Rlt ] -> Some { iv_lo = None; iv_hi = Some (c, true) }
  | [ Rgt ] -> Some { iv_lo = Some (c, true); iv_hi = None }
  | [ Req ] -> Some { iv_lo = Some (c, false); iv_hi = Some (c, false) }
  | [ Rlt; Req ] -> Some { iv_lo = None; iv_hi = Some (c, false) }
  | [ Rgt; Req ] -> Some { iv_lo = Some (c, false); iv_hi = None }
  | _ -> None

let intervals_disjoint (i1 : 'a interval) (i2 : 'a interval) : bool =
  let separated hi lo =
    match hi, lo with
    | Some (h, hs), Some (l, ls) ->
      compare h l < 0 || (compare h l = 0 && (hs || ls))
    | _ -> false
  in
  separated i1.iv_hi i2.iv_lo || separated i2.iv_hi i1.iv_lo

(* View a test as [location REL constant] (variable on the left). *)
let int_interval (t : test) : (location * int32 interval) option =
  if t.t_float then None
  else
    match t.t_left, t.t_right with
    | Oload (l, _, _), Oconst c ->
      Option.map (fun iv -> (l, iv)) (interval_of_rels t.t_rels c)
    | Oconst c, Oload (l, _, _) ->
      Option.map (fun iv -> (l, iv)) (interval_of_rels (mirror_rels t.t_rels) c)
    | _ -> None

let float_interval (t : test) : (location * float interval) option =
  if (not t.t_float) || List.mem Runo t.t_rels then None
  else
    match t.t_left, t.t_right with
    | Oload (l, _, _), Oconstf c ->
      Option.map (fun iv -> (l, iv)) (interval_of_rels t.t_rels c)
    | Oconstf c, Oload (l, _, _) ->
      Option.map (fun iv -> (l, iv)) (interval_of_rels (mirror_rels t.t_rels) c)
    | _ -> None

let interval_conflict (t1 : test) (t2 : test) : bool =
  (match int_interval t1, int_interval t2 with
   | Some (l1, i1), Some (l2, i2) -> l1 = l2 && intervals_disjoint i1 i2
   | _ -> false)
  ||
  (match float_interval t1, float_interval t2 with
   | Some (l1, i1), Some (l2, i2) -> l1 = l2 && intervals_disjoint i1 i2
   | _ -> false)

(* ---------------------------------------------------------------- *)
(* Location stability                                                *)
(* ---------------------------------------------------------------- *)

type store = {
  s_blk : int;
  s_idx : int;
  s_loc : location option;  (* None: indirect store, wildcard *)
  s_len : int;
}

let collect_stores (cfg : Cfg.t) : store list =
  let acc = ref [] in
  Array.iter
    (fun (blk : Cfg.block) ->
       Array.iteri
         (fun idx i ->
            match i with
            | Asm.Pstw (_, a) ->
              acc :=
                { s_blk = blk.Cfg.b_id; s_idx = idx;
                  s_loc = loc_of_addr a; s_len = 4 }
                :: !acc
            | Asm.Pstfd (_, a) ->
              acc :=
                { s_blk = blk.Cfg.b_id; s_idx = idx;
                  s_loc = loc_of_addr a; s_len = 8 }
                :: !acc
            | _ -> ())
         blk.Cfg.b_instrs)
    cfg.Cfg.c_blocks;
  !acc

(* A location is stable for a set of read sites when every read is
   guaranteed to observe one same value: no wildcard stores anywhere,
   and at most one overlapping store, executing at most once (outside
   loops) and before every read (dominating its block, or preceding it
   within the same block). *)
let stable_for (stores : store list) ~(wild : bool) (dom : Dom.t)
    (in_loop : bool array) (loc : location) (len : int)
    (reads : (int * int) list) : bool =
  (not wild)
  &&
  match
    List.filter
      (fun s ->
         match s.s_loc with
         | Some sl -> overlaps sl s.s_len loc len
         | None -> false)
      stores
  with
  | [] -> true
  | [ s ] ->
    (not in_loop.(s.s_blk))
    && List.for_all
         (fun (rb, ri) ->
            if s.s_blk = rb then s.s_idx < ri
            else Dom.dominates dom s.s_blk rb)
         reads
  | _ -> false

let pair_stable (stores : store list) ~(wild : bool) (dom : Dom.t)
    (in_loop : bool array) (t1 : test) (t2 : test) : bool =
  let loads t =
    let len = if t.t_float then 8 else 4 in
    List.filter_map
      (function Oload (l, b, i) -> Some ((l, len), (b, i)) | _ -> None)
      [ t.t_left; t.t_right ]
  in
  let all = loads t1 @ loads t2 in
  let keys = List.sort_uniq compare (List.map fst all) in
  List.for_all
    (fun (loc, len) ->
       let reads =
         List.filter_map
           (fun (k, r) -> if k = (loc, len) then Some r else None)
           all
       in
       stable_for stores ~wild dom in_loop loc len reads)
    keys

(* ---------------------------------------------------------------- *)
(* Cut derivation                                                    *)
(* ---------------------------------------------------------------- *)

type cut = (int * Cfg.edge_kind) * (int * Cfg.edge_kind)

let derive_cuts (cfg : Cfg.t) (dom : Dom.t) (loops : Loops.t) : cut list =
  let preds = Cfg.predecessors cfg in
  let nb = Cfg.num_blocks cfg in
  let in_loop = Array.make nb false in
  List.iter
    (fun l -> List.iter (fun b -> in_loop.(b) <- true) l.Loops.l_body)
    loops.Loops.loops;
  let stores = collect_stores cfg in
  let wild = List.exists (fun s -> s.s_loc = None) stores in
  let tests =
    List.concat_map (tests_of_block cfg preds in_loop)
      (Cfg.reverse_postorder cfg)
    |> Array.of_list
  in
  let seen = Hashtbl.create 16 in
  let cuts = ref [] in
  for i = 0 to Array.length tests - 1 do
    for k = i + 1 to Array.length tests - 1 do
      let t1 = tests.(i) and t2 = tests.(k) in
      if
        t1.t_block <> t2.t_block
        && (same_pred_conflict t1 t2 || interval_conflict t1 t2)
        && pair_stable stores ~wild dom in_loop t1 t2
      then begin
        let e1 = (t1.t_block, t1.t_kind) and e2 = (t2.t_block, t2.t_kind) in
        let cut = (min e1 e2, max e1 e2) in
        if not (Hashtbl.mem seen cut) then begin
          Hashtbl.add seen cut ();
          cuts := cut :: !cuts
        end
      end
    done
  done;
  !cuts

(* ---------------------------------------------------------------- *)
(* The search                                                        *)
(* ---------------------------------------------------------------- *)

type bound = { flow : int; exact : bool; nodes : int }

(* Best-first branch & bound. A node is the pass with some cut edges
   forbidden; its value bounds every path it allows. The costliest open
   node is taken first: if its argmax path keeps every cut, no open node
   can beat it. Otherwise the path takes both edges of a cut, and each
   child forbids one of them — every path that keeps the cut survives
   in one child. *)
let search ?(fuel = Fuel.default) (root : Ipet.sweep) (cuts : cut list) :
  bound =
  let budget = ref fuel.Fuel.fl_bb_nodes and nodes = ref 0 in
  let broken path =
    List.find_opt (fun (a, b) -> List.mem a path && List.mem b path) cuts
  in
  (* open nodes, costliest first; ties keep their arrival order *)
  let rec insert ((v, _) as n) = function
    | ((v', _) as n') :: rest when v' >= v -> n' :: insert n rest
    | rest -> n :: rest
  in
  let rec go = function
    | [] -> raise (Ipet.Analysis_failed "IPET infeasible")
    | (v, sw) :: rest ->
      match broken (Ipet.path sw) with
      | None -> { flow = v; exact = true; nodes = !nodes }
      | Some _ when !budget < 2 ->
        (* out of nodes: [v] is the costliest open value, so it bounds
           every path not yet ruled out *)
        { flow = v; exact = false; nodes = !nodes }
      | Some (a, b) ->
        let child open_ e =
          decr budget;
          incr nodes;
          let sw' = Ipet.resweep ~fuel sw e in
          match Ipet.value sw' with
          | Some v' -> insert (v', sw') open_
          | None -> open_
        in
        go (child (child rest a) b)
  in
  go [ (Ipet.flow root, root) ]

let compute ?(fuel = Fuel.default) (cfg : Cfg.t) (dom : Dom.t)
    (pl : Pipeline.t) (cache : Cacheanalysis.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : result =
  (* the root: the pure IPET engine's own pass *)
  let root = Ipet.sweep ~fuel cfg pl loops bounds in
  let base = Ipet.with_first_miss cache (Ipet.flow root) in
  let cuts = derive_cuts cfg dom loops in
  let s =
    if cuts = [] then
      { flow = base.Ipet.ipet_flow_cycles; exact = true; nodes = 0 }
    else search ~fuel root cuts
  in
  { smt_wcet = s.flow + cache.Cacheanalysis.ca_first_miss;
    smt_ipet_wcet = base.Ipet.ipet_wcet;
    smt_exact = s.exact;
    smt_flow_cycles = s.flow;
    smt_cuts = List.length cuts;
    smt_queries = s.nodes }
