(* Reference register allocator and allocation validator.

   [allocate] is the allocator as it was written over neighbour lists:
   an edge bit matrix with unordered neighbour lists and degrees,
   sorted neighbour lists per class for simplification and coloring,
   and the locations in a hash table. It is kept as the oracle for the
   bit-row allocator of [Vcomp.Regalloc], which must give every
   register the same location and use the same number of slots; its
   graph ([ra_graph]) also names the interfering pairs and the moves
   that the validator tests corrupt.

   [verify] is [Vcomp.Regalloc.verify] as it was written over register
   sets. It builds a [RegSet] per node and per definition and looks
   classes and locations up in the hash table and the dense table; it
   reads the naive set-based liveness fixpoint of [Liveness_ref], so it
   shares no liveness code with the validator under test. The verdict
   and the first message of both must agree on every allocation in
   which each compared register has a class and a location (this one
   raises otherwise). *)

module RegSet = Liveness_ref.RegSet
module Rtl = Vcomp.Rtl
module Regalloc = Vcomp.Regalloc
module Liveness = Vcomp.Liveness

type loc = Regalloc.loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int

type allocation = (Rtl.reg, loc) Hashtbl.t

(* ---- interference graph ------------------------------------------ *)

(* Pseudo-registers are small dense integers (below [Rtl.reg_bound],
   which [Liveness] computes once per analysis), so every per-register
   table is an array indexed by register. *)
type graph = {
  g_node : bool array;           (* the register occurs in the function *)
  g_adj : Rtl.reg array array Lazy.t;
      (* interfering registers, ascending; sorted on demand, since only
         callers inspecting the graph read it, never the allocator *)
  g_uses : int array;            (* occurrence count, for spill cost *)
  g_moves : (Rtl.reg * Rtl.reg) list;  (* move-related pairs, same class *)
}

(* The allocator's working copy of the graph: an edge bit matrix for
   membership, unordered neighbor lists and degrees. Coalescing merges
   nodes in place, so once it has run, the lists of the representatives
   (ignoring entries that are no longer representatives) describe the
   coalesced graph. *)
type work = {
  w_size : int;
  w_bits : Bytes.t;            (* edge (a, b) is bit [a * w_size + b] *)
  w_adj : Rtl.reg list array;
  w_deg : int array;
}

let bit (w : work) (a : Rtl.reg) (b : Rtl.reg) : int = (a * w.w_size) + b

let interferes (w : work) (a : Rtl.reg) (b : Rtl.reg) : bool =
  let i = bit w a b in
  Char.code (Bytes.get w.w_bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit (w : work) (i : int) : unit =
  let byte = i lsr 3 in
  Bytes.set w.w_bits byte
    (Char.unsafe_chr (Char.code (Bytes.get w.w_bits byte) lor (1 lsl (i land 7))))

let add_edge (w : work) (a : Rtl.reg) (b : Rtl.reg) : unit =
  if a <> b && not (interferes w a b) then begin
    set_bit w (bit w a b);
    set_bit w (bit w b a);
    w.w_adj.(a) <- b :: w.w_adj.(a);
    w.w_adj.(b) <- a :: w.w_adj.(b);
    w.w_deg.(a) <- w.w_deg.(a) + 1;
    w.w_deg.(b) <- w.w_deg.(b) + 1
  end

(* Symmetric neighbor lists in ascending order, restricted to the
   registers [keep] accepts: listing each kept [r] as a neighbor of its
   neighbors, for [r] in descending order, builds every list sorted. *)
let sorted_neighbors (adj : Rtl.reg list array) (keep : Rtl.reg -> bool) :
  Rtl.reg list array =
  let out = Array.make (Array.length adj) [] in
  for r = Array.length adj - 1 downto 0 do
    if keep r then
      List.iter (fun x -> if keep x then out.(x) <- r :: out.(x)) adj.(r)
  done;
  out

let class_table (f : Rtl.func) (size : int) : Rtl.mclass array =
  let cls = Array.make size Rtl.Cint in
  Hashtbl.iter (fun r c -> cls.(r) <- c) f.Rtl.f_classes;
  cls

let build (f : Rtl.func) (lv : Liveness.t) (cls : Rtl.mclass array) :
  graph * work =
  let size = Array.length cls in
  let w =
    { w_size = size;
      w_bits = Bytes.make (((size * size) + 7) / 8) '\000';
      w_adj = Array.make size [];
      w_deg = Array.make size 0 }
  in
  let node = Array.make size false in
  let uses = Array.make size 0 in
  let add_node r =
    if not node.(r) then begin
      ignore (Rtl.reg_class f r);
      node.(r) <- true
    end
  in
  let count_use r =
    add_node r;
    uses.(r) <- uses.(r) + 1
  in
  let moves = ref [] in
  (* ensure every mentioned register is a node *)
  List.iter (fun (r, _) -> add_node r) f.Rtl.f_params;
  Liveness.iter_nodes lv (fun n i ->
      List.iter count_use (Rtl.instr_uses i);
      match Rtl.instr_def i with
      | Some d ->
        count_use d;
        let src =
          match i with
          | Rtl.Iop (Rtl.Omove, [ s ], _, _) ->
            if cls.(s) = cls.(d) then moves := (d, s) :: !moves;
            s
          | _ -> d
        in
        Liveness.iter_live_after lv n (fun r ->
            if r <> src && cls.(r) = cls.(d) then add_edge w d r)
      | None -> ());
  (* parameters interfere with each other (they arrive simultaneously) *)
  let rec pairs = function
    | [] -> ()
    | (a, ca) :: rest ->
      List.iter (fun (b, cb) -> if ca = cb then add_edge w a b) rest;
      pairs rest
  in
  pairs f.Rtl.f_params;
  (* coalescing replaces lists in [w.w_adj] but never mutates one, so a
     copy of the array keeps the graph as built *)
  let adj = Array.copy w.w_adj in
  let g =
    { g_node = node;
      g_adj = lazy (Array.map Array.of_list (sorted_neighbors adj (fun _ -> true)));
      g_uses = uses;
      g_moves = !moves }
  in
  (g, w)

(* ---- coalescing ---------------------------------------------------- *)

(* Union-find over registers for coalesced move webs: [alias.(r) = r]
   for representatives. *)
let rec find (alias : Rtl.reg array) (r : Rtl.reg) : Rtl.reg =
  let p = alias.(r) in
  if p = r then r
  else begin
    let root = find alias p in
    alias.(r) <- root;
    root
  end

let is_rep (alias : Rtl.reg array) (r : Rtl.reg) : bool = alias.(r) = r

(* Conservative (Briggs) coalescing: merge the ends of a move if the
   merged node would have fewer than K neighbors of significant degree. *)
let coalesce (g : graph) (w : work) (cls : Rtl.mclass array)
    (kof : Rtl.mclass -> int) : Rtl.reg array =
  let alias = Array.init w.w_size Fun.id in
  List.iter
    (fun (d, s) ->
       let rd = find alias d and rs = find alias s in
       if rd <> rs && not (interferes w rd rs) then begin
         let k = kof cls.(d) in
         let significant = ref 0 in
         let count n = if w.w_deg.(n) >= k then incr significant in
         List.iter (fun n -> if is_rep alias n then count n) w.w_adj.(rd);
         List.iter
           (fun n -> if is_rep alias n && not (interferes w rd n) then count n)
           w.w_adj.(rs);
         if !significant < k then begin
           (* merge rs into rd: each neighbor of rs loses its edge to
              rs and gains one to rd unless it already had it *)
           alias.(rs) <- rd;
           List.iter
             (fun n ->
                if is_rep alias n then begin
                  add_edge w rd n;
                  w.w_deg.(n) <- w.w_deg.(n) - 1
                end)
             w.w_adj.(rs)
         end
       end)
    g.g_moves;
  alias

(* ---- coloring ------------------------------------------------------ *)

let uncolored = max_int

let color_class (g : graph) (w : work) (cls : Rtl.mclass array)
    (alias : Rtl.reg array) (c : Rtl.mclass) (palette : int list)
    (alloc : allocation) (next_slot : int ref) : unit =
  let k = List.length palette in
  let size = Array.length g.g_node in
  let in_class r = g.g_node.(r) && cls.(r) = c in
  (* representative nodes of this class, ascending, and the coalesced
     adjacency among them *)
  let rep r = in_class r && is_rep alias r in
  let nodes = List.filter rep (List.init size Fun.id) in
  let radj = sorted_neighbors w.w_adj rep in
  let degree = Array.map List.length radj in
  let removed = Array.make size false in
  let stack = ref [] in
  let remaining = ref (List.length nodes) in
  let spill_cost (r : Rtl.reg) : float =
    float_of_int (1 + g.g_uses.(r)) /. float_of_int (1 + degree.(r))
  in
  (* Simplify worklist: nodes of insignificant degree; when it dries up,
     optimistically remove the cheapest potential spill. *)
  let low = Queue.create () in
  List.iter (fun r -> if degree.(r) < k then Queue.add r low) nodes;
  let remove_node (r : Rtl.reg) : unit =
    removed.(r) <- true;
    stack := r :: !stack;
    decr remaining;
    List.iter
      (fun n ->
         if not removed.(n) then begin
           let d = degree.(n) in
           degree.(n) <- d - 1;
           if d = k then Queue.add n low
         end)
      radj.(r)
  in
  while !remaining > 0 do
    let rec pop_low () : Rtl.reg option =
      if Queue.is_empty low then None
      else
        let r = Queue.pop low in
        if removed.(r) then pop_low () else Some r
    in
    match pop_low () with
    | Some r -> remove_node r
    | None ->
      (* no trivially colorable node: pick the cheapest potential spill,
         the lowest-numbered one on a tie *)
      let candidate =
        List.fold_left
          (fun acc r ->
             if removed.(r) then acc
             else
               let cost = spill_cost r in
               match acc with
               | Some (_, best) when best <= cost -> acc
               | Some _ | None -> Some (r, cost))
          None nodes
      in
      (match candidate with
       | Some (r, _) -> remove_node r
       | None -> remaining := 0)
  done;
  (* pop and assign colors: the first palette color that no colored
     neighbor holds ([taken.(c) = r] while coloring r), else a fresh
     frame slot *)
  let color = Array.make size uncolored in
  let taken = Array.make (1 + List.fold_left max 0 palette) (-1) in
  List.iter
    (fun r ->
       List.iter
         (fun n ->
            let cn = color.(n) in
            if cn <> uncolored && cn >= 0 then taken.(cn) <- r)
         radj.(r);
       match List.find_opt (fun c -> taken.(c) <> r) palette with
       | Some c -> color.(r) <- c
       | None ->
         (* actual spill: a fresh frame slot *)
         let s = !next_slot in
         incr next_slot;
         color.(r) <- -1 - s)
    !stack;
  (* write out locations for all registers of the class *)
  for r = 0 to size - 1 do
    if in_class r then begin
      let cr = color.(find alias r) in
      Hashtbl.replace alloc r
        (if cr = uncolored then
           (* node never appeared (dead register): any location works *)
           (match c with
            | Rtl.Cint -> Lireg (List.hd palette)
            | Rtl.Cfloat -> Lfreg (List.hd palette))
         else if cr >= 0 then
           (match c with Rtl.Cint -> Lireg cr | Rtl.Cfloat -> Lfreg cr)
         else Lslot (-1 - cr))
    end
  done

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
  ra_graph : graph;
}

let allocate (f : Rtl.func) : result =
  let lv = Liveness.analyze f in
  let cls = class_table f (Liveness.reg_bound lv) in
  let g, w = build f lv cls in
  let kof (c : Rtl.mclass) : int =
    match c with
    | Rtl.Cint -> List.length Target.Asm.allocatable_iregs
    | Rtl.Cfloat -> List.length Target.Asm.allocatable_fregs
  in
  let alias = coalesce g w cls kof in
  let alloc : allocation = Hashtbl.create 251 in
  let next_slot = ref 0 in
  color_class g w cls alias Rtl.Cint Target.Asm.allocatable_iregs alloc
    next_slot;
  color_class g w cls alias Rtl.Cfloat Target.Asm.allocatable_fregs alloc
    next_slot;
  { ra_alloc = alloc; ra_nslots = !next_slot; ra_graph = g }


(* The dense allocation [res] gives every register the location this
   one gives it, no other register one, and uses as many slots. *)
let agrees (ref_res : result) (res : Regalloc.result) : bool =
  ref_res.ra_nslots = res.Regalloc.ra_nslots
  && Hashtbl.length ref_res.ra_alloc
     = Array.fold_left
         (fun n l -> if l = None then n else n + 1)
         0 res.Regalloc.ra_alloc
  && Hashtbl.fold
       (fun r l ok ->
          ok
          && r < Array.length res.Regalloc.ra_alloc
          && match res.Regalloc.ra_alloc.(r) with
          | Some l' -> Regalloc.loc_equal l l'
          | None -> false)
       ref_res.ra_alloc true

let verify (f : Rtl.func) (res : Regalloc.result) : (unit, string) Result.t =
  let live_after = Liveness_ref.analyze f in
  let bad = ref None in
  List.iter
    (fun n ->
       let i = Rtl.get_instr f n in
       match Rtl.instr_def i with
       | Some d ->
         let live = live_after n in
         let exclude =
           match i with
           | Rtl.Iop (Rtl.Omove, [ s ], _, _) -> RegSet.of_list [ d; s ]
           | _ -> RegSet.singleton d
         in
         RegSet.iter
           (fun r ->
              if (not (RegSet.mem r exclude))
              && Rtl.reg_class f r = Rtl.reg_class f d
              && Regalloc.loc_equal (Regalloc.location res r)
                   (Regalloc.location res d)
              && !bad = None then
                bad :=
                  Some
                    (Printf.sprintf
                       "node %d: x%d and x%d are simultaneously live in the same location"
                       n d r))
           live
       | None -> ())
    (Rtl.reverse_postorder f);
  match !bad with
  | None -> Ok ()
  | Some msg -> Error msg
