(* Register allocation by graph coloring (Chaitin–Briggs with
   conservative move coalescing), the optimization the paper singles out
   as the main source of CompCert's gains over the pattern-based
   compile: wires between SCADE symbols stay in registers instead of
   making the stack-frame round trip of Listing 1.

   The allocator colors integer and float pseudo-registers separately
   against the EABI allocatable banks of [Target.Asm]. Pseudo-registers
   that cannot be colored are spilled to dedicated stack slots; the
   assembly generator reloads them through reserved scratch registers.

   [allocate] and [verify] read one liveness of the function, which the
   caller computes and neither changes. The interference graph is a bit
   row per register in the layout of the liveness words, and the sets
   the allocator keeps (class members, representatives, significant
   nodes) are rows too: a definition ORs its live-after words into its
   row, the Briggs test is a popcount, and simplification and coloring
   walk a row masked by the representatives of a class. The locations
   are one table indexed by register.

   [verify] is the structural half of the translation validator: it
   rechecks, independently of how the coloring was obtained, that no two
   simultaneously-live pseudo-registers share a location. *)

type loc =
  | Lireg of Target.Asm.ireg
  | Lfreg of Target.Asm.freg
  | Lslot of int (* index of an 8-byte spill slot in the frame *)

type allocation = loc option array

let loc_equal (a : loc) (b : loc) : bool =
  match a, b with
  | Lireg x, Lireg y | Lfreg x, Lfreg y | Lslot x, Lslot y -> x = y
  | (Lireg _ | Lfreg _ | Lslot _), _ -> false

type result = {
  ra_alloc : allocation;
  ra_nslots : int;
}

let location (res : result) (r : Rtl.reg) : loc =
  match if r >= 0 && r < Array.length res.ra_alloc then res.ra_alloc.(r) else None with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Regalloc.location: x%d unallocated" r)

(* ---- interference rows -------------------------------------------- *)

(* Registers lie below [Liveness.reg_bound]; the row of [r] is the
   [words] ints at [r * words] of [rows]. *)
type graph = {
  words : int;
  rows : int array;            (* symmetric; no register interferes with itself *)
  cls : Rtl.mclass array;
  members : int array array;   (* by [index]: the registers the function names *)
  uses : int array;            (* occurrence count, for spill cost *)
  moves : (Rtl.reg * Rtl.reg) list;  (* same class, last first *)
}

let index (c : Rtl.mclass) : int = match c with Rtl.Cint -> 0 | Rtl.Cfloat -> 1

(* by [index]: the palettes, K (their number of colors), their locations *)
let palettes = [| Target.Asm.allocatable_iregs; Target.Asm.allocatable_fregs |]
let colors = Array.map List.length palettes
let reg_locs =
  [| Array.init 32 (fun m -> Some (Lireg m)); Array.init 32 (fun m -> Some (Lfreg m)) |]

let iter_row (row : int array) (base : int) (mask : int array)
    (k : Rtl.reg -> unit) : unit =
  for w = 0 to Array.length mask - 1 do
    Liveness.iter_bits w (row.(base + w) land mask.(w)) k
  done

let build (f : Rtl.func) (lv : Liveness.t) : graph =
  let regs = Liveness.reg_bound lv and words = Liveness.words lv in
  let cls = Array.make regs Rtl.Cint in
  Hashtbl.iter (fun r c -> cls.(r) <- c) f.Rtl.f_classes;
  let of_class = Array.init 2 (fun _ -> Array.make words 0) in
  Array.iteri (fun r c -> Liveness.set_bit of_class.(index c) 0 r) cls;
  let rows = Array.make (regs * words) 0 in
  let members = Array.init 2 (fun _ -> Array.make words 0) in
  let uses = Array.make regs 0 in
  let add_node r =
    let m = members.(index cls.(r)) in
    if not (Liveness.has_bit m 0 r) then begin
      ignore (Rtl.reg_class f r);
      Liveness.set_bit m 0 r
    end
  in
  let count_use r =
    add_node r;
    uses.(r) <- uses.(r) + 1
  in
  let moves = ref [] in
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
        (* [d] interferes with the registers of its class live after
           [n], but itself and a move's source *)
        let mask = of_class.(index cls.(d)) and base = d * words in
        for w = 0 to words - 1 do
          let self = Liveness.bit w d lor Liveness.bit w src in
          let live = Liveness.word lv n w land mask.(w) land lnot self in
          rows.(base + w) <- rows.(base + w) lor live
        done
      | None -> ());
  (* parameters interfere with each other (they arrive simultaneously) *)
  let rec pairs = function
    | [] -> ()
    | (a, ca) :: rest ->
      List.iter
        (fun (b, cb) -> if ca = cb && a <> b then Liveness.set_bit rows (a * words) b)
        rest;
      pairs rest
  in
  pairs f.Rtl.f_params;
  let all = Array.make words (-1) in
  for r = 0 to regs - 1 do
    iter_row rows (r * words) all (fun x -> Liveness.set_bit rows (x * words) r)
  done;
  { words; rows; cls; members; uses; moves = !moves }

let degree (g : graph) (r : Rtl.reg) (mask : int array) : int =
  let n = ref 0 and base = r * g.words in
  for w = 0 to g.words - 1 do
    n := !n + Liveness.popcount (g.rows.(base + w) land mask.(w))
  done;
  !n

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

(* Conservative (Briggs) coalescing: merge the ends of a move if the
   merged node would have fewer than K neighbors of significant degree.
   Merging [rs] into [rd] ORs the representatives of [rs]'s row into
   [rd]'s; a neighbor of both loses one degree, a neighbor of [rs] alone
   gains [rd]. Afterwards the rows restricted to the representatives
   are the coalesced graph. *)
let coalesce (g : graph) : Rtl.reg array =
  let words = g.words and rows = g.rows in
  let regs = Array.length g.cls in
  let reps = Array.make words (-1) and significant = Array.make words 0 in
  let deg = Array.init regs (fun r -> degree g r reps) in
  let mark r =
    if deg.(r) >= colors.(index g.cls.(r)) then
      Liveness.set_bit significant 0 r
    else Liveness.clear_bit significant 0 r
  in
  for r = 0 to regs - 1 do mark r done;
  let alias = Array.init regs Fun.id in
  let rd = ref 0 in
  let gain n =
    Liveness.set_bit rows (n * words) !rd;
    deg.(!rd) <- deg.(!rd) + 1
  and share n =
    deg.(n) <- deg.(n) - 1;
    mark n
  in
  List.iter
    (fun (d, s) ->
       let rs = find alias s in
       rd := find alias d;
       let bd = !rd * words and bs = rs * words in
       if !rd <> rs && not (Liveness.has_bit rows bd rs) then begin
         let n = ref 0 in
         for w = 0 to words - 1 do
           let either = rows.(bd + w) lor rows.(bs + w) in
           n := !n + Liveness.popcount (either land significant.(w))
         done;
         if !n < colors.(index g.cls.(d)) then begin
           alias.(rs) <- !rd;
           Liveness.clear_bit reps 0 rs;
           Liveness.clear_bit significant 0 rs;
           for w = 0 to words - 1 do
             let gained = rows.(bs + w) land reps.(w) and old = rows.(bd + w) in
             rows.(bd + w) <- old lor gained;
             Liveness.iter_bits w (gained land lnot old) gain;
             Liveness.iter_bits w (gained land old) share
           done;
           mark !rd
         end
       end)
    g.moves;
  alias

(* ---- coloring ------------------------------------------------------ *)

(* below every color and slot: the palette search skips it *)
let uncolored = min_int

let color_class (g : graph) (alias : Rtl.reg array) (color : int array)
    (c : Rtl.mclass) (locs : allocation) (next_slot : int ref) : unit =
  let words = g.words and rows = g.rows in
  let palette = palettes.(index c) and k = colors.(index c) in
  let members = g.members.(index c) in
  (* the representatives of this class, and those not yet removed *)
  let reps = Array.make words 0 in
  iter_row members 0 members (fun r -> if alias.(r) = r then Liveness.set_bit reps 0 r);
  let live = Array.copy reps in
  let degree_of = Array.make (Array.length g.cls) 0 in
  let stack = ref [] in
  let remaining = ref 0 in
  let spill_cost (r : Rtl.reg) : float =
    float_of_int (1 + g.uses.(r)) /. float_of_int (1 + degree_of.(r))
  in
  (* Simplify worklist: nodes of insignificant degree; when it dries up,
     optimistically remove the cheapest potential spill. *)
  let low = Queue.create () in
  iter_row reps 0 reps (fun r ->
      incr remaining;
      degree_of.(r) <- degree g r reps;
      if degree_of.(r) < k then Queue.add r low);
  let remove_node (r : Rtl.reg) : unit =
    Liveness.clear_bit live 0 r;
    stack := r :: !stack;
    decr remaining;
    iter_row rows (r * words) live (fun n ->
        let d = degree_of.(n) in
        degree_of.(n) <- d - 1;
        if d = k then Queue.add n low)
  in
  while !remaining > 0 do
    let rec pop_low () : Rtl.reg option =
      if Queue.is_empty low then None
      else
        let r = Queue.pop low in
        if Liveness.has_bit live 0 r then Some r else pop_low ()
    in
    match pop_low () with
    | Some r -> remove_node r
    | None ->
      (* no trivially colorable node: pick the cheapest potential spill,
         the lowest-numbered one on a tie *)
      let best = ref (-1) and best_cost = ref infinity in
      iter_row live 0 live (fun r ->
          let cost = spill_cost r in
          if !best < 0 || cost < !best_cost then begin
            best := r;
            best_cost := cost
          end);
      if !best >= 0 then remove_node !best else remaining := 0
  done;
  (* pop and assign colors: the first palette color that no colored
     neighbor holds ([taken.(c) = r] while coloring r), else a fresh
     frame slot *)
  let taken = Array.make (1 + List.fold_left max 0 palette) (-1) in
  List.iter
    (fun r ->
       iter_row rows (r * words) reps (fun n ->
           if color.(n) >= 0 then taken.(color.(n)) <- r);
       match List.find_opt (fun c -> taken.(c) <> r) palette with
       | Some c -> color.(r) <- c
       | None ->
         (* actual spill: a fresh frame slot *)
         let s = !next_slot in
         incr next_slot;
         color.(r) <- -1 - s)
    !stack;
  (* write out locations for all registers of the class: each one's
     representative is on the stack, so it has a color or a slot *)
  let reg_locs = reg_locs.(index c) in
  iter_row members 0 members (fun r ->
      let cr = color.(find alias r) in
      locs.(r) <- (if cr >= 0 then reg_locs.(cr) else Some (Lslot (-1 - cr))))

let allocate (f : Rtl.func) (lv : Liveness.t) : result =
  let g = build f lv in
  let alias = coalesce g in
  let regs = Array.length g.cls in
  let locs = Array.make regs None and color = Array.make regs uncolored in
  let next_slot = ref 0 in
  color_class g alias color Rtl.Cint locs next_slot;
  color_class g alias color Rtl.Cfloat locs next_slot;
  { ra_alloc = locs; ra_nslots = !next_slot }

(* ---- validation ---------------------------------------------------- *)

(* Independent check on the caller's liveness: interfering registers (by
   the same construction rule as [build]) never share a location. A
   deliberately corrupted allocation must be rejected — the test suite
   checks this by mutation. Nodes are scanned in reverse postorder and
   the registers live after each in ascending order; the first
   conflict, or the first register of a compared pair without a class
   or a location, is the verdict. A definition is checked a word at a
   time against rows of the registers without a class, of each class,
   without a location and at each location: the first register of the
   live-after row that one of them flags is that verdict's register. *)
let verify (f : Rtl.func) (lv : Liveness.t) (res : result) :
  (unit, string) Result.t =
  (* no live register lies outside [0, reg_bound) *)
  let size = Liveness.reg_bound lv and words = Liveness.words lv in
  let row () = Array.make words 0 in
  let classes = Array.make size None in
  let classless = Array.make words (-1) and of_class = Array.init 2 (fun _ -> row ()) in
  Hashtbl.iter
    (fun r c ->
       if r >= 0 && r < size then begin
         classes.(r) <- Some c;
         Liveness.clear_bit classless 0 r;
         Liveness.set_bit of_class.(index c) 0 r
       end)
    f.Rtl.f_classes;
  let loc_of r = if r < Array.length res.ra_alloc then res.ra_alloc.(r) else None in
  (* the registers at each location, by a key that tells locations apart *)
  let key = function Lireg m -> 3 * m | Lfreg m -> (3 * m) + 1 | Lslot s -> (3 * s) + 2 in
  let placeless = Array.make words (-1) and at = Hashtbl.create 64 in
  let at_key k =
    match Hashtbl.find_opt at k with
    | Some a -> a
    | None -> let a = row () in Hashtbl.add at k a; a
  in
  for r = 0 to size - 1 do
    match loc_of r with
    | Some l ->
      Liveness.clear_bit placeless 0 r;
      Liveness.set_bit (at_key (key l)) 0 r
    | None -> ()
  done;
  let exception Bad of string in
  let bad n fmt =
    Printf.ksprintf (fun s -> raise (Bad (Printf.sprintf "node %d: %s" n s))) fmt
  in
  match
    Liveness.iter_nodes lv (fun n i ->
        match Rtl.instr_def i with
        | Some d ->
          let src =
            match i with Rtl.Iop (Rtl.Omove, [ s ], _, _) -> s | _ -> d
          in
          (* the registers that fail with [d]: with no class, every one;
             with no location, every one of its class; else those of its
             class without a location or at its location *)
          let same, nowhere, here =
            match classes.(d), loc_of d with
            | None, _ -> (Array.make words (-1), -1, placeless)
            | Some c, None -> (of_class.(index c), -1, placeless)
            | Some c, Some l -> (of_class.(index c), 0, at_key (key l))
          in
          let fails w = nowhere lor placeless.(w) lor here.(w) in
          for w = 0 to words - 1 do
            let x =
              Liveness.word lv n w land lnot (Liveness.bit w d lor Liveness.bit w src)
              land (classless.(w) lor (same.(w) land fails w))
            in
            if x <> 0 then begin
              let r = Liveness.lowest w x in
              if classes.(d) = None then bad n "x%d has no register class" d
              else if classes.(r) = None then bad n "x%d has no register class" r
              else if nowhere <> 0 then bad n "x%d has no location" d
              else if loc_of r = None then bad n "x%d has no location" r
              else
                bad n "x%d and x%d are simultaneously live in the same location" d r
            end
          done
        | None -> ())
  with
  | () -> Ok ()
  | exception Bad msg -> Error msg
