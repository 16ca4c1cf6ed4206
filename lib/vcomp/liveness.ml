(* Liveness analysis over RTL: backward dataflow fixpoint computing, for
   every node, the set of pseudo-registers live *after* the instruction
   at that node. Used by dead-code elimination, loop-invariant code
   motion, the interference graph construction of the register
   allocator and its independent validator.

   Pseudo-registers are small dense integers, so the fixpoint runs over
   bit vectors, 63 registers a word, one row per node in a single flat
   array: a union is a few word-wise [lor]s. The worklist reads the
   reachable nodes, their instructions and their predecessors from one
   [Rtl.walk]; clients that visit every node afterwards walk the same
   order ([iter_nodes]) instead of asking [Rtl] for it again. The
   analysis also keeps the register bound it sized its rows by, and the
   walk's predecessors, so that [remove] can bring the rows up to date
   after dead-code elimination instead of solving from scratch. *)

module RegSet = Set.Make (Int)

type t = {
  regs : int;        (* register bound: every register is below it *)
  words : int;       (* words per row *)
  rows : int;        (* node bound: row [n] is the live-after set of [n] *)
  bits : int array;
  order : Rtl.node array;         (* reachable nodes, reverse postorder *)
  code : Rtl.instruction array;   (* by node; meaningful where reachable *)
  preds : Rtl.node list array;    (* by node, as in [Rtl.walk] *)
}

(* live_before(n) = (live_after(n) \ def(n)) ∪ use(n) *)
let live_before (i : Rtl.instruction) (after : RegSet.t) : RegSet.t =
  let minus_def =
    match Rtl.instr_def i with
    | Some d -> RegSet.remove d after
    | None -> after
  in
  List.fold_left (fun s r -> RegSet.add r s) minus_def (Rtl.instr_uses i)

(* Set or clear bit [r] of the row starting at [base]. *)
let set_bit (a : int array) (base : int) (r : Rtl.reg) : unit =
  let w = base + (r / 63) in
  a.(w) <- a.(w) lor (1 lsl (r mod 63))

let clear_bit (a : int array) (base : int) (r : Rtl.reg) : unit =
  let w = base + (r / 63) in
  a.(w) <- a.(w) land lnot (1 lsl (r mod 63))

let has_bit (a : int array) (base : int) (r : Rtl.reg) : bool =
  a.(base + (r / 63)) land (1 lsl (r mod 63)) <> 0

let empty (f : Rtl.func) (w : Rtl.walk) : t =
  let regs = Rtl.reg_bound f in
  let words = (regs + 62) / 63 in
  let rows = Array.length w.Rtl.w_code in
  { regs; words; rows; bits = Array.make (rows * words) 0;
    order = w.Rtl.w_order; code = w.Rtl.w_code; preds = w.Rtl.w_preds }

(* The worklist iteration, from the rows as they are: each popped node's
   live-before set, restricted to the bits of [mask], flows into its
   predecessors' rows, and a predecessor whose row grows is pushed
   again. [seed] pushes the first nodes. *)
let solve (lv : t) (mask : int array)
    (seed : (Rtl.node -> unit) -> unit) : unit =
  let words = lv.words in
  let before = Array.make words 0 in
  let queued = Bytes.make lv.rows '\000' in
  let worklist = Queue.create () in
  let push (n : Rtl.node) : unit =
    if Bytes.get queued n = '\000' then begin
      Bytes.set queued n '\001';
      Queue.add n worklist
    end
  in
  seed push;
  while not (Queue.is_empty worklist) do
    let n = Queue.pop worklist in
    Bytes.set queued n '\000';
    let i = lv.code.(n) in
    Array.blit lv.bits (n * words) before 0 words;
    Option.iter (clear_bit before 0) (Rtl.instr_def i);
    List.iter (set_bit before 0) (Rtl.instr_uses i);
    (* propagate into predecessors' live-after *)
    List.iter
      (fun p ->
         let base = p * words in
         let grew = ref false in
         for w = 0 to words - 1 do
           let old = lv.bits.(base + w) in
           let updated = old lor (before.(w) land mask.(w)) in
           if updated <> old then begin
             lv.bits.(base + w) <- updated;
             grew := true
           end
         done;
         if !grew then push p)
      lv.preds.(n)
  done

(* Compute live-after sets for all reachable nodes with a worklist
   iteration seeded in postorder (fast convergence for reducible CFGs). *)
let analyze (f : Rtl.func) : t =
  let lv = empty f (Rtl.walk f) in
  solve lv (Array.make lv.words (-1)) (fun push ->
      for j = Array.length lv.order - 1 downto 0 do
        push lv.order.(j)
      done);
  lv

(* Liveness separates by register: the rows restricted to one register
   are the least solution of that register's own equations. Turning a
   pure instruction whose destination is dead after it into an [Inop]
   changes only the equations of the registers it reads: for its
   destination, the old solution already says "dead after" there, so it
   still solves the new equation, and it stays the least. So clearing
   the bits of the registers the removed instructions read, in every
   row, and solving again for those bits alone gives the rows a fresh
   [analyze] would. Only a node that reads one of them can make it live
   from cleared rows, so those nodes seed the worklist. *)
let remove (lv : t) (nodes : Rtl.node list) : unit =
  if nodes <> [] then begin
    let mask = Array.make lv.words 0 in
    List.iter
      (fun n ->
         match lv.code.(n) with
         | Rtl.Iop (_, args, _, s) | Rtl.Iload (_, _, args, _, s) ->
           List.iter (set_bit mask 0) args;
           lv.code.(n) <- Rtl.Inop s
         | _ -> invalid_arg "Liveness.remove: not a pure instruction")
      nodes;
    let keep = Array.map lnot mask in
    for n = 0 to lv.rows - 1 do
      let base = n * lv.words in
      for w = 0 to lv.words - 1 do
        lv.bits.(base + w) <- lv.bits.(base + w) land keep.(w)
      done
    done;
    solve lv mask (fun push ->
        for j = Array.length lv.order - 1 downto 0 do
          let n = lv.order.(j) in
          if List.exists (has_bit mask 0) (Rtl.instr_uses lv.code.(n)) then
            push n
        done)
  end

let reg_bound (lv : t) : int = lv.regs

let iter_nodes (lv : t) (k : Rtl.node -> Rtl.instruction -> unit) : unit =
  Array.iter (fun n -> k n lv.code.(n)) lv.order

let is_live_after (lv : t) (n : Rtl.node) (r : Rtl.reg) : bool =
  n < lv.rows
  && r / 63 < lv.words
  && has_bit lv.bits (n * lv.words) r

(* Registers live after [n], ascending. Live sets are sparse: skip
   empty words, then empty bytes. *)
let iter_live_after (lv : t) (n : Rtl.node) (k : Rtl.reg -> unit) : unit =
  if n < lv.rows then
    for w = 0 to lv.words - 1 do
      let word = lv.bits.((n * lv.words) + w) in
      if word <> 0 then
        for byte = 0 to 7 do
          let chunk = (word lsr (8 * byte)) land 0xFF in
          if chunk <> 0 then
            for b = 0 to 7 do
              if chunk land (1 lsl b) <> 0 then k ((w * 63) + (8 * byte) + b)
            done
        done
    done

let live_after (lv : t) (n : Rtl.node) : RegSet.t =
  let rev = ref [] in
  iter_live_after lv n (fun r -> rev := r :: !rev);
  RegSet.of_list !rev

(* Naive recomputation used by property tests: iterate the equations
   globally over register sets until fixpoint, no worklist. *)
let analyze_naive (f : Rtl.func) : t =
  let nodes = Rtl.reverse_postorder f in
  let live_after : (Rtl.node, RegSet.t) Hashtbl.t = Hashtbl.create 251 in
  let get n = Option.value ~default:RegSet.empty (Hashtbl.find_opt live_after n) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
         let i = Rtl.get_instr f n in
         let after =
           List.fold_left
             (fun acc s ->
                RegSet.union acc (live_before (Rtl.get_instr f s) (get s)))
             RegSet.empty (Rtl.successors i)
         in
         if not (RegSet.equal after (get n)) then begin
           Hashtbl.replace live_after n after;
           changed := true
         end)
      nodes
  done;
  let lv = empty f (Rtl.walk f) in
  Hashtbl.iter
    (fun n s -> RegSet.iter (set_bit lv.bits (n * lv.words)) s)
    live_after;
  lv
