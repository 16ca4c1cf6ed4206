(* Common subexpression elimination by local value numbering, as in
   CompCert's CSE (restricted to basic blocks rather than extended basic
   blocks, a sound simplification).

   Within a basic block, pure operations with the same value-numbered
   arguments are replaced by moves from the first occurrence's register.
   Loads participate too, keyed by an additional memory epoch that every
   store advances (no alias analysis: any store kills all memoized
   loads). Volatile acquisitions are never memoized — each one is an
   observable event. Repeated float constants are value-numbered as
   nullary operations, which removes duplicate constant-pool loads.

   Keys are [Term]s ([Top], [Tload]) over value numbers, and value
   numbers are [Term.fresh] ids, all from one table per function. A key
   maps to the value numbers it was given, newest first. A value number
   no register holds any more has no representative and can never come
   back, so lookup skips it and finds the newest live entry. *)

type state = {
  mutable epoch : int;
  table : (int, int list) Hashtbl.t;      (* key -> vns, newest first *)
  reg_vn : (Rtl.reg, int) Hashtbl.t;      (* register -> its current vn *)
  vn_rep : (int, Rtl.reg) Hashtbl.t;      (* vn -> register holding it *)
}

let create_state () : state =
  let h () = Hashtbl.create 61 in
  { epoch = 0; table = h (); reg_vn = h (); vn_rep = h () }

(* Forget everything at a block head. A reset table iterates as a new
   one does, so [kill_reg]'s replacement rule sees the same order. *)
let reset_state (st : state) : unit =
  st.epoch <- 0;
  Hashtbl.reset st.table;
  Hashtbl.reset st.reg_vn;
  Hashtbl.reset st.vn_rep

(* Value number currently associated with register [r]. *)
let vn_of_reg (tm : Term.t) (st : state) (r : Rtl.reg) : int =
  match Hashtbl.find_opt st.reg_vn r with
  | Some v -> v
  | None ->
    let v = Term.fresh tm in
    Hashtbl.replace st.reg_vn r v;
    Hashtbl.replace st.vn_rep v r;
    v

(* Register [d] is about to be (re)defined: detach its old value number;
   if [d] was the representative of that vn, find a replacement
   representative or let the vn die. *)
let kill_reg (st : state) (d : Rtl.reg) : unit =
  match Hashtbl.find_opt st.reg_vn d with
  | None -> ()
  | Some v ->
    Hashtbl.remove st.reg_vn d;
    (match Hashtbl.find_opt st.vn_rep v with
     | Some rep when rep = d ->
       (* look for another register still holding vn v *)
       (match
          Hashtbl.fold
            (fun r v' acc -> if v' = v && r <> d then Some r else acc)
            st.reg_vn None
        with
        | Some r -> Hashtbl.replace st.vn_rep v r
        | None -> Hashtbl.remove st.vn_rep v)
     | Some _ | None -> ())

let set_reg (st : state) (d : Rtl.reg) (v : int) : unit =
  kill_reg st d;
  Hashtbl.replace st.reg_vn d v;
  if not (Hashtbl.mem st.vn_rep v) then Hashtbl.replace st.vn_rep v d

(* Node [n] defines [d] as [key] (successor [s]): reuse the newest live
   value number of [key] if its representative can be moved into [d],
   or give [d] a fresh one under [key]. *)
let number (f : Rtl.func) (tm : Term.t) (st : state) (n : Rtl.node)
    (key : Term.key) (d : Rtl.reg) (s : Rtl.node) : unit =
  let k = Term.id tm key in
  let vns = Option.value ~default:[] (Hashtbl.find_opt st.table k) in
  let live = List.find_opt (Hashtbl.mem st.vn_rep) vns in
  match Option.map (fun v -> (v, Hashtbl.find st.vn_rep v)) live with
  | Some (v, rep) when rep <> d && Rtl.reg_class f rep = Rtl.reg_class f d ->
    Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ rep ], d, s));
    set_reg st d v
  | Some _ | None ->
    let v = Term.fresh tm in
    set_reg st d v;
    Hashtbl.replace st.table k (v :: vns)

(* Basic blocks start at the entry, at join points, and at both
   successors of a conditional branch. *)
let is_head (f : Rtl.func) (w : Rtl.walk) (n : Rtl.node) : bool =
  n = f.Rtl.f_entry
  ||
  match w.Rtl.w_preds.(n) with
  | [ p ] -> (match w.Rtl.w_code.(p) with Rtl.Icond _ -> true | _ -> false)
  | _ -> true

(* Walk one basic block starting at [head], rewriting instructions. A
   node is visited once, so its instruction in the walk is still its
   instruction in [f]. *)
let process_block (f : Rtl.func) (w : Rtl.walk) (tm : Term.t) (st : state)
    (head : Rtl.node) : unit =
  reset_state st;
  let vns = List.map (vn_of_reg tm st) in
  let rec walk (n : Rtl.node) : unit =
    let i = w.Rtl.w_code.(n) in
    (match i with
     | Rtl.Iop (Rtl.Omove, [ src ], d, _) -> set_reg st d (vn_of_reg tm st src)
     | Rtl.Iop (op, args, d, s) -> number f tm st n (Term.op op (vns args)) d s
     | Rtl.Iload (chunk, addr, args, d, s) ->
       number f tm st n (Term.Tload (chunk, addr, vns args, st.epoch)) d s
     | Rtl.Istore _ ->
       (* conservatively kill all memoized loads *)
       st.epoch <- st.epoch + 1
     | Rtl.Iacq (_, d, _) ->
       (* volatile read: fresh, never memoized *)
       set_reg st d (Term.fresh tm)
     | Rtl.Inop _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _ | Rtl.Ireturn _ ->
       ());
    (* continue along the block *)
    match Rtl.successors i with
    | [ s ] -> if not (is_head f w s) then walk s
    | [] | _ :: _ :: _ -> ()
  in
  walk head

let transform_func (f : Rtl.func) : unit =
  let w = Rtl.walk f in
  let tm = Term.create w and st = create_state () in
  Array.iter
    (fun n -> if is_head f w n then process_block f w tm st n)
    w.Rtl.w_order

let transform (p : Rtl.program) : Rtl.program =
  List.iter transform_func p.Rtl.p_funcs;
  p
