(* Common subexpression elimination by local value numbering, as in
   CompCert's CSE (restricted to basic blocks rather than extended basic
   blocks, a sound simplification).

   Within a basic block, pure operations with the same value-numbered
   arguments are replaced by moves from the first occurrence's register.
   Loads participate too, keyed by an additional memory epoch that every
   store advances (no alias analysis: any store kills all memoized
   loads). Volatile acquisitions are never memoized — each one is an
   observable event. Repeated float constants are value-numbered as
   nullary operations, which removes duplicate constant-pool loads. *)

type vn = int

type key =
  | Kop of Rtl.operation * vn list
  | Kload of Rtl.chunk * Rtl.addressing * vn list * int (* memory epoch *)

(* Operation keys rely on structural equality of [Rtl.operation]; float
   constants compare by bits to avoid NaN pitfalls. *)
let key_equal (a : key) (b : key) : bool =
  match a, b with
  | Kop (op1, a1), Kop (op2, a2) ->
    (match op1, op2 with
     | Rtl.Ofloatconst f1, Rtl.Ofloatconst f2 ->
       Int64.equal (Int64.bits_of_float f1) (Int64.bits_of_float f2)
       && a1 = a2
     | _, _ -> op1 = op2 && a1 = a2)
  | Kload (c1, ad1, a1, e1), Kload (c2, ad2, a2, e2) ->
    c1 = c2 && ad1 = ad2 && a1 = a2 && e1 = e2
  | (Kop _ | Kload _), _ -> false

type state = {
  mutable next_vn : vn;
  mutable epoch : int;
  mutable table : (key * vn) list;        (* expression -> value number *)
  reg_vn : (Rtl.reg, vn) Hashtbl.t;       (* register -> its current vn *)
  vn_rep : (vn, Rtl.reg) Hashtbl.t;       (* vn -> register holding it *)
}

let create_state () : state =
  { next_vn = 0;
    epoch = 0;
    table = [];
    reg_vn = Hashtbl.create 61;
    vn_rep = Hashtbl.create 61 }

let fresh_vn (st : state) : vn =
  let v = st.next_vn in
  st.next_vn <- v + 1;
  v

(* Value number currently associated with register [r]. *)
let vn_of_reg (st : state) (r : Rtl.reg) : vn =
  match Hashtbl.find_opt st.reg_vn r with
  | Some v -> v
  | None ->
    let v = fresh_vn st in
    Hashtbl.replace st.reg_vn r v;
    Hashtbl.replace st.vn_rep v r;
    v

let lookup (st : state) (k : key) : vn option =
  List.find_map (fun (k', v) -> if key_equal k k' then Some v else None) st.table

(* Register [d] is about to be (re)defined: detach its old value number;
   if [d] was the representative of that vn, find a replacement
   representative or forget the vn's expressions. *)
let kill_reg (st : state) (d : Rtl.reg) : unit =
  match Hashtbl.find_opt st.reg_vn d with
  | None -> ()
  | Some v ->
    Hashtbl.remove st.reg_vn d;
    (match Hashtbl.find_opt st.vn_rep v with
     | Some rep when rep = d ->
       (* look for another register still holding vn v *)
       let replacement =
         Hashtbl.fold
           (fun r v' acc -> if v' = v && r <> d then Some r else acc)
           st.reg_vn None
       in
       (match replacement with
        | Some r -> Hashtbl.replace st.vn_rep v r
        | None ->
          Hashtbl.remove st.vn_rep v;
          st.table <- List.filter (fun (_, v') -> v' <> v) st.table)
     | Some _ | None -> ())

let set_reg (st : state) (d : Rtl.reg) (v : vn) : unit =
  kill_reg st d;
  Hashtbl.replace st.reg_vn d v;
  if not (Hashtbl.mem st.vn_rep v) then Hashtbl.replace st.vn_rep v d

(* Partition the CFG into basic blocks: heads are the entry, join points,
   and both successors of conditional branches. Returns head nodes. *)
let block_heads (f : Rtl.func) (w : Rtl.walk) : Rtl.node list =
  List.filter
    (fun n ->
       if n = f.Rtl.f_entry then true
       else
         match w.Rtl.w_preds.(n) with
         | [ p ] ->
           (match w.Rtl.w_code.(p) with
            | Rtl.Icond _ -> true
            | _ -> false)
         | _ -> true)
    (Array.to_list w.Rtl.w_order)

(* Walk one basic block starting at [head], rewriting instructions. A
   node is visited once, so its instruction in the walk is still its
   instruction in [f]. *)
let process_block (f : Rtl.func) (w : Rtl.walk) (head : Rtl.node) : unit =
  let st = create_state () in
  let rec walk (n : Rtl.node) : unit =
    let i = w.Rtl.w_code.(n) in
    (match i with
     | Rtl.Iop (Rtl.Omove, [ src ], d, _) ->
       let v = vn_of_reg st src in
       set_reg st d v
     | Rtl.Iop (op, args, d, s) ->
       let vargs = List.map (vn_of_reg st) args in
       let k = Kop (op, vargs) in
       (match lookup st k with
        | Some v ->
          (match Hashtbl.find_opt st.vn_rep v with
           | Some rep when rep <> d
                        && Rtl.reg_class f rep = Rtl.reg_class f d ->
             Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ rep ], d, s));
             set_reg st d v
           | Some _ | None ->
             let v' = fresh_vn st in
             set_reg st d v';
             st.table <- (k, v') :: st.table)
        | None ->
          let v = fresh_vn st in
          set_reg st d v;
          st.table <- (k, v) :: st.table)
     | Rtl.Iload (chunk, addr, args, d, s) ->
       let vargs = List.map (vn_of_reg st) args in
       let k = Kload (chunk, addr, vargs, st.epoch) in
       (match lookup st k with
        | Some v ->
          (match Hashtbl.find_opt st.vn_rep v with
           | Some rep when rep <> d
                        && Rtl.reg_class f rep = Rtl.reg_class f d ->
             Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ rep ], d, s));
             set_reg st d v
           | Some _ | None ->
             let v' = fresh_vn st in
             set_reg st d v';
             st.table <- (k, v') :: st.table)
        | None ->
          let v = fresh_vn st in
          set_reg st d v;
          st.table <- (k, v) :: st.table)
     | Rtl.Istore _ ->
       (* conservatively kill all memoized loads *)
       st.epoch <- st.epoch + 1
     | Rtl.Iacq (_, d, _) ->
       (* volatile read: fresh, never memoized *)
       let v = fresh_vn st in
       set_reg st d v
     | Rtl.Inop _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _ | Rtl.Ireturn _ ->
       ());
    (* continue along the block *)
    match Rtl.successors i with
    | [ s ] ->
      let s_is_head =
        s = f.Rtl.f_entry
        ||
        (match w.Rtl.w_preds.(s) with
         | [ _ ] -> false
         | _ -> true)
      in
      if not s_is_head then walk s
    | [] | _ :: _ :: _ -> ()
  in
  walk head

let transform_func (f : Rtl.func) : unit =
  let w = Rtl.walk f in
  List.iter (process_block f w) (block_heads f w)

let transform (p : Rtl.program) : Rtl.program =
  List.iter transform_func p.Rtl.p_funcs;
  p
