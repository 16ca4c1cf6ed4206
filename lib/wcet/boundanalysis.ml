(* Loop-bound analysis, combining:

   1. automatic bounds for counter-based loops (the "simple counter
      loops" that MISRA-style rules 13.4/13.6 guarantee: an integer
      counter, stepped by a constant, tested against a loop-invariant
      limit with a statically known interval) — both in registers
      (optimized code) and in stack slots (pattern code);
   2. explicit "loopbound N" annotations transmitted from the source via
      __builtin_annotation, for data-dependent loops the automatic
      analysis cannot bound (paper section 3.4).

   The bound of a loop is the maximal number of back-edge traversals per
   loop entry. Loops with no derivable bound are reported; the WCET
   computation refuses to produce a number for them, exactly like aiT
   asking for an annotation. *)

module Asm = Target.Asm

type bound_source =
  | Bauto       (* derived by the counter analysis *)
  | Bannot      (* taken from a loopbound annotation *)

type loop_bound = {
  lb_header : int;
  lb_bound : int;
  lb_source : bound_source;
}

type failure = {
  fail_header : int;
  fail_reason : string;
}

(* A loop counter: where it lives and its step per iteration. *)
type counter =
  | Creg of Asm.ireg
  | Cslot of int (* sp0-relative slot key *)

let ceil_div (a : int) (b : int) : int =
  if a <= 0 then 0 else (a + b - 1) / b

(* "loopbound N" annotation scan over the loop body. *)
let annotation_bound (cfg : Cfg.t) (l : Loops.loop) : int option =
  List.fold_left
    (fun acc b ->
       Array.fold_left
         (fun acc i ->
            match i with
            | Asm.Pannot (text, _) ->
              (match String.split_on_char ' ' (String.trim text) with
               | [ "loopbound"; n ] ->
                 (match int_of_string_opt n with
                  | Some n when n >= 0 ->
                    (match acc with
                     | Some m -> Some (min m n)
                     | None -> Some n)
                  | _ -> acc)
               | _ -> acc)
            | _ -> acc)
         acc (Cfg.block cfg b).Cfg.b_instrs)
    None l.Loops.l_body

(* Defs of an integer register within the loop body, counted to make
   sure a register counter has a unique increment. *)
let count_reg_defs (cfg : Cfg.t) (l : Loops.loop) (r : Asm.ireg) : int =
  List.fold_left
    (fun acc b ->
       Array.fold_left
         (fun acc i ->
            if Asm.idefs_mask i land Asm.bit r <> 0 then acc + 1
            else acc)
         acc (Cfg.block cfg b).Cfg.b_instrs)
    0 l.Loops.l_body

(* Stores that may touch slot [key] within the loop, other than the
   recognized increment store. Conservative: any store without an exact
   different slot key counts. *)
let slot_clobbers (va : Valueanalysis.result) (l : Loops.loop) (key : int)
    ~(skip : int * int) : int =
  let may_touch (ac : Valueanalysis.access) =
    match ac.Valueanalysis.ac_slot, ac.Valueanalysis.ac_region with
    | Some k, _ -> k = key
    | None, (Valueanalysis.Rsym _ | Valueanalysis.Rpool _) -> false
    | None, (Valueanalysis.Rslot _ | Valueanalysis.Rstack _
            | Valueanalysis.Runknown) -> true
  in
  let clobbers = ref 0 in
  List.iter
    (fun b ->
       let instrs = (Cfg.block va.Valueanalysis.r_cfg b).Cfg.b_instrs in
       Array.iter
         (fun ac ->
            let idx = ac.Valueanalysis.ac_index in
            match instrs.(idx) with
            | Asm.Pstw _ | Asm.Pstfd _
              when (b, idx) <> skip && may_touch ac -> incr clobbers
            | _ -> ())
         va.Valueanalysis.r_accesses.(b))
    l.Loops.l_body;
  !clobbers

(* The exact slot key of instruction [idx] of block [b], read from the
   value analysis's access table. *)
let slot_at (va : Valueanalysis.result) (b : int) (idx : int) : int option =
  Option.bind
    (Array.find_opt
       (fun ac -> ac.Valueanalysis.ac_index = idx)
       va.Valueanalysis.r_accesses.(b))
    (fun ac -> ac.Valueanalysis.ac_slot)

(* Find register counters: Paddi (r, r, c) unique def of r in the loop.
   Also records the block holding the increment: a counter only bounds
   the loop if its step runs on EVERY back-edge traversal, which the
   caller checks by domination (a conditionally-incremented register
   looks like a counter but lets the loop spin without progress). *)
let reg_counters (cfg : Cfg.t) (l : Loops.loop) : (Asm.ireg * int * int) list =
  let candidates = ref [] in
  List.iter
    (fun b ->
       Array.iter
         (fun i ->
            match i with
            | Asm.Paddi (d, a, c) when d = a && d <> Asm.sp ->
              candidates := (d, Int32.to_int c, b) :: !candidates
            | _ -> ())
         (Cfg.block cfg b).Cfg.b_instrs)
    l.Loops.l_body;
  List.filter (fun (r, _, _) -> count_reg_defs cfg l r = 1) !candidates

(* Find slot counters: lwz rx, K; addi rx, rx, c; stw rx, K inside one
   block, with no other stores possibly touching K in the loop. *)
let slot_counters (va : Valueanalysis.result) (cfg : Cfg.t) (l : Loops.loop) :
  (int * int * int) list =
  let found = ref [] in
  List.iter
    (fun b ->
       let instrs = (Cfg.block cfg b).Cfg.b_instrs in
       for idx = 0 to Array.length instrs - 3 do
         match instrs.(idx), instrs.(idx + 1), instrs.(idx + 2) with
         | Asm.Plwz (r1, _), Asm.Paddi (r2, r3, c), Asm.Pstw (r4, _)
           when r1 = r2 && r2 = r3 && r3 = r4 ->
           (match slot_at va b idx, slot_at va b (idx + 2) with
            | Some k1, Some k2 when k1 = k2 ->
              if slot_clobbers va l k1 ~skip:(b, idx + 2) = 0 then
                found := (k1, Int32.to_int c, b) :: !found
            | _, _ -> ())
         | _, _, _ -> ()
       done)
    l.Loops.l_body;
  !found

(* The register compared in an exit block, traced back to a counter if
   possible: either the counter register itself, or a register loaded
   from the counter slot earlier in the same block with no intervening
   redefinition — that is, the block's last definition of [r] is
   "lwz r, slot". *)
let trace_to_counter (va : Valueanalysis.result) (b : int) (r : Asm.ireg)
    (regc : (Asm.ireg * int) list) (slotc : (int * int) list) :
  (counter * int) option =
  match List.assoc_opt r regc with
  | Some step -> Some (Creg r, step)
  | None ->
    let instrs = (Cfg.block va.Valueanalysis.r_cfg b).Cfg.b_instrs in
    let rec loaded_from idx =
      if idx < 0 then None
      else
        match instrs.(idx) with
        | Asm.Plwz (d, _) when d = r -> slot_at va b idx
        | i when Asm.idefs_mask i land Asm.bit r <> 0 -> None
        | _ -> loaded_from (idx - 1)
    in
    Option.bind (loaded_from (Array.length instrs - 1)) (fun k ->
        Option.map (fun step -> (Cslot k, step)) (List.assoc_opt k slotc))

(* Preheader interval of a counter: join of the counter's value along
   all entry edges of the loop. *)
let counter_init (va : Valueanalysis.result) (cfg : Cfg.t) (l : Loops.loop)
    (c : counter) : Interval.t =
  let edge_itvs =
    List.filter_map
      (fun (src, kind) ->
         match va.Valueanalysis.r_entry_states.(src) with
         | None -> None (* unreachable entry edge contributes nothing *)
         | Some st_in ->
           let blk = Cfg.block cfg src in
           let st_out = Valueanalysis.transfer_block blk st_in in
           let st_edge = Valueanalysis.edge_state blk st_out kind in
           Some
             (match c with
              | Creg r ->
                Valueanalysis.as_int_itv (Valueanalysis.get_reg st_edge r)
              | Cslot k ->
                (match Valueanalysis.find_slot st_edge k with
                 | Some v -> Valueanalysis.as_int_itv v
                 | None -> Interval.top)))
      l.Loops.l_entry_edges
  in
  match edge_itvs with
  | [] -> Interval.top
  | first :: rest -> List.fold_left Interval.join first rest

(* Bound from one exiting block, if it is a counter test executed on
   every iteration. *)
let exit_bound (va : Valueanalysis.result) (cfg : Cfg.t) (dom : Dom.t)
    (l : Loops.loop) (regc : (Asm.ireg * int) list)
    (slotc : (int * int) list) (b : int) : int option =
  let blk = Cfg.block cfg b in
  (* must dominate all back-edge sources: executed every iteration *)
  if
    not
      (List.for_all (fun (src, _) -> Dom.dominates dom b src) l.Loops.l_back_edges)
  then None
  else
    match Valueanalysis.block_branch_cond blk, Valueanalysis.block_compare blk with
    | Some cond, Some (left, right) ->
      let taken_in_loop =
        List.exists
          (fun (s, k) -> k = Cfg.Etaken && List.mem s l.Loops.l_body)
          blk.Cfg.b_succs
      in
      let continue_cmp =
        let c = Valueanalysis.comparison_of_cond cond in
        if taken_in_loop then c else Minic.Ast.negate_comparison c
      in
      let counter_left = trace_to_counter va b left regc slotc in
      let counter_info, cmp, limit_operand =
        match counter_left, right with
        | Some ci, _ -> (Some ci, continue_cmp, right)
        | None, Valueanalysis.CmpReg r ->
          (match trace_to_counter va b r regc slotc with
           | Some ci ->
             (Some ci, Minic.Ast.swap_comparison continue_cmp,
              Valueanalysis.CmpReg left)
           | None -> (None, continue_cmp, right))
        | None, Valueanalysis.CmpImm _ -> (None, continue_cmp, right)
      in
      (match counter_info with
       | None -> None
       | Some (counter, step) ->
         (* limit interval at the compare point *)
         let cmp_idx =
           let n = Array.length blk.Cfg.b_instrs in
           let rec find i =
             if i < 0 then None
             else
               match blk.Cfg.b_instrs.(i) with
               | Asm.Pcmpw _ | Asm.Pcmpwi _ -> Some i
               | _ -> find (i - 1)
           in
           find (n - 1)
         in
         (match cmp_idx with
          | None -> None
          | Some ci ->
            let limit_itv =
              match limit_operand with
              | Valueanalysis.CmpImm imm -> Some (Interval.of_const imm)
              | Valueanalysis.CmpReg r ->
                Option.bind va.Valueanalysis.r_entry_states.(b) (fun st ->
                    let st =
                      Array.fold_left Valueanalysis.transfer st
                        (Array.sub blk.Cfg.b_instrs 0 ci)
                    in
                    match Valueanalysis.get_reg st r with
                    | Valueanalysis.Vint itv when not (Interval.is_top itv) ->
                      Some itv
                    | _ -> None)
            in
            (match limit_itv with
             | None -> None
             | Some limit ->
               let init = counter_init va cfg l counter in
               if Interval.is_top init then None
               else begin
                 (* continue while: counter CMP limit *)
                 match cmp, step > 0, step < 0 with
                 | Minic.Ast.Clt, true, _ ->
                   Some (ceil_div (limit.Interval.hi - init.Interval.lo) step)
                 | Minic.Ast.Cle, true, _ ->
                   Some (ceil_div (limit.Interval.hi - init.Interval.lo + 1) step)
                 | Minic.Ast.Cgt, _, true ->
                   Some (ceil_div (init.Interval.hi - limit.Interval.lo) (-step))
                 | Minic.Ast.Cge, _, true ->
                   Some (ceil_div (init.Interval.hi - limit.Interval.lo + 1) (-step))
                 | Minic.Ast.Cne, true, _ when step = 1 ->
                   Some (max 0 (limit.Interval.hi - init.Interval.lo))
                 | Minic.Ast.Cne, _, true when step = -1 ->
                   Some (max 0 (init.Interval.hi - limit.Interval.lo))
                 | _, _, _ -> None
               end)))
    | _, _ -> None

(* Bound all loops of a function. *)
let analyze (cfg : Cfg.t) (dom : Dom.t) (loops : Loops.t)
    (va : Valueanalysis.result) : (loop_bound list, failure) Result.t =
  let bounds = ref [] in
  let failure = ref None in
  List.iter
    (fun l ->
       match annotation_bound cfg l with
       | Some n ->
         bounds :=
           { lb_header = l.Loops.l_header; lb_bound = n; lb_source = Bannot }
           :: !bounds
       | None ->
         (* A candidate counter's increment must run exactly once per
            back-edge traversal: its block has to dominate every
            back-edge source (else an iteration can skip the step and
            the loop spins without progress — the bound would be
            unsound), and must not sit in a loop nested inside this one
            (else one iteration steps several times and a <> test can
            jump over its limit). *)
         let steps_every_iteration bi =
           List.for_all
             (fun (src, _) -> Dom.dominates dom bi src)
             l.Loops.l_back_edges
           && not
                (List.exists
                   (fun l' ->
                      l'.Loops.l_header <> l.Loops.l_header
                      && List.mem l'.Loops.l_header l.Loops.l_body
                      && List.mem bi l'.Loops.l_body)
                   loops.Loops.loops)
         in
         let regc =
           List.filter_map
             (fun (r, step, bi) ->
                if steps_every_iteration bi then Some (r, step) else None)
             (reg_counters cfg l)
         in
         let slotc =
           List.filter_map
             (fun (k, step, bi) ->
                if steps_every_iteration bi then Some (k, step) else None)
             (slot_counters va cfg l)
         in
         let candidates =
           List.filter_map
             (fun b ->
                let blk = Cfg.block cfg b in
                let exits_loop =
                  List.exists
                    (fun (s, _) -> not (List.mem s l.Loops.l_body))
                    blk.Cfg.b_succs
                in
                if exits_loop then exit_bound va cfg dom l regc slotc b
                else None)
             l.Loops.l_body
         in
         (match candidates with
          | [] ->
            if !failure = None then
              failure :=
                Some
                  { fail_header = l.Loops.l_header;
                    fail_reason =
                      Printf.sprintf
                        "loop at B%d: no derivable bound (counter analysis \
                         failed and no loopbound annotation)"
                        l.Loops.l_header }
          | _ ->
            let b = List.fold_left min max_int candidates in
            bounds :=
              { lb_header = l.Loops.l_header; lb_bound = b; lb_source = Bauto }
              :: !bounds))
    loops.Loops.loops;
  match !failure with
  | Some f -> Error f
  | None -> Ok !bounds
