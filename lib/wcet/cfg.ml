(* Control-flow reconstruction from binary-level assembly — the first
   phase of the aiT-style analyzer (paper Figure 1 of Gebhard et al.;
   our target paper relies on the same architecture: decode, loop/value
   analysis, cache/pipeline analysis, path analysis).

   The decoder splits a function's instruction stream into basic blocks
   at labels and after branches, and recovers the edge structure with
   the branch direction (taken / fall-through) that the pipeline
   analysis needs for edge costs. *)

module Asm = Target.Asm

type edge_kind =
  | Etaken        (* conditional or unconditional jump taken *)
  | Efall         (* fall-through *)

type block = {
  b_id : int;
  b_instrs : Asm.instr array; (* without the leading label *)
  b_addr : int;               (* address of the first instruction *)
  b_size : int;               (* bytes *)
  b_succs : (int * edge_kind) list;
  b_is_exit : bool;           (* ends in blr *)
}

type t = {
  c_blocks : block array;  (* indexed by block id *)
  c_entry : int;
  c_fname : string;
}

exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* Split [code] into basic blocks. Leaders: the first instruction, every
   label, every instruction following a branch. *)
let build (fname : string) (base_addr : int) (code : Asm.instr list) : t =
  let instrs = Array.of_list code in
  let n = Array.length instrs in
  if n = 0 then fail "empty function %s" fname;
  (* addresses *)
  let addr = Array.make (n + 1) base_addr in
  for i = 0 to n - 1 do
    addr.(i + 1) <- addr.(i) + Asm.instr_size instrs.(i)
  done;
  (* label -> instruction index *)
  let label_at = Hashtbl.create 61 in
  Array.iteri
    (fun i instr ->
       match instr with
       | Asm.Plabel l -> Hashtbl.replace label_at l i
       | _ -> ())
    instrs;
  let target (l : Asm.label) : int =
    match Hashtbl.find_opt label_at l with
    | Some i -> i
    | None -> fail "undefined label %d in %s" l fname
  in
  (* leaders *)
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun i instr ->
       match instr with
       | Asm.Plabel _ -> leader.(i) <- true
       | Asm.Pb l -> if i + 1 < n then leader.(i + 1) <- true;
         leader.(target l) <- true
       | Asm.Pbc (_, l) ->
         if i + 1 < n then leader.(i + 1) <- true;
         leader.(target l) <- true
       | Asm.Pblr -> if i + 1 < n then leader.(i + 1) <- true
       | _ -> ())
    instrs;
  (* assign block ids to leaders *)
  let block_of_index = Array.make n (-1) in
  let starts = ref [] in
  let nblocks = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then begin
      starts := i :: !starts;
      incr nblocks
    end;
    block_of_index.(i) <- !nblocks - 1
  done;
  let starts = Array.of_list (List.rev !starts) in
  let nb = !nblocks in
  let block_end (b : int) : int =
    if b + 1 < nb then starts.(b + 1) else n
  in
  let blocks =
    Array.init nb (fun b ->
        let s = starts.(b) and e = block_end b in
        (* strip leading labels from the instruction view *)
        let body = ref [] in
        for i = e - 1 downto s do
          match instrs.(i) with
          | Asm.Plabel _ -> ()
          | instr -> body := instr :: !body
        done;
        let b_instrs = Array.of_list !body in
        let succs =
          if e = s then [ (b + 1, Efall) ] (* label-only block *)
          else
            match instrs.(e - 1) with
            | Asm.Pb l -> [ (block_of_index.(target l), Etaken) ]
            | Asm.Pbc (_, l) ->
              let fall =
                if e < n then [ (block_of_index.(e), Efall) ] else []
              in
              (block_of_index.(target l), Etaken) :: fall
            | Asm.Pblr -> []
            | _ -> if e < n then [ (block_of_index.(e), Efall) ] else []
        in
        let is_exit =
          e > s && (match instrs.(e - 1) with Asm.Pblr -> true | _ -> false)
        in
        { b_id = b;
          b_instrs;
          b_addr = addr.(s);
          b_size = addr.(e) - addr.(s);
          b_succs = succs;
          b_is_exit = is_exit })
  in
  { c_blocks = blocks; c_entry = 0; c_fname = fname }

let block (cfg : t) (b : int) : block = cfg.c_blocks.(b)

let num_blocks (cfg : t) : int = Array.length cfg.c_blocks

let successors (cfg : t) (b : int) : (int * edge_kind) list =
  cfg.c_blocks.(b).b_succs

(* Predecessor lists. *)
let predecessors (cfg : t) : int list array =
  let preds = Array.make (num_blocks cfg) [] in
  Array.iter
    (fun blk ->
       List.iter
         (fun (s, _) -> preds.(s) <- blk.b_id :: preds.(s))
         blk.b_succs)
    cfg.c_blocks;
  preds

let graph (cfg : t) : edge_kind Flow.graph =
  { Flow.entry = cfg.c_entry; succs = Array.map (fun b -> b.b_succs) cfg.c_blocks }

let reverse_postorder (cfg : t) : int list = Flow.reverse_postorder (graph cfg)

(* The worklist iteration shared by the value and must-cache analyses.
   Pending blocks are processed smallest reverse-postorder rank first:
   a join block waits until its forward predecessors are done, and a
   loop body settles before the blocks after the loop run. Each
   processed block costs one [Fuel.tick] and one unit of [fuel]. *)
module Ranks = Set.Make (Int)

let fixpoint ~(fuel : int) ~(what : string) (cfg : t) (init : 'a)
    ~(step : int -> 'a -> (int * 'a) list)
    ~(merge : int -> 'a -> 'a -> 'a option) : 'a option array =
  let order = Array.of_list (reverse_postorder cfg) in
  let rank = Array.make (num_blocks cfg) max_int in
  Array.iteri (fun r b -> rank.(b) <- r) order;
  let states = Array.make (num_blocks cfg) None in
  states.(cfg.c_entry) <- Some init;
  let pending = ref (Ranks.singleton rank.(cfg.c_entry)) in
  let iters = ref 0 in
  while not (Ranks.is_empty !pending) do
    incr iters;
    Fuel.tick ();
    if !iters > fuel then Fuel.exhaust what;
    let r = Ranks.min_elt !pending in
    pending := Ranks.remove r !pending;
    let b = order.(r) in
    match states.(b) with
    | None -> ()
    | Some st ->
      List.iter
        (fun (s, incoming) ->
           let updated =
             match states.(s) with
             | None -> Some incoming
             | Some old -> merge s old incoming
           in
           match updated with
           | Some st' ->
             states.(s) <- Some st';
             pending := Ranks.add rank.(s) !pending
           | None -> ())
        (step b st)
  done;
  states
