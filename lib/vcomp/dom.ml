(* Dominator computation over RTL control-flow graphs (Cooper–Harvey–
   Kennedy iterative algorithm), the prerequisite of natural-loop
   detection for loop-invariant code motion. Mirrors the shape of the
   downstream analyzer's [Wcet.Dom], which runs on reconstructed
   machine-code CFGs; this one runs on the compiler's own IR, where
   every node carries a single instruction. *)

type t = {
  d_idom : int array;
      (* immediate dominator; entry maps to itself; nodes unreachable
         from the entry map to -1 *)
  d_rpo_index : int array;
}

let compute (f : Rtl.func) : t =
  let n = f.Rtl.f_next_node in
  let rpo = Rtl.reverse_postorder f in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let preds = Array.get (Rtl.predecessors f) in
  let idom = Array.make n (-1) in
  idom.(f.Rtl.f_entry) <- f.Rtl.f_entry;
  let rec intersect (a : int) (b : int) : int =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
         if b <> f.Rtl.f_entry then begin
           let processed = List.filter (fun p -> idom.(p) <> -1) (preds b) in
           match processed with
           | [] -> ()
           | first :: rest ->
             let new_idom = List.fold_left intersect first rest in
             if idom.(b) <> new_idom then begin
               idom.(b) <- new_idom;
               changed := true
             end
         end)
      rpo
  done;
  { d_idom = idom; d_rpo_index = rpo_index }

(* Does [a] dominate [b]? Both must be nodes that existed when the
   dominator tree was computed. *)
let dominates (d : t) (a : int) (b : int) : bool =
  let rec up (x : int) : bool =
    if x = a then true
    else if x = -1 || d.d_idom.(x) = x then x = a
    else up d.d_idom.(x)
  in
  up b

(* Naive O(n^2) recomputation used by property tests: [a] dominates [b]
   iff removing [a] makes [b] unreachable from the entry. *)
let dominates_naive (f : Rtl.func) (a : int) (b : int) : bool =
  if a = b then true
  else begin
    let visited = Hashtbl.create 251 in
    let rec dfs x =
      if (not (Hashtbl.mem visited x)) && x <> a then begin
        Hashtbl.replace visited x ();
        List.iter dfs (Rtl.successors (Rtl.get_instr f x))
      end
    in
    dfs f.Rtl.f_entry;
    let reachable = Hashtbl.create 251 in
    let rec dfs2 x =
      if not (Hashtbl.mem reachable x) then begin
        Hashtbl.replace reachable x ();
        List.iter dfs2 (Rtl.successors (Rtl.get_instr f x))
      end
    in
    dfs2 f.Rtl.f_entry;
    Hashtbl.mem reachable b && not (Hashtbl.mem visited b)
  end
