(* Dominators and natural loops over an int-indexed control-flow graph,
   shared by the compiler's loop-invariant code motion (over RTL) and the
   WCET analyzer (over reconstructed machine-code CFGs). Only nodes
   reachable from the entry take part: an unreachable node dominates
   nothing, is dominated by nothing and lies in no loop. *)

module Intmap = Intmap

type 'e graph = {
  entry : int;
  succs : (int * 'e) list array;
}

let reverse_postorder (g : 'e graph) : int list =
  let visited = Array.make (Array.length g.succs) false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter (fun (s, _) -> dfs s) g.succs.(b);
      order := b :: !order
    end
  in
  dfs g.entry;
  !order

type 'e t = {
  graph : 'e graph;
  rank : int array;        (* reverse-postorder position; -1 if unreachable *)
  preds : int list array;  (* reachable predecessors *)
  idom : int array;        (* entry maps to itself; -1 if unreachable *)
}

(* Cooper–Harvey–Kennedy iterative dominators. *)
let dominators (g : 'e graph) : 'e t =
  let n = Array.length g.succs in
  let rpo = reverse_postorder g in
  let rank = Array.make n (-1) in
  List.iteri (fun i b -> rank.(b) <- i) rpo;
  let preds = Array.make n [] in
  List.iter
    (fun b -> List.iter (fun (s, _) -> preds.(s) <- b :: preds.(s)) g.succs.(b))
    rpo;
  let idom = Array.make n (-1) in
  idom.(g.entry) <- g.entry;
  let rec intersect a b =
    if a = b then a
    else if rank.(a) > rank.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
         if b <> g.entry then
           match List.filter (fun p -> idom.(p) <> -1) preds.(b) with
           | [] -> ()
           | first :: rest ->
             let d = List.fold_left intersect first rest in
             if idom.(b) <> d then begin
               idom.(b) <- d;
               changed := true
             end)
      rpo
  done;
  { graph = g; rank; preds; idom }

let dominates (d : 'e t) (a : int) (b : int) : bool =
  let rec up x = x = a || (d.idom.(x) <> x && up d.idom.(x)) in
  d.idom.(b) <> -1 && up b

(* [a] dominates [b] iff [b] is reachable from the entry, and is not
   once [a] is removed from the graph. *)
let dominates_naive (g : 'e graph) (a : int) (b : int) : bool =
  let reaches_b ~avoid =
    let seen = Array.make (Array.length g.succs) false in
    let rec dfs x =
      if x <> avoid && not seen.(x) then begin
        seen.(x) <- true;
        List.iter (fun (s, _) -> dfs s) g.succs.(x)
      end
    in
    dfs g.entry;
    seen.(b)
  in
  reaches_b ~avoid:(-1) && (a = b || not (reaches_b ~avoid:a))

exception Irreducible of int * int

type 'e loop = {
  l_header : int;
  l_body : int list;
  l_back_edges : (int * 'e) list;
  l_entry_edges : (int * 'e) list;
}

(* [f src dst label] on every edge out of a reachable node, sources in
   ascending order, each source's successors in list order. *)
let iter_edges (d : 'e t) (f : int -> int -> 'e -> unit) : unit =
  Array.iteri
    (fun b succs ->
       if d.rank.(b) <> -1 then List.iter (fun (s, k) -> f b s k) succs)
    d.graph.succs

let loops (d : 'e t) : 'e loop list =
  let n = Array.length d.idom in
  (* The analyzer's reports list loops in this table's fold order, so its
     initial size and the ascending scan that fills it are visible output.
     A dominator of [b] comes no later than [b] in reverse postorder, so
     only a retreating edge can be a back edge: the O(depth) [dominates]
     walk runs on those alone, and the scan stays linear on code without
     loops. *)
  let back = Hashtbl.create 17 in
  iter_edges d (fun b s k ->
      if d.rank.(s) <= d.rank.(b) then
        if dominates d s b then
          let cur = Option.value ~default:[] (Hashtbl.find_opt back s) in
          Hashtbl.replace back s ((b, k) :: cur)
        else
          (* retreating but not a back edge: a cycle with two entries *)
          raise (Irreducible (b, s)));
  Hashtbl.fold
    (fun header back_edges acc ->
       let in_loop = Array.make n false in
       in_loop.(header) <- true;
       let rec pull b =
         if not in_loop.(b) then begin
           in_loop.(b) <- true;
           List.iter pull d.preds.(b)
         end
       in
       List.iter (fun (b, _) -> pull b) back_edges;
       let body = ref [] and entry_edges = ref [] in
       for b = n - 1 downto 0 do
         if in_loop.(b) then body := b :: !body
       done;
       iter_edges d (fun b s k ->
           if s = header && not in_loop.(b) then
             entry_edges := (b, k) :: !entry_edges);
       { l_header = header;
         l_body = !body;
         l_back_edges = back_edges;
         l_entry_edges = List.rev !entry_edges }
       :: acc)
    back []
