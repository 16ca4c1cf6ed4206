(* Reference dominance and natural-loop scan.

   [dominates] is the reachability-removal oracle for [Flow.dominates]
   (and so [Wcet.Dom.dominates]), O(n) per query.

   [loops] is [Flow.loops] as it was before it tested dominance on
   retreating edges alone. Every edge out of a reachable node runs the
   [Flow.dominates] walk, and a retreating edge whose target
   does not dominate its source raises [Irreducible]. Ranks and
   predecessors are rebuilt here from the graph and the public
   [Flow.reverse_postorder]; the back-edge table has the same initial
   size and is filled in the same ascending scan, so the loops come out
   in the same order. *)

let loops (g : 'e Flow.graph) (d : 'e Flow.t) : 'e Flow.loop list =
  let n = Array.length g.Flow.succs in
  let rank = Array.make n (-1) in
  List.iteri (fun i b -> rank.(b) <- i) (Flow.reverse_postorder g);
  let preds = Array.make n [] in
  Array.iteri
    (fun b succs ->
       if rank.(b) <> -1 then
         List.iter (fun (s, _) -> preds.(s) <- b :: preds.(s)) succs)
    g.Flow.succs;
  let iter_edges f =
    Array.iteri
      (fun b succs ->
         if rank.(b) <> -1 then List.iter (fun (s, k) -> f b s k) succs)
      g.Flow.succs
  in
  let back = Hashtbl.create 17 in
  iter_edges (fun b s k ->
      if Flow.dominates d s b then
        let cur = Option.value ~default:[] (Hashtbl.find_opt back s) in
        Hashtbl.replace back s ((b, k) :: cur)
      else if rank.(s) <= rank.(b) then raise (Flow.Irreducible (b, s)));
  Hashtbl.fold
    (fun header back_edges acc ->
       let in_loop = Array.make n false in
       in_loop.(header) <- true;
       let rec pull b =
         if not in_loop.(b) then begin
           in_loop.(b) <- true;
           List.iter pull preds.(b)
         end
       in
       List.iter (fun (b, _) -> pull b) back_edges;
       let body = ref [] and entry_edges = ref [] in
       for b = n - 1 downto 0 do
         if in_loop.(b) then body := b :: !body
       done;
       iter_edges (fun b s k ->
           if s = header && not in_loop.(b) then
             entry_edges := (b, k) :: !entry_edges);
       { Flow.l_header = header;
         l_body = !body;
         l_back_edges = back_edges;
         l_entry_edges = List.rev !entry_edges }
       :: acc)
    back []

(* [a] dominates [b] iff [b] is reachable from the entry, and is not
   once [a] is removed from the graph. *)
let dominates (g : 'e Flow.graph) (a : int) (b : int) : bool =
  let reaches_b ~avoid =
    let seen = Array.make (Array.length g.Flow.succs) false in
    let rec dfs x =
      if x <> avoid && not seen.(x) then begin
        seen.(x) <- true;
        List.iter (fun (s, _) -> dfs s) g.Flow.succs.(x)
      end
    in
    dfs g.Flow.entry;
    seen.(b)
  in
  reaches_b ~avoid:(-1) && (a = b || not (reaches_b ~avoid:a))
