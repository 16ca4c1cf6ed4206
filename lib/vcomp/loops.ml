(* Natural-loop detection over RTL from back edges (an edge b -> h
   where h dominates b). The selected IR only contains reducible
   control flow — mini-C has no goto — so natural loops cover all
   cycles; like the analyzer-side [Wcet.Loops], reducibility is
   nevertheless verified, and irreducible flow makes the optimization
   pass skip the function rather than transform it unsoundly. *)

exception Irreducible of string

type loop = {
  l_header : Rtl.node;
  l_body : Rtl.node list; (* nodes in the loop, including the header *)
  l_back_srcs : Rtl.node list; (* sources of back edges into the header *)
  l_entry_preds : Rtl.node list; (* predecessors of the header outside the loop *)
}

type t = { loops : loop list }

let compute (f : Rtl.func) (dom : Dom.t) : t =
  let rpo = Rtl.reverse_postorder f in
  let preds = Array.get (Rtl.predecessors f) in
  (* find back edges *)
  let back = Hashtbl.create 17 in (* header -> back-edge source list *)
  List.iter
    (fun n ->
       List.iter
         (fun s ->
            if Dom.dominates dom s n then begin
              let cur = Option.value ~default:[] (Hashtbl.find_opt back s) in
              Hashtbl.replace back s (n :: cur)
            end)
         (Rtl.successors (Rtl.get_instr f n)))
    rpo;
  (* every retreating edge of a DFS must be a back edge, or the CFG is
     irreducible *)
  let rpo_index = Hashtbl.create 251 in
  List.iteri (fun i n -> Hashtbl.replace rpo_index n i) rpo;
  List.iter
    (fun n ->
       List.iter
         (fun s ->
            match Hashtbl.find_opt rpo_index s with
            | Some si
              when si <= Hashtbl.find rpo_index n
                   && (not (Dom.dominates dom s n))
                   && s <> n ->
              raise
                (Irreducible
                   (Printf.sprintf "%s: edge %d -> %d" f.Rtl.f_name n s))
            | _ -> ())
         (Rtl.successors (Rtl.get_instr f n)))
    rpo;
  (* natural loop of each header: union over its back edges *)
  let loops =
    Hashtbl.fold
      (fun header back_srcs acc ->
         let in_loop = Hashtbl.create 17 in
         Hashtbl.replace in_loop header ();
         let rec pull (b : Rtl.node) : unit =
           if not (Hashtbl.mem in_loop b) then begin
             Hashtbl.replace in_loop b ();
             List.iter pull (preds b)
           end
         in
         List.iter pull back_srcs;
         let body =
           Hashtbl.fold (fun b () acc -> b :: acc) in_loop []
           |> List.sort compare
         in
         let entry_preds =
           List.filter (fun p -> not (Hashtbl.mem in_loop p)) (preds header)
           |> List.sort compare
         in
         { l_header = header;
           l_body = body;
           l_back_srcs = List.sort compare back_srcs;
           l_entry_preds = entry_preds }
         :: acc)
      back []
  in
  (* deterministic order: innermost (smallest body) first, header as
     tie-break, so LICM visits loops in a fixed order *)
  let loops =
    List.sort
      (fun a b ->
         match compare (List.length a.l_body) (List.length b.l_body) with
         | 0 -> compare a.l_header b.l_header
         | c -> c)
      loops
  in
  { loops }
