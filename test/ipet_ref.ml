(* Reference IPET: the flow program as an explicit integer linear
   system over edge-count variables, solved by the exact simplex with
   branch & bound ([Lp_ref]). This is how the analyzer solved path
   analysis before the longest-path pass ([Wcet.Ipet]) and the OMT
   engine's search over cuts ([Wcet.Smt]); the tests compare both
   against it. Refusals carry the analyzer's messages, as
   [Wcet.Ipet.Analysis_failed]. *)

module Cfg = Wcet.Cfg
module Loops = Wcet.Loops
module Pipeline = Wcet.Pipeline
module Boundanalysis = Wcet.Boundanalysis

let fail m = raise (Wcet.Ipet.Analysis_failed m)
let overflow () = fail "LP arithmetic overflow"
let no_edges () = fail "no edges (missing blr?)"

(* overflow-checked, as the analyzer's path values are *)
let add (a : int) (b : int) : int =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then overflow ();
  s

let bound_of (bounds : Boundanalysis.loop_bound list) (header : int) : int =
  match
    List.find_opt (fun lb -> lb.Boundanalysis.lb_header = header) bounds
  with
  | Some lb -> lb.Boundanalysis.lb_bound
  | None -> fail (Printf.sprintf "loop at B%d has no bound" header)

type edge = {
  e_src : int;
  e_dst : int option; (* None: virtual exit edge *)
  e_kind : Cfg.edge_kind;
}

(* The structural ILP: edge variables (index into [sys_edges]), the
   cycle-cost objective, flow conservation and loop-bound constraints. *)
type system = {
  sys_edges : edge array;
  sys_objective : Lp_ref.Q.t array;
  sys_constraints : Lp_ref.constr list;
}

(* The flow program as an explicit system. Each block's incident edges are listed once,
   while the edges are enumerated, so a conservation row costs the
   block's degree, not the function's edge count. *)
let build_system (cfg : Cfg.t) (pl : Pipeline.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : system =
  let q_of_int n = try Lp_ref.Q.of_int n with Lp_ref.Overflow -> overflow () in
  let reachable = Cfg.reverse_postorder cfg in
  let nb = Cfg.num_blocks cfg in
  (* enumerate edges; [outs.(b)]/[touching.(b)]: indices of the edges
     leaving/touching [b], in descending order *)
  let edges = ref [] in
  let nedges = ref 0 in
  let outs = Array.make nb [] in
  let touching = Array.make nb [] in
  let add_edge (e : edge) : unit =
    let j = !nedges in
    outs.(e.e_src) <- j :: outs.(e.e_src);
    touching.(e.e_src) <- j :: touching.(e.e_src);
    (match e.e_dst with
     | Some d when d <> e.e_src -> touching.(d) <- j :: touching.(d)
     | _ -> ());
    edges := e :: !edges;
    incr nedges
  in
  List.iter
    (fun b ->
       let blk = Cfg.block cfg b in
       List.iter
         (fun (s, k) -> add_edge { e_src = b; e_dst = Some s; e_kind = k })
         blk.Cfg.b_succs;
       if blk.Cfg.b_is_exit then
         add_edge { e_src = b; e_dst = None; e_kind = Cfg.Etaken })
    reachable;
  let edges = Array.of_list (List.rev !edges) in
  (* single block, no edges at all: straight-line exit-less code is
     malformed; treat as failure *)
  if Array.length edges = 0 then no_edges ();
  (* objective: edge coefficient = block cost of source + edge cost *)
  let objective =
    Array.map
      (fun e ->
         q_of_int
           (add pl.Pipeline.pl_block_cost.(e.e_src)
              (Pipeline.edge_cost pl e.e_src e.e_kind)))
      edges
  in
  (* flow conservation: for each block b:
       sum(out edges of b) - sum(in edges of b) = (b = entry ? 1 : 0)
     The row lists its coefficients in the fold order of a table filled
     in ascending edge order, which the simplex's pivoting sees. *)
  let constraints = ref [] in
  List.iter
    (fun b ->
       let coeffs = Hashtbl.create 7 in
       let bump j q =
         Hashtbl.replace coeffs j
           (Lp_ref.Q.add q (Option.value ~default:Lp_ref.Q.zero (Hashtbl.find_opt coeffs j)))
       in
       List.iter
         (fun j ->
            let e = edges.(j) in
            if e.e_src = b then bump j Lp_ref.Q.one;
            match e.e_dst with
            | Some d when d = b -> bump j (Lp_ref.Q.neg Lp_ref.Q.one)
            | _ -> ())
         (List.rev touching.(b));
       let cs_coeffs =
         Hashtbl.fold (fun j q acc -> (j, q) :: acc) coeffs []
         |> List.filter (fun (_, q) -> not (Lp_ref.Q.is_zero q))
       in
       constraints :=
         { Lp_ref.cs_coeffs;
           cs_rel = Lp_ref.Eq;
           cs_rhs =
             (if b = cfg.Cfg.c_entry then Lp_ref.Q.one else Lp_ref.Q.zero) }
         :: !constraints)
    reachable;
  (* the edge from [src] into [header] along [kind] *)
  let edge_into header (src, kind) =
    List.find_opt
      (fun j -> edges.(j).e_dst = Some header && edges.(j).e_kind = kind)
      outs.(src)
  in
  (* loop bounds: sum(back edges) <= bound * sum(entry edges). When the
     header is the function entry, the virtual entry flow contributes
     the constant 1 to the right-hand side. *)
  List.iter
    (fun l ->
       let header = l.Loops.l_header in
       let bound = bound_of bounds header in
       let coeffs = ref [] in
       List.iter
         (fun be ->
            Option.iter
              (fun j -> coeffs := (j, Lp_ref.Q.one) :: !coeffs)
              (edge_into header be))
         l.Loops.l_back_edges;
       List.iter
         (fun ee ->
            Option.iter
              (fun j -> coeffs := (j, q_of_int (-bound)) :: !coeffs)
              (edge_into header ee))
         l.Loops.l_entry_edges;
       constraints :=
         { Lp_ref.cs_coeffs = !coeffs;
           cs_rel = Lp_ref.Le;
           cs_rhs = q_of_int (if header = cfg.Cfg.c_entry then bound else 0) }
         :: !constraints)
    loops.Loops.loops;
  { sys_edges = edges;
    sys_objective = objective;
    sys_constraints = !constraints }

(* Maximize the system's objective (optionally under extra constraints,
   e.g. the OMT engine's cuts) with the branch & bound ILP solver.
   Returns the flow-cycle bound; first-miss budgeting is the caller's. *)
let solve_system ?(fuel = Wcet.Fuel.default) ?(extra = []) (sys : system) :
  Lp_ref.int_solution =
  let pb =
    { Lp_ref.pb_nvars = Array.length sys.sys_edges;
      pb_objective = sys.sys_objective;
      pb_constraints = extra @ sys.sys_constraints }
  in
  match
    Lp_ref.solve_integer ~fuel:fuel.Wcet.Fuel.fl_simplex
      ~max_nodes:fuel.Wcet.Fuel.fl_bb_nodes pb
  with
  | exception Lp_ref.Infeasible -> fail "IPET infeasible"
  | exception Lp_ref.Unbounded ->
    fail "IPET unbounded (missing loop bound?)"
  | exception Lp_ref.Overflow -> overflow ()
  | sol ->
    if sol.Lp_ref.is_objective_bound = min_int then
      fail "IPET infeasible";
    sol

(* The OMT cuts as rows [x_a + x_b <= 1] over the system's variables. *)
let cut_rows (sys : system) (cuts : Wcet.Smt.cut list) : Lp_ref.constr list =
  let var (src, kind) =
    let found = ref None in
    Array.iteri
      (fun j e ->
         if e.e_src = src && e.e_kind = kind && e.e_dst <> None then
           found := Some j)
      sys.sys_edges;
    match !found with
    | Some j -> j
    | None -> invalid_arg "Ipet_ref.cut_rows: no such edge"
  in
  List.map
    (fun (a, b) ->
       { Lp_ref.cs_coeffs = [ (var a, Lp_ref.Q.one); (var b, Lp_ref.Q.one) ];
         cs_rel = Lp_ref.Le;
         cs_rhs = Lp_ref.Q.one })
    cuts
