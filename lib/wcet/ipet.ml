(* Path analysis by implicit path enumeration (IPET): the worst case is
   the costliest assignment of execution counts to the CFG's edges under
   flow conservation and the loop bounds (Li & Malik's integer linear
   program, as aiT uses it).

   Variables are edge execution counts (plus one virtual exit edge per
   exit block). A block's cost is charged on its outgoing edges (every
   execution leaves the block exactly once), edge costs add the branch
   direction penalty. Loop-bound constraints limit back-edge flow
   relative to loop-entry flow.

   On reducible flow this program needs no solver: its optimum is a
   longest path over the loop nest ([flow_bound]), and the optimum is
   integral. Split any feasible flow into entry-to-exit paths and simple
   cycles. Each simple cycle takes exactly one back edge, to the header
   of its loop, and enters every loop nested in that one through an
   entry edge. A loop with bound b is entered by one unit of flow at a
   time and then takes at most b cycles, each worth at most the costliest
   path from its header to one of its back edges. So the program's value
   is at most the costliest acyclic path from the entry to an exit that
   adds, at every loop header it enters, b times the header's costliest
   cycle (or nothing, when that is negative). That path, with its cycles,
   is an integral flow, so it is the optimum.

   The flow system itself ([build_system]) is what the OMT engine
   ([Smt]) strengthens with semantic infeasible-path cut constraints and
   hands to the exact simplex ([Lp]): both engines optimize exactly the
   same objective over the same edge variables, so their bounds are
   comparable cycle for cycle (the foundation of the [omt <= ipet]
   differential oracle). *)

exception Analysis_failed of string

type edge = {
  e_src : int;
  e_dst : int option; (* None: virtual exit edge *)
  e_kind : Cfg.edge_kind;
}

(* The structural ILP: edge variables (index into [sys_edges]), the
   cycle-cost objective, flow conservation and loop-bound constraints. *)
type system = {
  sys_edges : edge array;
  sys_objective : Lp.Q.t array;
  sys_constraints : Lp.constr list;
}

type result = {
  ipet_wcet : int;          (* cycles, including cache first-miss budget *)
  ipet_exact : bool;        (* the integral optimum, not a relaxation *)
  ipet_flow_cycles : int;   (* objective without the first-miss budget *)
}

let overflow () = raise (Analysis_failed "LP arithmetic overflow")

(* Overflow-checked arithmetic on path values. [none] marks "no path":
   it absorbs every sum, and no finite value may reach it. *)
let none = min_int

let add (a : int) (b : int) : int =
  if a = none || b = none then none
  else begin
    let s = a + b in
    if ((a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0)) || s = none then
      overflow ();
    s
  end

let mul (a : int) (b : int) : int =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || p = none then overflow ();
    p
  end

let bound_of (bounds : Boundanalysis.loop_bound list) (header : int) : int =
  match
    List.find_opt (fun lb -> lb.Boundanalysis.lb_header = header) bounds
  with
  | Some lb -> lb.Boundanalysis.lb_bound
  | None ->
    raise (Analysis_failed (Printf.sprintf "loop at B%d has no bound" header))

let no_edges () = raise (Analysis_failed "no edges (missing blr?)")

(* The longest-path pass. [iter.(h)] is the most a loop headed at [h]
   adds per entry: its bound times its costliest cycle, where a cycle's
   cost already counts [iter] of the loops it enters. Loops are solved
   innermost first (a nested loop's body is strictly smaller), each by a
   sweep over its body; a last sweep over the whole function goes
   towards the exits. A sweep visits blocks in postorder, which puts
   every forward edge's target first: in a reducible CFG every
   retreating edge is a back edge, and sweeps never follow back edges. *)
let flow_bound ?(fuel = Fuel.default) (cfg : Cfg.t) (pl : Pipeline.t)
    (loops : Loops.t) (bounds : Boundanalysis.loop_bound list) : int =
  let rpo = Array.of_list (Cfg.reverse_postorder cfg) in
  if
    not
      (Array.exists
         (fun b ->
            let blk = Cfg.block cfg b in
            blk.Cfg.b_succs <> [] || blk.Cfg.b_is_exit)
         rpo)
  then no_edges ();
  let loops =
    List.map (fun l -> (l, bound_of bounds l.Loops.l_header)) loops.Loops.loops
  in
  let nb = Cfg.num_blocks cfg in
  (* [body.(h)]: membership in the body of the loop headed at [h] *)
  let body = Array.make nb [||] in
  List.iter
    (fun (l, _) ->
       let m = Array.make nb false in
       List.iter (fun b -> m.(b) <- true) l.Loops.l_body;
       body.(l.Loops.l_header) <- m)
    loops;
  let is_back src dst = Array.length body.(dst) > 0 && body.(dst).(src) in
  let budget = ref fuel.Fuel.fl_simplex in
  let iter = Array.make nb 0 in
  let best = Array.make nb none in
  (* [best.(v) <- value v] for the blocks [v] in [inside], in postorder *)
  let sweep inside value =
    for i = Array.length rpo - 1 downto 0 do
      let v = rpo.(i) in
      if inside v then begin
        Fuel.tick ();
        if !budget <= 0 then Fuel.exhaust "IPET longest path";
        decr budget;
        best.(v) <- value v
      end
    done
  in
  let edge_cost b kind =
    add pl.Pipeline.pl_block_cost.(b) (Pipeline.edge_cost pl b kind)
  in
  (* the costliest way on from [v] along its edge to [w] *)
  let via v w kind = add (edge_cost v kind) (add iter.(w) best.(w)) in
  List.iter
    (fun (l, bound) ->
       let h = l.Loops.l_header and inside = body.(l.Loops.l_header) in
       sweep
         (fun v -> inside.(v))
         (fun v ->
            List.fold_left
              (fun acc (w, kind) ->
                 if w = h then max acc (edge_cost v kind)
                 else if inside.(w) && not (is_back v w) then
                   max acc (via v w kind)
                 else acc)
              none (Cfg.successors cfg v));
       iter.(h) <- (if best.(h) = none then 0 else max 0 (mul best.(h) bound)))
    (List.stable_sort
       (fun (a, _) (b, _) ->
          compare (List.length a.Loops.l_body) (List.length b.Loops.l_body))
       loops);
  sweep
    (fun _ -> true)
    (fun v ->
       let blk = Cfg.block cfg v in
       List.fold_left
         (fun acc (w, kind) ->
            if is_back v w then acc else max acc (via v w kind))
         (if blk.Cfg.b_is_exit then edge_cost v Cfg.Etaken else none)
         blk.Cfg.b_succs);
  let entry = cfg.Cfg.c_entry in
  if best.(entry) = none then raise (Analysis_failed "IPET infeasible");
  add iter.(entry) best.(entry)

(* The same program as an explicit system for [Lp], which the OMT engine
   extends with its cuts. Each block's incident edges are listed once,
   while the edges are enumerated, so a conservation row costs the
   block's degree, not the function's edge count. *)
let build_system (cfg : Cfg.t) (pl : Pipeline.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : system =
  let q_of_int n = try Lp.Q.of_int n with Lp.Overflow -> overflow () in
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
           (Lp.Q.add q (Option.value ~default:Lp.Q.zero (Hashtbl.find_opt coeffs j)))
       in
       List.iter
         (fun j ->
            let e = edges.(j) in
            if e.e_src = b then bump j Lp.Q.one;
            match e.e_dst with
            | Some d when d = b -> bump j (Lp.Q.neg Lp.Q.one)
            | _ -> ())
         (List.rev touching.(b));
       let cs_coeffs =
         Hashtbl.fold (fun j q acc -> (j, q) :: acc) coeffs []
         |> List.filter (fun (_, q) -> not (Lp.Q.is_zero q))
       in
       constraints :=
         { Lp.cs_coeffs;
           cs_rel = Lp.Eq;
           cs_rhs =
             (if b = cfg.Cfg.c_entry then Lp.Q.one else Lp.Q.zero) }
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
              (fun j -> coeffs := (j, Lp.Q.one) :: !coeffs)
              (edge_into header be))
         l.Loops.l_back_edges;
       List.iter
         (fun ee ->
            Option.iter
              (fun j -> coeffs := (j, q_of_int (-bound)) :: !coeffs)
              (edge_into header ee))
         l.Loops.l_entry_edges;
       constraints :=
         { Lp.cs_coeffs = !coeffs;
           cs_rel = Lp.Le;
           cs_rhs = q_of_int (if header = cfg.Cfg.c_entry then bound else 0) }
         :: !constraints)
    loops.Loops.loops;
  { sys_edges = edges;
    sys_objective = objective;
    sys_constraints = !constraints }

(* Maximize the system's objective (optionally under extra constraints,
   e.g. the OMT engine's cuts) with the branch & bound ILP solver.
   Returns the flow-cycle bound; first-miss budgeting is the caller's. *)
let solve_system ?(fuel = Fuel.default) ?(extra = []) (sys : system) :
  Lp.int_solution =
  let pb =
    { Lp.pb_nvars = Array.length sys.sys_edges;
      pb_objective = sys.sys_objective;
      pb_constraints = extra @ sys.sys_constraints }
  in
  match
    Lp.solve_integer ~fuel:fuel.Fuel.fl_simplex
      ~max_nodes:fuel.Fuel.fl_bb_nodes pb
  with
  | exception Lp.Infeasible -> raise (Analysis_failed "IPET infeasible")
  | exception Lp.Unbounded ->
    raise (Analysis_failed "IPET unbounded (missing loop bound?)")
  | exception Lp.Overflow -> raise (Analysis_failed "LP arithmetic overflow")
  | sol ->
    if sol.Lp.is_objective_bound = min_int then
      raise (Analysis_failed "IPET infeasible");
    sol

let compute ?(fuel = Fuel.default) (cfg : Cfg.t) (pl : Pipeline.t)
    (cache : Cacheanalysis.t) (loops : Loops.t)
    (bounds : Boundanalysis.loop_bound list) : result =
  let flow = flow_bound ~fuel cfg pl loops bounds in
  { ipet_wcet = add flow cache.Cacheanalysis.ca_first_miss;
    ipet_exact = true;
    ipet_flow_cycles = flow }
