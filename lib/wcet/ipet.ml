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

   The OMT engine ([Smt]) searches the same paths under its semantic
   infeasible-path cuts, re-running the last sweep of this pass with
   some edges forbidden ([resweep]). Both engines optimize exactly the
   same objective over the same paths, so their bounds are comparable
   cycle for cycle (the foundation of the [omt <= ipet] differential
   oracle). *)

exception Analysis_failed of string

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
   retreating edge is a back edge, and sweeps never follow back edges.

   The loop tables ([body], [iter]) are kept with the last sweep's
   values, so the OMT search can re-run only the top-level sweep with
   some edges forbidden ([resweep]): its cut edges lie outside every
   loop body, so no loop table depends on them. *)
type sweep = {
  sw_cfg : Cfg.t;
  sw_pl : Pipeline.t;
  sw_rpo : int array;
  sw_body : bool array array; (* [.(h)]: the body of the loop at [h] *)
  sw_iter : int array;
  sw_forbid : (int * Cfg.edge_kind) list;
  sw_best : int array;
      (* the costliest way from each block to an exit, [none] if none *)
}

(* [best.(v) <- value v] for the blocks [v] in [inside], in postorder;
   one unit of [budget] and one [Fuel.tick] per block *)
let visit budget rpo best inside value =
  for i = Array.length rpo - 1 downto 0 do
    let v = rpo.(i) in
    if inside v then begin
      Fuel.tick ();
      if !budget <= 0 then Fuel.exhaust "IPET longest path";
      decr budget;
      best.(v) <- value v
    end
  done

let is_back t src dst =
  Array.length t.sw_body.(dst) > 0 && t.sw_body.(dst).(src)

let edge_cost t b kind =
  add t.sw_pl.Pipeline.pl_block_cost.(b) (Pipeline.edge_cost t.sw_pl b kind)

(* the costliest way on from [v] along its edge to [w] *)
let via t best v w kind = add (edge_cost t v kind) (add t.sw_iter.(w) best.(w))

let forbidden t v kind =
  match t.sw_forbid with [] -> false | l -> List.mem (v, kind) l

(* the top-level sweep into [best]: the costliest way from each block to
   an exit that skips back edges and [t.sw_forbid] *)
let top budget t best =
  visit budget t.sw_rpo best
    (fun _ -> true)
    (fun v ->
       let blk = Cfg.block t.sw_cfg v in
       List.fold_left
         (fun acc (w, kind) ->
            if is_back t v w || forbidden t v kind then acc
            else max acc (via t best v w kind))
         (if blk.Cfg.b_is_exit then edge_cost t v Cfg.Etaken else none)
         blk.Cfg.b_succs);
  { t with sw_best = best }

let sweep ?(fuel = Fuel.default) (cfg : Cfg.t) (pl : Pipeline.t)
    (loops : Loops.t) (bounds : Boundanalysis.loop_bound list) : sweep =
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
  let body = Array.make nb [||] in
  List.iter
    (fun (l, _) ->
       let m = Array.make nb false in
       List.iter (fun b -> m.(b) <- true) l.Loops.l_body;
       body.(l.Loops.l_header) <- m)
    loops;
  let t =
    { sw_cfg = cfg; sw_pl = pl; sw_rpo = rpo; sw_body = body;
      sw_iter = Array.make nb 0; sw_forbid = []; sw_best = [||] }
  in
  let budget = ref fuel.Fuel.fl_simplex in
  let best = Array.make nb none in
  List.iter
    (fun (l, bound) ->
       let h = l.Loops.l_header and inside = body.(l.Loops.l_header) in
       visit budget rpo best
         (fun v -> inside.(v))
         (fun v ->
            List.fold_left
              (fun acc (w, kind) ->
                 if w = h then max acc (edge_cost t v kind)
                 else if inside.(w) && not (is_back t v w) then
                   max acc (via t best v w kind)
                 else acc)
              none (Cfg.successors cfg v));
       t.sw_iter.(h) <-
         (if best.(h) = none then 0 else max 0 (mul best.(h) bound)))
    (List.stable_sort
       (fun (a, _) (b, _) ->
          compare (List.length a.Loops.l_body) (List.length b.Loops.l_body))
       loops);
  top budget t best

let resweep ?(fuel = Fuel.default) (t : sweep) (e : int * Cfg.edge_kind) :
  sweep =
  top (ref fuel.Fuel.fl_simplex) { t with sw_forbid = e :: t.sw_forbid }
    (Array.make (Array.length t.sw_best) none)

let value (t : sweep) : int option =
  let entry = t.sw_cfg.Cfg.c_entry in
  if t.sw_best.(entry) = none then None
  else Some (add t.sw_iter.(entry) t.sw_best.(entry))

(* From the entry, follow an edge that attains each block's value, until
   the block's own exit edge does. *)
let path (t : sweep) : (int * Cfg.edge_kind) list =
  let rec go v acc =
    match
      List.find_opt
        (fun (w, kind) ->
           (not (is_back t v w))
           && (not (forbidden t v kind))
           && via t t.sw_best v w kind = t.sw_best.(v))
        (Cfg.successors t.sw_cfg v)
    with
    | Some (w, kind) -> go w ((v, kind) :: acc)
    | None -> List.rev acc
  in
  let entry = t.sw_cfg.Cfg.c_entry in
  if t.sw_best.(entry) = none then [] else go entry []

let flow (t : sweep) : int =
  match value t with
  | Some v -> v
  | None -> raise (Analysis_failed "IPET infeasible")

let flow_bound ?fuel cfg pl loops bounds = flow (sweep ?fuel cfg pl loops bounds)

let with_first_miss (cache : Cacheanalysis.t) (flow : int) : result =
  { ipet_wcet = add flow cache.Cacheanalysis.ca_first_miss;
    ipet_exact = true;
    ipet_flow_cycles = flow }

let compute ?fuel (cfg : Cfg.t) (pl : Pipeline.t) (cache : Cacheanalysis.t)
    (loops : Loops.t) (bounds : Boundanalysis.loop_bound list) : result =
  with_first_miss cache (flow_bound ?fuel cfg pl loops bounds)
