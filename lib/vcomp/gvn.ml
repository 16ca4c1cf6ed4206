(* Global CSE by value numbering over the whole RTL CFG, after
   Monniaux & Six ("Simple, Light, Yet Formally Verified, Global CSE
   and Loop-Invariant Code Motion"): a forward dataflow analysis maps
   each pseudo-register to a hash-consed symbolic term; an operation
   whose term is already held by another register of the same class is
   rewritten to a move (or to a no-op when the destination itself
   already holds it). Local value numbering ([Cse]) stays responsible
   for memoizing loads under memory epochs; this pass only numbers
   pure operations, so it needs no alias reasoning, and its soundness
   is re-checked per run by [Validate.check_pass] in the spirit of the
   paper's verified translation validation.

   Term language. [Tinit r] is the entry value of register [r] (the
   parameters). A pure operation over known terms is [Top]. A value the
   analysis cannot symbolize — a load, a volatile acquisition, a use of
   a register with no current binding — is named by the *node* that
   produced it: [Topaque n] for opaque definitions, [Targ (n, i)] for
   the i-th argument of node [n] at its most recent execution. Naming
   by node keeps the fixpoint deterministic (no fresh-name supply), at
   the price of a staleness hazard across loop iterations: a register
   bound to a node-[n] term denotes "the value node [n] produced *last
   time*", which the next execution of [n] silently changes. The
   transfer function therefore *invalidates* — drops — every binding
   mentioning node [n] before it (re)executes [n], so stale terms can
   never witness a false equality.

   The fixpoint runs under a fuel budget: if it has not converged
   within the budget, the pass skips the function (identity), never
   rewrites from an unconverged analysis. *)

module IntSet = Set.Make (Int)

type opkey =
  | Kop of Rtl.operation (* never [Ofloatconst]: floats are normalized *)
  | Kfconst of int64     (* float constant by bit pattern *)

type tkey =
  | Tinit of Rtl.reg
  | Topaque of Rtl.node
  | Targ of Rtl.node * int
  | Top of opkey * int list (* operation over term ids *)

(* Hash-consing tables: structural term -> id, id -> set of nodes the
   term mentions (for invalidation), and the nodes any term mentions at
   all: a term mentions [n] only through [Topaque n] or [Targ (n, _)],
   so until one of those exists no binding can need invalidating.
   [holders] maps a term to every register any environment has bound
   to it, so the rewrite looks for a register holding a term among a
   few candidates instead of scanning a whole environment. Ids are
   dense, so the per-term tables are arrays, grown by doubling. *)
type tables = {
  mutable next_id : int;
  ids : (tkey, int) Hashtbl.t;
  mutable deps : IntSet.t array;    (* indexed by term id *)
  mutable holders : IntSet.t array; (* indexed by term id *)
  mentioned : bool array;           (* indexed by node *)
}

let create_tables (f : Rtl.func) : tables =
  { next_id = 0;
    ids = Hashtbl.create 251;
    deps = Array.make 64 IntSet.empty;
    holders = Array.make 64 IntSet.empty;
    mentioned = Array.make (Rtl.node_bound f) false }

let term (tb : tables) (k : tkey) : int =
  match Hashtbl.find_opt tb.ids k with
  | Some id -> id
  | None ->
    let id = tb.next_id in
    tb.next_id <- id + 1;
    Hashtbl.replace tb.ids k id;
    if id = Array.length tb.deps then begin
      let grow a = Array.append a (Array.make id IntSet.empty) in
      tb.deps <- grow tb.deps;
      tb.holders <- grow tb.holders
    end;
    let d =
      match k with
      | Tinit _ -> IntSet.empty
      | Topaque n | Targ (n, _) ->
        tb.mentioned.(n) <- true;
        IntSet.singleton n
      | Top (_, args) ->
        List.fold_left
          (fun acc a -> IntSet.union acc tb.deps.(a))
          IntSet.empty args
    in
    tb.deps.(id) <- d;
    id

let opkey (op : Rtl.operation) : opkey =
  match op with
  | Rtl.Ofloatconst c -> Kfconst (Int64.bits_of_float c)
  | _ -> Kop op

(* Abstract environment: register -> term id; absent = unknown. A
   little-endian Patricia tree (Okasaki & Gill): its shape is canonical
   for its bindings, and every operation returns the subtrees it leaves
   unchanged physically shared. Environments along a path of the CFG
   differ in a few bindings, so the meet and the equality test at a
   merge point skip the subtrees both sides share instead of walking
   every binding. *)
type env =
  | Empty
  | Leaf of Rtl.reg * int
  | Branch of int * int * env * env
      (* prefix, branching bit, subtree with the bit clear, with it set *)

let zero_bit (k : int) (m : int) : bool = k land m = 0
let match_prefix (k : int) (p : int) (m : int) : bool = k land (m - 1) = p

let join (p0 : int) (t0 : env) (p1 : int) (t1 : env) : env =
  let x = p0 lxor p1 in
  let m = x land -x in
  let p = p0 land (m - 1) in
  if zero_bit p0 m then Branch (p, m, t0, t1) else Branch (p, m, t1, t0)

(* [Branch] without empty subtrees. *)
let branch (p : int) (m : int) (l : env) (r : env) : env =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let rec find (r : Rtl.reg) (e : env) : int option =
  match e with
  | Empty -> None
  | Leaf (k, t) -> if k = r then Some t else None
  | Branch (_, m, l, h) -> find r (if zero_bit r m then l else h)

let rec add (r : Rtl.reg) (t : int) (e : env) : env =
  match e with
  | Empty -> Leaf (r, t)
  | Leaf (k, t') ->
    if k <> r then join r (Leaf (r, t)) k e
    else if t' = t then e
    else Leaf (r, t)
  | Branch (p, m, l, h) ->
    if not (match_prefix r p m) then join r (Leaf (r, t)) p e
    else if zero_bit r m then
      let l' = add r t l in
      if l' == l then e else Branch (p, m, l', h)
    else
      let h' = add r t h in
      if h' == h then e else Branch (p, m, l, h')

(* Keep the bindings whose term [keep] accepts. *)
let rec filter (keep : int -> bool) (e : env) : env =
  match e with
  | Empty -> Empty
  | Leaf (_, t) -> if keep t then e else Empty
  | Branch (p, m, l, h) ->
    let l' = filter keep l and h' = filter keep h in
    if l' == l && h' == h then e else branch p m l' h'

(* Every binding is made here, so [holders] sees it. *)
let bind (tb : tables) (r : Rtl.reg) (t : int) (e : env) : env =
  let h = tb.holders.(t) in
  if not (IntSet.mem r h) then tb.holders.(t) <- IntSet.add r h;
  add r t e

(* Drop every binding whose term mentions node [n]. *)
let invalidate (tb : tables) (n : Rtl.node) (e : env) : env =
  if not tb.mentioned.(n) then e
  else filter (fun t -> not (IntSet.mem n tb.deps.(t))) e

(* Resolve the arguments of node [n]; unmapped arguments are named
   [Targ (n, i)] and the name is recorded for the argument register
   itself, so a later identical operation on untouched registers still
   numbers equal. *)
let resolve_args (tb : tables) (n : Rtl.node) (args : Rtl.reg list) (e : env) :
  env * int list =
  let e, rev =
    List.fold_left
      (fun (e, acc) r ->
         match find r e with
         | Some t -> (e, t :: acc)
         | None ->
           let t = term tb (Targ (n, List.length acc)) in
           (bind tb r t e, t :: acc))
      (e, []) args
  in
  (e, List.rev rev)

let transfer (tb : tables) (f : Rtl.func) (n : Rtl.node) (e : env) : env =
  match Rtl.get_instr f n with
  | Rtl.Iop (Rtl.Omove, [ src ], d, _) ->
    let e = invalidate tb n e in
    (match find src e with
     | Some t -> bind tb d t e
     | None ->
       (* source and destination now hold the same (unknown) value *)
       let t = term tb (Targ (n, 0)) in
       bind tb src t (bind tb d t e))
  | Rtl.Iop (op, args, d, _) ->
    let e = invalidate tb n e in
    let e, ts = resolve_args tb n args e in
    bind tb d (term tb (Top (opkey op, ts))) e
  | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) ->
    let e = invalidate tb n e in
    bind tb d (term tb (Topaque n)) e
  | Rtl.Inop _ | Rtl.Istore _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _
  | Rtl.Ireturn _ -> e

(* Meet at merge points: keep only bindings on which all predecessors
   agree. Terms are hash-consed, so agreement is id equality. *)
let rec meet (a : env) (b : env) : env =
  if a == b then a
  else
    match a, b with
    | Empty, _ | _, Empty -> Empty
    | Leaf (r, t), _ -> if find r b = Some t then a else Empty
    | _, Leaf (r, t) -> if find r a = Some t then b else Empty
    | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
      if m = n && p = q then
        let l = meet a0 b0 and h = meet a1 b1 in
        if l == a0 && h == a1 then a else branch p m l h
      else if m < n && match_prefix q p m then
        meet (if zero_bit q m then a0 else a1) b
      else if m > n && match_prefix p q n then
        meet a (if zero_bit p n then b0 else b1)
      else Empty

let rec env_equal (a : env) (b : env) : bool =
  a == b
  ||
  match a, b with
  | Leaf (r, t), Leaf (r', t') -> r = r' && t = t'
  | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
    p = q && m = n && env_equal a0 b0 && env_equal a1 b1
  | (Empty | Leaf _ | Branch _), _ -> false

(* Forward fixpoint of in-environments, mirroring [Constprop.analyze]
   but bounded: each worklist step costs one unit of fuel, and [None]
   is returned on exhaustion. *)
let analyze (tb : tables) (f : Rtl.func) ~(fuel : int) :
  (Rtl.node, env) Hashtbl.t option =
  let preds = Rtl.predecessors f in
  let in_env : (Rtl.node, env) Hashtbl.t = Hashtbl.create 251 in
  (* the out-environment of every node that has an in-environment, kept
     in step with it: a node's transfer runs once per change of its
     input, not once per visit of a successor *)
  let out_env : (Rtl.node, env) Hashtbl.t = Hashtbl.create 251 in
  let set_in n e =
    Hashtbl.replace in_env n e;
    Hashtbl.replace out_env n (transfer tb f n e)
  in
  let worklist = Queue.create () in
  let workset = Hashtbl.create 251 in
  let push n =
    if not (Hashtbl.mem workset n) then begin
      Hashtbl.replace workset n ();
      Queue.add n worklist
    end
  in
  List.iter push (Rtl.reverse_postorder f);
  let entry_env =
    List.fold_left
      (fun e (r, _) -> bind tb r (term tb (Tinit r)) e)
      Empty f.Rtl.f_params
  in
  set_in f.Rtl.f_entry entry_env;
  let fuel = ref fuel in
  let exhausted = ref false in
  while (not (Queue.is_empty worklist)) && not !exhausted do
    if !fuel <= 0 then exhausted := true
    else begin
      decr fuel;
      let n = Queue.pop worklist in
      Hashtbl.remove workset n;
      let env_in =
        if n = f.Rtl.f_entry then entry_env
        else
          let reached = List.filter_map (Hashtbl.find_opt out_env) preds.(n) in
          match reached with
          | [] -> Empty (* unreached so far *)
          | e0 :: rest -> List.fold_left meet e0 rest
      in
      let old = Hashtbl.find_opt in_env n in
      let changed =
        match old with None -> true | Some o -> not (env_equal o env_in)
      in
      if changed then begin
        set_in n env_in;
        List.iter push (Rtl.successors (Rtl.get_instr f n))
      end
    end
  done;
  if !exhausted then None else Some in_env

(* Rewriting. At a pure non-move operation whose arguments all have
   terms, look the result term up: if the destination already holds it
   the instruction is redundant (no-op); if another same-class register
   holds it, rewrite to a move from the smallest such register (the
   deterministic representative). Integer constants are left alone —
   rematerializing them is as cheap as a move — but float constants are
   numbered: every duplicate avoided is a constant-pool load. *)
let rewrite_func (tb : tables) (in_env : (Rtl.node, env) Hashtbl.t)
    (f : Rtl.func) : unit =
  let class_of r = Hashtbl.find_opt f.Rtl.f_classes r in
  List.iter
    (fun n ->
       match Rtl.get_instr f n with
       | Rtl.Iop (Rtl.Omove, _, _, _) | Rtl.Iop (Rtl.Ointconst _, _, _, _) -> ()
       | Rtl.Iop (op, args, d, s) ->
         let e =
           Option.value ~default:Empty (Hashtbl.find_opt in_env n)
         in
         let ts =
           List.fold_right
             (fun r acc ->
                match acc, find r e with
                | Some ts, Some t -> Some (t :: ts)
                | _, _ -> None)
             args (Some [])
         in
         (match ts with
          | None -> ()
          | Some ts ->
            (match Hashtbl.find_opt tb.ids (Top (opkey op, ts)) with
             | None -> ()
             | Some t ->
               if find d e = Some t then
                 (* destination already holds the value *)
                 Rtl.set_instr f n (Rtl.Inop s)
               else begin
                 let candidate =
                   tb.holders.(t)
                   |> IntSet.to_seq
                   |> Seq.find (fun r ->
                       r <> d
                       && find r e = Some t
                       && class_of r = class_of d)
                 in
                 match candidate with
                 | Some r ->
                   Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ r ], d, s))
                 | None -> ()
               end))
       | _ -> ())
    (Rtl.reverse_postorder f)

let transform_func ~(fuel : int) (f : Rtl.func) : unit =
  let tb = create_tables f in
  match analyze tb f ~fuel with
  | None -> () (* fuel exhausted: skip, never rewrite unconverged *)
  | Some in_env -> rewrite_func tb in_env f

let transform ?(fuel = 200_000) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
