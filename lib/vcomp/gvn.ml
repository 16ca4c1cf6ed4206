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
   rewrites from an unconverged analysis. The fixpoint is
   [Regmap.forward] over one [Rtl.walk], one unit of fuel per worklist
   step. *)

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

let create_tables (w : Rtl.walk) : tables =
  { next_id = 0;
    ids = Hashtbl.create 251;
    deps = Array.make 64 IntSet.empty;
    holders = Array.make 64 IntSet.empty;
    mentioned = Array.make (Array.length w.Rtl.w_code) false }

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

(* Abstract environment: register -> term id; absent = unknown. The
   meet and the equality test at a merge point skip the subtrees both
   sides share ([Regmap]). *)
type env = int Regmap.t

let find = Regmap.find

(* Every binding is made here, so [holders] sees it. *)
let bind (tb : tables) (r : Rtl.reg) (t : int) (e : env) : env =
  let h = tb.holders.(t) in
  if not (IntSet.mem r h) then tb.holders.(t) <- IntSet.add r h;
  Regmap.add r t e

(* Drop every binding whose term mentions node [n]. *)
let invalidate (tb : tables) (n : Rtl.node) (e : env) : env =
  if not tb.mentioned.(n) then e
  else Regmap.filter (fun t -> not (IntSet.mem n tb.deps.(t))) e

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

let transfer (tb : tables) (n : Rtl.node) (i : Rtl.instruction) (e : env) :
  env =
  match i with
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

(* Forward fixpoint of in-environments, by node, under [fuel]. The meet
   at merge points keeps only bindings on which all predecessors agree;
   terms are hash-consed, so agreement is id equality. *)
let analyze (tb : tables) (f : Rtl.func) (w : Rtl.walk) ~(fuel : int) :
  env array option =
  let entry_env =
    List.fold_left
      (fun e (r, _) -> bind tb r (term tb (Tinit r)) e)
      Regmap.empty f.Rtl.f_params
  in
  Regmap.forward ~eq:Int.equal ~fuel ~entry:f.Rtl.f_entry ~entry_env
    ~transfer:(transfer tb) w

(* Rewriting. At a pure non-move operation whose arguments all have
   terms, look the result term up: if the destination already holds it
   the instruction is redundant (no-op); if another same-class register
   holds it, rewrite to a move from the smallest such register (the
   deterministic representative). Integer constants are left alone —
   rematerializing them is as cheap as a move — but float constants are
   numbered: every duplicate avoided is a constant-pool load. *)
let rewrite_func (tb : tables) (in_env : env array) (w : Rtl.walk)
    (f : Rtl.func) : unit =
  let class_of r = Hashtbl.find_opt f.Rtl.f_classes r in
  Array.iter
    (fun n ->
       match w.Rtl.w_code.(n) with
       | Rtl.Iop (Rtl.Omove, _, _, _) | Rtl.Iop (Rtl.Ointconst _, _, _, _) -> ()
       | Rtl.Iop (op, args, d, s) ->
         let e = in_env.(n) in
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
               if Regmap.binds Int.equal d t e then
                 (* destination already holds the value *)
                 Rtl.set_instr f n (Rtl.Inop s)
               else begin
                 let candidate =
                   tb.holders.(t)
                   |> IntSet.to_seq
                   |> Seq.find (fun r ->
                       r <> d
                       && Regmap.binds Int.equal r t e
                       && class_of r = class_of d)
                 in
                 match candidate with
                 | Some r ->
                   Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ r ], d, s))
                 | None -> ()
               end))
       | _ -> ())
    w.Rtl.w_order

let transform_func ~(fuel : int) (f : Rtl.func) : bool =
  let w = Rtl.walk f in
  let tb = create_tables w in
  match analyze tb f w ~fuel with
  | None -> false (* fuel exhausted: skip, never rewrite unconverged *)
  | Some in_env ->
    rewrite_func tb in_env w f;
    true

let transform ?(fuel = 200_000) (p : Rtl.program) : Rtl.program =
  List.iter (fun f -> ignore (transform_func ~fuel f)) p.Rtl.p_funcs;
  p
