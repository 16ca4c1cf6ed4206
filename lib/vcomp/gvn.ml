(* Global CSE by value numbering over the whole RTL CFG, after
   Monniaux & Six ("Simple, Light, Yet Formally Verified, Global CSE
   and Loop-Invariant Code Motion"): a forward dataflow analysis maps
   each pseudo-register to a hash-consed symbolic term ([Term]); an
   operation whose term is already held by another register of the
   same class is rewritten to a move (or to a no-op when the
   destination itself already holds it). Local value numbering ([Cse])
   stays responsible for memoizing loads under memory epochs; this pass
   only numbers pure operations, so it needs no alias reasoning, and
   its soundness is re-checked per run by [Validate.check_pass] in the
   spirit of the paper's verified translation validation.

   Parameters start as [Tinit r]; a load, a volatile acquisition or a
   use of an unbound register is named by its node ([Topaque n], [Targ
   (n, i)]). Such a term denotes what node [n] produced *last time*, so
   before (re)executing [n] the transfer drops every binding that
   mentions [n]: a stale term never witnesses a false equality.

   The fixpoint runs under a fuel budget: if it has not converged
   within the budget, the pass skips the function (identity), never
   rewrites from an unconverged analysis. The fixpoint is
   [Regmap.forward] over one [Rtl.walk], one unit of fuel per worklist
   step. *)

(* Abstract environment: register -> term id; absent = unknown. The
   meet and the equality test at a merge point skip the subtrees both
   sides share ([Regmap]). *)
type env = int Regmap.t

(* Every binding is made here, so [Term.holders] sees it. *)
let bind (tm : Term.t) (r : Rtl.reg) (t : int) (e : env) : env =
  Term.hold tm t r;
  Regmap.add r t e

(* Drop every binding whose term mentions node [n]; until some term
   mentions [n], no binding can. *)
let invalidate (tm : Term.t) (n : Rtl.node) (e : env) : env =
  if not (Term.mentioned tm n) then e
  else Regmap.filter (fun t -> not (Term.mentions tm t n)) e

(* Resolve the arguments of node [n]; unmapped arguments are named
   [Targ (n, i)] and the name is recorded for the argument register
   itself, so a later identical operation on untouched registers still
   numbers equal. *)
let resolve_args (tm : Term.t) (n : Rtl.node) (args : Rtl.reg list) (e : env) :
  env * int list =
  let e, rev =
    List.fold_left
      (fun (e, acc) r ->
         match Regmap.find r e with
         | Some t -> (e, t :: acc)
         | None ->
           let t = Term.id tm (Term.Targ (n, List.length acc)) in
           (bind tm r t e, t :: acc))
      (e, []) args
  in
  (e, List.rev rev)

let transfer (tm : Term.t) (n : Rtl.node) (i : Rtl.instruction) (e : env) :
  env =
  match i with
  | Rtl.Iop (Rtl.Omove, [ src ], d, _) ->
    let e = invalidate tm n e in
    (match Regmap.find src e with
     | Some t -> bind tm d t e
     | None ->
       (* source and destination now hold the same (unknown) value *)
       let t = Term.id tm (Term.Targ (n, 0)) in
       bind tm src t (bind tm d t e))
  | Rtl.Iop (op, args, d, _) ->
    let e = invalidate tm n e in
    let e, ts = resolve_args tm n args e in
    bind tm d (Term.id tm (Term.op op ts)) e
  | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) ->
    let e = invalidate tm n e in
    bind tm d (Term.id tm (Term.Topaque n)) e
  | Rtl.Inop _ | Rtl.Istore _ | Rtl.Icond _ | Rtl.Iout _ | Rtl.Iannot _
  | Rtl.Ireturn _ -> e

(* Forward fixpoint of in-environments, by node, under [fuel]. The meet
   at merge points keeps only bindings on which all predecessors agree;
   terms are hash-consed, so agreement is id equality. *)
let analyze (tm : Term.t) (f : Rtl.func) (w : Rtl.walk) ~(fuel : int) :
  env array option =
  let entry_env =
    List.fold_left
      (fun e (r, _) -> bind tm r (Term.id tm (Term.Tinit r)) e)
      Regmap.empty f.Rtl.f_params
  in
  Regmap.forward ~eq:Int.equal ~fuel ~entry:f.Rtl.f_entry ~entry_env
    ~transfer:(transfer tm) w

(* Rewriting. At a pure non-move operation whose arguments all have
   terms, look the result term up: if the destination already holds it
   the instruction is redundant (no-op); if another same-class register
   holds it, rewrite to a move from the smallest such register (the
   deterministic representative). Integer constants are left alone —
   rematerializing them is as cheap as a move — but float constants are
   numbered: every duplicate avoided is a constant-pool load. *)
let rewrite_func (tm : Term.t) (in_env : env array) (w : Rtl.walk)
    (f : Rtl.func) : unit =
  Array.iter
    (fun n ->
       match w.Rtl.w_code.(n) with
       | Rtl.Iop (Rtl.Omove, _, _, _) | Rtl.Iop (Rtl.Ointconst _, _, _, _) -> ()
       | Rtl.Iop (op, args, d, s) ->
         let e = in_env.(n) in
         let ts =
           List.fold_right
             (fun r acc ->
                match acc, Regmap.find r e with
                | Some ts, Some t -> Some (t :: ts)
                | _, _ -> None)
             args (Some [])
         in
         (* a term first made here is bound nowhere: it rewrites nothing *)
         Option.map (fun ts -> Term.id tm (Term.op op ts)) ts
         |> Option.iter (fun t ->
             if Regmap.binds Int.equal d t e then
               (* destination already holds the value *)
               Rtl.set_instr f n (Rtl.Inop s)
             else
               Term.holders tm t
               |> Seq.find (fun r ->
                   r <> d
                   && Regmap.binds Int.equal r t e
                   && Rtl.reg_class f r = Rtl.reg_class f d)
               |> Option.iter (fun r ->
                   Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ r ], d, s))))
       | _ -> ())
    w.Rtl.w_order

let transform_func ~(fuel : int) (f : Rtl.func) : bool =
  let w = Rtl.walk f in
  let tm = Term.create w in
  match analyze tm f w ~fuel with
  | None -> false (* fuel exhausted: skip, never rewrite unconverged *)
  | Some in_env ->
    rewrite_func tm in_env w f;
    true

let transform ?(fuel = 200_000) (p : Rtl.program) : Rtl.program =
  List.iter (fun f -> ignore (transform_func ~fuel f)) p.Rtl.p_funcs;
  p
