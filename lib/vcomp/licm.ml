(* Loop-invariant code motion over RTL, after Monniaux & Six: invariant
   computations move to a freshly created preheader, and the per-run
   translation validator ([Validate.check_pass]) re-checks the result,
   so the safety argument below is a design argument, not a trusted
   proof.

   The preheader executes whenever control *enters* the loop — also on
   a zero-iteration trip — so hoisting is speculation, and every
   condition guards one way speculation could change behaviour under
   the RTL reference interpreter:

   - arguments must be invariant (no definition inside the loop) and
     *available* at the preheader: each is a parameter or has a
     definition outside the loop that dominates the header, so the
     hoisted instruction can never read an undefined register;
   - the destination must have a single definition in the function,
     must not be live into the header (no use-before-def inside the
     loop), and must either be dead at every loop-exit target or be
     defined at a node dominating every exit source — otherwise code
     after the loop could observe the early definition;
   - pure operations cannot fault, so they may always be speculated;
     global-scalar loads cannot fault either (every named global is
     bound) and move when the loop contains no store; array loads can
     fault on an out-of-range index, so they additionally require
     their node to dominate every exit source — no speculation;
   - loops whose header is the function entry are skipped (there is no
     outside edge to redirect), as are functions with irreducible
     control flow.

   Each fixpoint round recomputes dominators and loops from scratch,
   over the graph and order of one [Rtl.walk], and stops there when the
   function has no loop. Definition sites are
   then recomputed too, but liveness only once some candidate's
   arguments are invariant and available: most rounds find none and
   never pay for it. Chains of invariant computations hoist over
   successive rounds; the round count is bounded by the fuel budget —
   exhaustion stops hoisting, it never miscompiles. *)

let is_move (i : Rtl.instruction) : bool =
  match i with Rtl.Iop (Rtl.Omove, _, _, _) -> true | _ -> false

(* Replace successor [from_] with [to_] in the instruction at [n]. *)
let retarget (f : Rtl.func) (n : Rtl.node) ~(from_ : Rtl.node)
    ~(to_ : Rtl.node) : unit =
  let s x = if x = from_ then to_ else x in
  let i =
    match Rtl.get_instr f n with
    | Rtl.Inop k -> Rtl.Inop (s k)
    | Rtl.Iop (op, args, d, k) -> Rtl.Iop (op, args, d, s k)
    | Rtl.Iload (ch, a, args, d, k) -> Rtl.Iload (ch, a, args, d, s k)
    | Rtl.Istore (ch, a, args, src, k) -> Rtl.Istore (ch, a, args, src, s k)
    | Rtl.Icond (c, args, k1, k2) -> Rtl.Icond (c, args, s k1, s k2)
    | Rtl.Iacq (x, d, k) -> Rtl.Iacq (x, d, s k)
    | Rtl.Iout (x, src, k) -> Rtl.Iout (x, src, s k)
    | Rtl.Iannot (t, args, k) -> Rtl.Iannot (t, args, s k)
    | Rtl.Ireturn _ as i -> i
  in
  Rtl.set_instr f n i

(* One round: hoist what is provably invariant in the first loop that
   yields anything, then return for a full recomputation (CFG edits
   invalidate the analyses, so at most one loop is edited per round). *)
let hoist_once (f : Rtl.func) : bool =
  let w = Rtl.walk f in
  let rpo = w.Rtl.w_order in
  let succs = Array.make (Array.length w.Rtl.w_code) [] in
  Array.iter
    (fun n ->
       succs.(n) <- List.map (fun s -> (s, ())) (Rtl.successors w.Rtl.w_code.(n)))
    rpo;
  match
    let dom = Flow.dominators { Flow.entry = f.Rtl.f_entry; succs } in
    (dom, Flow.loops dom)
  with
  | exception Flow.Irreducible _ -> false
  | _, [] -> false
  | dom, loops ->
    (* computed when a candidate's arguments first pass [arg_ok]; a
       hoist needs [dest_ok], which forces it, so it is always computed
       before this round edits the function *)
    let lv = lazy (Liveness.analyze f) in
    (* [r] is live on entry to [n] *)
    let live_in (n : Rtl.node) (r : Rtl.reg) : bool =
      let i = Rtl.get_instr f n in
      List.mem r (Rtl.instr_uses i)
      || (Rtl.instr_def i <> Some r
          && Liveness.is_live_after (Lazy.force lv) n r)
    in
    (* definition sites over reachable nodes *)
    let defs : (Rtl.reg, Rtl.node list) Hashtbl.t = Hashtbl.create 251 in
    Array.iter
      (fun n ->
         match Rtl.instr_def w.Rtl.w_code.(n) with
         | Some d ->
           let cur = Option.value ~default:[] (Hashtbl.find_opt defs d) in
           Hashtbl.replace defs d (n :: cur)
         | None -> ())
      rpo;
    let defs_of r = Option.value ~default:[] (Hashtbl.find_opt defs r) in
    let is_param r = List.mem_assoc r f.Rtl.f_params in
    let changed = ref false in
    let try_loop (l : unit Flow.loop) : unit =
      if (not !changed) && l.Flow.l_header <> f.Rtl.f_entry
         && l.Flow.l_entry_edges <> [] then begin
        let body = Hashtbl.create 17 in
        List.iter (fun n -> Hashtbl.replace body n ()) l.Flow.l_body;
        let in_body n = Hashtbl.mem body n in
        let header = l.Flow.l_header in
        let exit_srcs =
          List.filter
            (fun n ->
               List.exists
                 (fun s -> not (in_body s))
                 (Rtl.successors (Rtl.get_instr f n)))
            l.Flow.l_body
        in
        let exit_targets =
          List.concat_map
            (fun n ->
               List.filter (fun s -> not (in_body s))
                 (Rtl.successors (Rtl.get_instr f n)))
            exit_srcs
          |> List.sort_uniq compare
        in
        let has_store =
          List.exists
            (fun n ->
               match Rtl.get_instr f n with Rtl.Istore _ -> true | _ -> false)
            l.Flow.l_body
        in
        let dominates_exits n =
          List.for_all (fun e -> Flow.dominates dom n e) exit_srcs
        in
        let arg_ok r =
          (not (List.exists in_body (defs_of r)))
          && (is_param r
              || List.exists
                   (fun m -> (not (in_body m)) && Flow.dominates dom m header)
                   (defs_of r))
        in
        let dest_ok n d =
          defs_of d = [ n ]
          && (not (live_in header d))
          && (dominates_exits n
              || not
                   (List.exists
                      (fun t -> live_in t d)
                      exit_targets))
        in
        let hoistable n =
          match Rtl.get_instr f n with
          | Rtl.Iop (_, args, d, _) as i when not (is_move i) ->
            List.for_all arg_ok args && dest_ok n d
          | Rtl.Iload (_, Rtl.ADglob _, args, d, _) ->
            (not has_store) && List.for_all arg_ok args && dest_ok n d
          | Rtl.Iload (_, Rtl.ADarr _, args, d, _) ->
            (not has_store) && dominates_exits n
            && List.for_all arg_ok args && dest_ok n d
          | _ -> false
        in
        (* preheader created lazily on the first hoist; [tail] is the
           last node of the preheader chain, whose successor is the
           header *)
        let tail = ref None in
        let append (i : Rtl.instruction) : unit =
          let pre =
            match !tail with
            | Some t -> t
            | None ->
              let pre = Rtl.add_instr f (Rtl.Inop header) in
              List.iter
                (fun (p, ()) -> retarget f p ~from_:header ~to_:pre)
                l.Flow.l_entry_edges;
              tail := Some pre;
              pre
          in
          let n' = Rtl.add_instr f i in
          retarget f pre ~from_:header ~to_:n';
          tail := Some n'
        in
        Array.iter
          (fun n ->
             if in_body n && hoistable n then begin
               let i = Rtl.get_instr f n in
               let s = List.hd (Rtl.successors i) in
               append (match i with
                   | Rtl.Iop (op, args, d, _) ->
                     Rtl.Iop (op, args, d, header)
                   | Rtl.Iload (ch, a, args, d, _) ->
                     Rtl.Iload (ch, a, args, d, header)
                   | _ -> assert false);
               Rtl.set_instr f n (Rtl.Inop s);
               changed := true
             end)
          rpo
      end
    in
    (* innermost (smallest body) first, header as tie-break, so loops
       are visited in a fixed order *)
    List.iter try_loop
      (List.sort
         (fun a b ->
            match compare (List.length a.Flow.l_body) (List.length b.Flow.l_body) with
            | 0 -> compare a.Flow.l_header b.Flow.l_header
            | c -> c)
         loops);
    !changed

let transform_func ~(fuel : int) (f : Rtl.func) : unit =
  (* each round costs roughly one full reanalysis of the function *)
  let rounds = fuel / (Hashtbl.length f.Rtl.f_code + 1) in
  let rec loop (budget : int) : unit =
    if budget > 0 && hoist_once f then loop (budget - 1)
  in
  loop (min 16 rounds)

let transform ?(fuel = 200_000) (p : Rtl.program) : Rtl.program =
  List.iter (transform_func ~fuel) p.Rtl.p_funcs;
  p
