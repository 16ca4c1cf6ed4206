(* Reference dataflow passes: [Vcomp.Constprop], [Vcomp.Cse] and
   [Vcomp.Gvn] as they were written before their fixpoints moved onto
   one [Rtl.walk] and arrays by node. Here every pass asks for the
   predecessors and the reverse postorder separately, reads instructions
   from the code table, keeps its environments in hash tables keyed by
   node, and represents them as [Map] trees; GVN's meet and equality
   test walk every binding. They share no fixpoint or register-map code
   with the passes under test, which must leave the same code table on
   every input, fuel exhaustion included. *)

module Rtl = Vcomp.Rtl
module RegMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* Predecessors over reachable nodes by a scan of every reachable
   node's successor list, one entry per edge. *)
let predecessors (f : Rtl.func) : Rtl.node list array =
  let preds = Array.make (Rtl.node_bound f) [] in
  List.iter
    (fun n ->
       List.iter
         (fun s -> preds.(s) <- n :: preds.(s))
         (Rtl.successors (Rtl.get_instr f n)))
    (Rtl.reverse_postorder f);
  preds

(* Worklist fixpoint shared by both forward analyses: FIFO, seeded in
   reverse postorder, a node re-queued only while not queued, one unit
   of fuel per pop. [None] when the fuel runs out; otherwise the
   in-environments and the number of pops. *)
let forward (f : Rtl.func) ~(fuel : int) ~(entry : 'e) ~(unreached : 'e)
    ~(transfer : Rtl.node -> 'e -> 'e) ~(join : 'e -> 'e -> 'e)
    ~(equal : 'e -> 'e -> bool) : ((Rtl.node, 'e) Hashtbl.t * int) option =
  let budget = fuel in
  let preds = predecessors f in
  let in_env = Hashtbl.create 251 and out_env = Hashtbl.create 251 in
  let set_in n e =
    Hashtbl.replace in_env n e;
    Hashtbl.replace out_env n (transfer n e)
  in
  let worklist = Queue.create () and workset = Hashtbl.create 251 in
  let push n =
    if not (Hashtbl.mem workset n) then begin
      Hashtbl.replace workset n ();
      Queue.add n worklist
    end
  in
  List.iter push (Rtl.reverse_postorder f);
  set_in f.Rtl.f_entry entry;
  let fuel = ref fuel in
  let exhausted = ref false in
  while (not (Queue.is_empty worklist)) && not !exhausted do
    if !fuel <= 0 then exhausted := true
    else begin
      decr fuel;
      let n = Queue.pop worklist in
      Hashtbl.remove workset n;
      let env_in =
        if n = f.Rtl.f_entry then entry
        else
          match List.filter_map (Hashtbl.find_opt out_env) preds.(n) with
          | [] -> unreached
          | e0 :: rest -> List.fold_left join e0 rest
      in
      let changed =
        match Hashtbl.find_opt in_env n with
        | None -> true
        | Some o -> not (equal o env_in)
      in
      if changed then begin
        set_in n env_in;
        List.iter push (Rtl.successors (Rtl.get_instr f n))
      end
    end
  done;
  if !exhausted then None else Some (in_env, budget - !fuel)

(* ---- constant propagation ---- *)

type approx =
  | Vtop
  | Vcint of int32
  | Vcfloat of float

let approx_equal (a : approx) (b : approx) : bool =
  match a, b with
  | Vtop, Vtop -> true
  | Vcint x, Vcint y -> Int32.equal x y
  | Vcfloat x, Vcfloat y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Vtop | Vcint _ | Vcfloat _), _ -> false

let get (env : approx RegMap.t) (r : Rtl.reg) : approx =
  Option.value ~default:Vtop (RegMap.find_opt r env)

let concrete (args : approx list) : Minic.Value.t list option =
  List.fold_right
    (fun a acc ->
       match acc, a with
       | Some vs, Vcint n -> Some (Minic.Value.Vint n :: vs)
       | Some vs, Vcfloat x -> Some (Minic.Value.Vfloat x :: vs)
       | _, _ -> None)
    args (Some [])

let eval_op (op : Rtl.operation) (args : approx list) : approx =
  match op, concrete args with
  | Rtl.Ointconst n, _ -> Vcint n
  | Rtl.Ofloatconst x, _ -> Vcfloat x
  | _, Some vs ->
    (match Vcomp.Rtl_interp.eval_operation op vs with
     | Minic.Value.Vint n -> Vcint n
     | Minic.Value.Vfloat x -> Vcfloat x
     | Minic.Value.Vbool b -> Vcint (if b then 1l else 0l)
     | exception Vcomp.Rtl_interp.Stuck _ -> Vtop)
  | _, None -> Vtop

let constprop_func (f : Rtl.func) : unit =
  let transfer n env =
    match Rtl.get_instr f n with
    | Rtl.Iop (op, args, d, _) ->
      (match eval_op op (List.map (get env) args) with
       | Vtop -> RegMap.remove d env
       | a -> RegMap.add d a env)
    | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) -> RegMap.remove d env
    | _ -> env
  in
  let join =
    RegMap.merge (fun _ x y ->
        match x, y with
        | Some x, Some y when approx_equal x y -> Some x
        | _, _ -> None)
  in
  let in_env, _ =
    Option.get
      (forward f ~fuel:max_int ~entry:RegMap.empty ~unreached:RegMap.empty
         ~transfer ~join ~equal:(RegMap.equal approx_equal))
  in
  let small c = c > -32000l && c < 32000l in
  List.iter
    (fun n ->
       let approx_of = get (Hashtbl.find in_env n) in
       let set = Rtl.set_instr f n in
       match Rtl.get_instr f n with
       | Rtl.Iop ((Rtl.Ointconst _ | Rtl.Ofloatconst _), _, _, _) -> ()
       | Rtl.Iop (op, args, d, s) ->
         (match eval_op op (List.map approx_of args), op, args with
          | Vcint c, _, _ -> set (Rtl.Iop (Rtl.Ointconst c, [], d, s))
          | Vcfloat c, _, _ -> set (Rtl.Iop (Rtl.Ofloatconst c, [], d, s))
          | Vtop, Rtl.Oadd, [ a; b ] ->
            (match approx_of a, approx_of b with
             | Vcint c, _ when small c -> set (Rtl.Iop (Rtl.Oaddimm c, [ b ], d, s))
             | _, Vcint c when small c -> set (Rtl.Iop (Rtl.Oaddimm c, [ a ], d, s))
             | _, _ -> ())
          | Vtop, Rtl.Osub, [ a; b ] ->
            (match approx_of b with
             | Vcint c when small c ->
               set (Rtl.Iop (Rtl.Oaddimm (Int32.neg c), [ a ], d, s))
             | _ -> ())
          | Vtop, _, _ -> ())
       | Rtl.Icond (c, args, s1, s2) ->
         (match concrete (List.map approx_of args) with
          | Some vs ->
            (match Vcomp.Rtl_interp.eval_condition c vs with
             | true -> set (Rtl.Inop s1)
             | false -> set (Rtl.Inop s2)
             | exception Vcomp.Rtl_interp.Stuck _ -> ())
          | None -> ())
       | Rtl.Iannot (text, aargs, s) ->
         set
           (Rtl.Iannot
              ( text,
                List.map
                  (function
                    | Rtl.RA_reg r as a ->
                      (match approx_of r with
                       | Vcint c -> Rtl.RA_cint c
                       | Vcfloat c -> Rtl.RA_cfloat c
                       | Vtop -> a)
                    | a -> a)
                  aargs,
                s ))
       | _ -> ())
    (Rtl.reverse_postorder f)

(* ---- local CSE: block heads from [predecessors] ---- *)

type key =
  | Kop of Rtl.operation * int list
  | Kload of Rtl.chunk * Rtl.addressing * int list * int

let key_equal (a : key) (b : key) : bool =
  match a, b with
  | Kop (Rtl.Ofloatconst x, a1), Kop (Rtl.Ofloatconst y, a2) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) && a1 = a2
  | _, _ -> a = b

let cse_func (f : Rtl.func) : unit =
  let preds = predecessors f in
  let is_head n =
    n = f.Rtl.f_entry
    ||
    match preds.(n) with
    | [ p ] -> (match Rtl.get_instr f p with Rtl.Icond _ -> true | _ -> false)
    | _ -> true
  in
  let block head =
    let next = ref 0 and epoch = ref 0 and table = ref [] in
    let reg_vn = Hashtbl.create 61 and vn_rep = Hashtbl.create 61 in
    let fresh () = incr next; !next - 1 in
    let vn_of r =
      match Hashtbl.find_opt reg_vn r with
      | Some v -> v
      | None ->
        let v = fresh () in
        Hashtbl.replace reg_vn r v;
        Hashtbl.replace vn_rep v r;
        v
    in
    let kill d =
      match Hashtbl.find_opt reg_vn d with
      | None -> ()
      | Some v ->
        Hashtbl.remove reg_vn d;
        if Hashtbl.find_opt vn_rep v = Some d then
          match
            Hashtbl.fold
              (fun r v' acc -> if v' = v && r <> d then Some r else acc)
              reg_vn None
          with
          | Some r -> Hashtbl.replace vn_rep v r
          | None ->
            Hashtbl.remove vn_rep v;
            table := List.filter (fun (_, v') -> v' <> v) !table
    in
    let set_reg d v =
      kill d;
      Hashtbl.replace reg_vn d v;
      if not (Hashtbl.mem vn_rep v) then Hashtbl.replace vn_rep v d
    in
    (* value-number [k] defining [d] at node [n] (successor [s]) *)
    let number n k d s =
      let fresh_key () =
        let v = fresh () in
        set_reg d v;
        table := (k, v) :: !table
      in
      match List.find_opt (fun (k', _) -> key_equal k k') !table with
      | Some (_, v) ->
        (match Hashtbl.find_opt vn_rep v with
         | Some rep when rep <> d && Rtl.reg_class f rep = Rtl.reg_class f d ->
           Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ rep ], d, s));
           set_reg d v
         | _ -> fresh_key ())
      | None -> fresh_key ()
    in
    let rec go n =
      let i = Rtl.get_instr f n in
      (match i with
       | Rtl.Iop (Rtl.Omove, [ src ], d, _) -> set_reg d (vn_of src)
       | Rtl.Iop (op, args, d, s) -> number n (Kop (op, List.map vn_of args)) d s
       | Rtl.Iload (c, a, args, d, s) ->
         number n (Kload (c, a, List.map vn_of args, !epoch)) d s
       | Rtl.Istore _ -> incr epoch
       | Rtl.Iacq (_, d, _) -> set_reg d (fresh ())
       | _ -> ());
      match Rtl.successors i with
      | [ s ] -> if not (is_head s) then go s
      | _ -> ()
    in
    go head
  in
  List.iter block (List.filter is_head (Rtl.reverse_postorder f))

(* ---- GVN: [Map] environments, hash tables by term ---- *)

type tkey =
  | Tinit of Rtl.reg
  | Topaque of Rtl.node
  | Targ of Rtl.node * int
  | Top of Rtl.operation * int list (* never [Ofloatconst] *)
  | Tfconst of int64 (* a float constant, by its bits *)

(* The worklist steps the analysis took, or [None] when the fuel ran
   out and the function was left as it was. *)
let gvn_func ~(fuel : int) (f : Rtl.func) : int option =
  let ids = Hashtbl.create 251 in
  let deps = Hashtbl.create 251 and holders = Hashtbl.create 251 in
  let term k =
    match Hashtbl.find_opt ids k with
    | Some t -> t
    | None ->
      let t = Hashtbl.length ids in
      Hashtbl.replace ids k t;
      Hashtbl.replace deps t
        (match k with
         | Tinit _ | Tfconst _ -> IntSet.empty
         | Topaque n | Targ (n, _) -> IntSet.singleton n
         | Top (_, args) ->
           List.fold_left
             (fun acc a -> IntSet.union acc (Hashtbl.find deps a))
             IntSet.empty args);
      t
  in
  let opterm op ts =
    match op with
    | Rtl.Ofloatconst c -> Tfconst (Int64.bits_of_float c)
    | _ -> Top (op, ts)
  in
  let bind r t e =
    Hashtbl.replace holders t
      (IntSet.add r (Option.value ~default:IntSet.empty (Hashtbl.find_opt holders t)));
    RegMap.add r t e
  in
  let invalidate n e = RegMap.filter (fun _ t -> not (IntSet.mem n (Hashtbl.find deps t))) e in
  let transfer n e =
    match Rtl.get_instr f n with
    | Rtl.Iop (Rtl.Omove, [ src ], d, _) ->
      let e = invalidate n e in
      (match RegMap.find_opt src e with
       | Some t -> bind d t e
       | None ->
         let t = term (Targ (n, 0)) in
         bind src t (bind d t e))
    | Rtl.Iop (op, args, d, _) ->
      let e = invalidate n e in
      let e, rev =
        List.fold_left
          (fun (e, acc) r ->
             match RegMap.find_opt r e with
             | Some t -> (e, t :: acc)
             | None ->
               let t = term (Targ (n, List.length acc)) in
               (bind r t e, t :: acc))
          (e, []) args
      in
      bind d (term (opterm op (List.rev rev))) e
    | Rtl.Iload (_, _, _, d, _) | Rtl.Iacq (_, d, _) ->
      bind d (term (Topaque n)) (invalidate n e)
    | _ -> e
  in
  let entry =
    List.fold_left (fun e (r, _) -> bind r (term (Tinit r)) e) RegMap.empty
      f.Rtl.f_params
  in
  let meet =
    RegMap.merge (fun _ x y ->
        match x, y with Some x, Some y when x = y -> Some x | _, _ -> None)
  in
  match
    forward f ~fuel ~entry ~unreached:RegMap.empty ~transfer ~join:meet
      ~equal:(RegMap.equal Int.equal)
  with
  | None -> None
  | Some (in_env, pops) ->
    List.iter
      (fun n ->
         match Rtl.get_instr f n with
         | Rtl.Iop ((Rtl.Omove | Rtl.Ointconst _), _, _, _) -> ()
         | Rtl.Iop (op, args, d, s) ->
           let e = Hashtbl.find in_env n in
           let ts = List.map (fun r -> RegMap.find_opt r e) args in
           if List.for_all Option.is_some ts then begin
             match Hashtbl.find_opt ids (opterm op (List.map Option.get ts)) with
             | None -> ()
             | Some t ->
               if RegMap.find_opt d e = Some t then Rtl.set_instr f n (Rtl.Inop s)
               else
                 Option.value ~default:IntSet.empty (Hashtbl.find_opt holders t)
                 |> IntSet.elements
                 |> List.find_opt (fun r ->
                     r <> d
                     && RegMap.find_opt r e = Some t
                     && Hashtbl.find_opt f.Rtl.f_classes r
                        = Hashtbl.find_opt f.Rtl.f_classes d)
                 |> Option.iter (fun r ->
                     Rtl.set_instr f n (Rtl.Iop (Rtl.Omove, [ r ], d, s)))
           end
         | _ -> ())
      (Rtl.reverse_postorder f);
    Some pops
