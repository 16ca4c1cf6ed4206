(* Maps from pseudo-registers, for the environments of the forward
   dataflow analyses ([Constprop], [Gvn]): [Flow.Intmap]'s Patricia
   trees, whose meet and equality test at a merge point skip the
   subtrees both sides share and allocate nothing when one side is the
   other. [forward] is the worklist fixpoint that [Constprop] and [Gvn]
   run over such environments. *)

include Flow.Intmap

let find = find_opt

(* The bindings both sides agree on by [eq]. *)
let meet (eq : 'a -> 'a -> bool) (a : 'a t) (b : 'a t) : 'a t =
  inter (fun _ x y -> if eq x y then Some x else None) a b

(* The forward fixpoint both analyses run over these maps. The worklist
   is FIFO, seeded with [w]'s reverse postorder, and each pop costs one
   unit of fuel; a node is queued at most once at a time. Its
   out-environment is kept with its in-environment, so a transfer runs
   once per change of its input. A node none of whose predecessors has
   been reached gets the empty map, and the entry always gets
   [entry_env]. GVN's transfer is not monotone, so this order decides
   which equalities it finds. *)
let forward ~(eq : 'a -> 'a -> bool) ~(fuel : int) ~(entry : Rtl.node)
    ~(entry_env : 'a t) ~(transfer : Rtl.node -> Rtl.instruction -> 'a t -> 'a t)
    (w : Rtl.walk) : 'a t array option =
  let bound = Array.length w.Rtl.w_code in
  let in_env = Array.make bound empty and out_env = Array.make bound empty in
  (* the node has an in- and an out-environment *)
  let reached = Bytes.make bound '\000' in
  let set_in n e =
    in_env.(n) <- e;
    out_env.(n) <- transfer n w.Rtl.w_code.(n) e;
    Bytes.set reached n '\001'
  in
  let is_reached n = Bytes.get reached n <> '\000' in
  let rec meet_preds acc = function
    | [] -> acc
    | p :: ps ->
      meet_preds (if is_reached p then meet eq acc out_env.(p) else acc) ps
  in
  let rec meet_reached = function
    | [] -> empty
    | p :: ps -> if is_reached p then meet_preds out_env.(p) ps else meet_reached ps
  in
  let worklist = Queue.create () in
  let queued = Bytes.make bound '\000' in
  let push n =
    if Bytes.get queued n = '\000' then begin
      Bytes.set queued n '\001';
      Queue.add n worklist
    end
  in
  Array.iter push w.Rtl.w_order;
  set_in entry entry_env;
  let fuel = ref fuel in
  while (not (Queue.is_empty worklist)) && !fuel > 0 do
    decr fuel;
    let n = Queue.pop worklist in
    Bytes.set queued n '\000';
    let env_in = if n = entry then entry_env else meet_reached w.Rtl.w_preds.(n) in
    if (not (is_reached n)) || not (equal eq in_env.(n) env_in) then begin
      set_in n env_in;
      Rtl.iter_successors push w.Rtl.w_code.(n)
    end
  done;
  if Queue.is_empty worklist then Some in_env else None
