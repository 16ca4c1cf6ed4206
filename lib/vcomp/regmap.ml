(* Maps from pseudo-registers, for the environments of the forward
   dataflow analyses ([Constprop], [Gvn]). A little-endian Patricia tree
   (Okasaki & Gill): its shape is canonical for its bindings, and every
   operation returns the subtrees it leaves unchanged physically shared.
   Environments along a path of the CFG differ in a few bindings, so the
   meet and the equality test at a merge point skip the subtrees both
   sides share instead of walking every binding, and allocate nothing
   when one side is the other. [forward] is the worklist fixpoint that
   [Constprop] and [Gvn] run over such environments. *)

type 'a t =
  | Empty
  | Leaf of Rtl.reg * 'a
  | Branch of int * int * 'a t * 'a t
      (* prefix, branching bit, subtree with the bit clear, with it set *)

let empty : 'a t = Empty

let zero_bit (k : int) (m : int) : bool = k land m = 0
let match_prefix (k : int) (p : int) (m : int) : bool = k land (m - 1) = p

let join (p0 : int) (t0 : 'a t) (p1 : int) (t1 : 'a t) : 'a t =
  let x = p0 lxor p1 in
  let m = x land -x in
  let p = p0 land (m - 1) in
  if zero_bit p0 m then Branch (p, m, t0, t1) else Branch (p, m, t1, t0)

(* [Branch] without empty subtrees. *)
let branch (p : int) (m : int) (l : 'a t) (r : 'a t) : 'a t =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let rec find (r : Rtl.reg) (e : 'a t) : 'a option =
  match e with
  | Empty -> None
  | Leaf (k, v) -> if k = r then Some v else None
  | Branch (_, m, l, h) -> find r (if zero_bit r m then l else h)

(* [r] is bound to [v], for values compared with [eq]. *)
let rec binds (eq : 'a -> 'a -> bool) (r : Rtl.reg) (v : 'a) (e : 'a t) : bool =
  match e with
  | Empty -> false
  | Leaf (k, v') -> k = r && eq v v'
  | Branch (_, m, l, h) -> binds eq r v (if zero_bit r m then l else h)

let rec add (r : Rtl.reg) (v : 'a) (e : 'a t) : 'a t =
  match e with
  | Empty -> Leaf (r, v)
  | Leaf (k, v') ->
    if k <> r then join r (Leaf (r, v)) k e
    else if v' == v then e
    else Leaf (r, v)
  | Branch (p, m, l, h) ->
    if not (match_prefix r p m) then join r (Leaf (r, v)) p e
    else if zero_bit r m then
      let l' = add r v l in
      if l' == l then e else Branch (p, m, l', h)
    else
      let h' = add r v h in
      if h' == h then e else Branch (p, m, l, h')

let rec remove (r : Rtl.reg) (e : 'a t) : 'a t =
  match e with
  | Empty -> Empty
  | Leaf (k, _) -> if k = r then Empty else e
  | Branch (p, m, l, h) ->
    if not (match_prefix r p m) then e
    else if zero_bit r m then
      let l' = remove r l in
      if l' == l then e else branch p m l' h
    else
      let h' = remove r h in
      if h' == h then e else branch p m l h'

let rec filter (keep : 'a -> bool) (e : 'a t) : 'a t =
  match e with
  | Empty -> Empty
  | Leaf (_, v) -> if keep v then e else Empty
  | Branch (p, m, l, h) ->
    let l' = filter keep l and h' = filter keep h in
    if l' == l && h' == h then e else branch p m l' h'

let rec meet (eq : 'a -> 'a -> bool) (a : 'a t) (b : 'a t) : 'a t =
  if a == b then a
  else
    match a, b with
    | Empty, _ | _, Empty -> Empty
    | Leaf (r, v), _ -> if binds eq r v b then a else Empty
    | _, Leaf (r, v) -> if binds eq r v a then b else Empty
    | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
      if m = n && p = q then
        let l = meet eq a0 b0 and h = meet eq a1 b1 in
        if l == a0 && h == a1 then a else branch p m l h
      else if m < n && match_prefix q p m then
        meet eq (if zero_bit q m then a0 else a1) b
      else if m > n && match_prefix p q n then
        meet eq a (if zero_bit p n then b0 else b1)
      else Empty

let rec equal (eq : 'a -> 'a -> bool) (a : 'a t) (b : 'a t) : bool =
  a == b
  ||
  match a, b with
  | Leaf (r, v), Leaf (r', v') -> r = r' && eq v v'
  | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
    p = q && m = n && equal eq a0 b0 && equal eq a1 b1
  | (Empty | Leaf _ | Branch _), _ -> false

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
  let in_env = Array.make bound Empty and out_env = Array.make bound Empty in
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
    | [] -> Empty
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
