(* Int-keyed maps for the states of the dataflow analyses: the
   environments of the compiler's constant propagation and GVN, and the
   value and must-cache states of the WCET analyzer. A little-endian
   Patricia tree (Okasaki & Gill): its shape is canonical for its
   bindings, and every operation returns the subtrees it leaves
   unchanged physically shared. States along a path of a CFG differ in a
   few bindings, so the binary operations skip every subtree both sides
   share ([a == b]) instead of walking its bindings, and return an
   argument itself, allocating nothing, when the result equals it. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t
      (* prefix, branching bit, subtree with the bit clear, with it set *)

let empty : 'a t = Empty

let is_empty (e : 'a t) : bool = match e with Empty -> true | _ -> false

let zero_bit (k : int) (m : int) : bool = k land m = 0
let match_prefix (k : int) (p : int) (m : int) : bool = k land (m - 1) = p

(* Branching bit [m] is below [n], so a branch on [m] is the nearer to
   the root. Unsigned: the sign bit is the highest, and [min_int - 1] is
   [max_int]. *)
let lower (m : int) (n : int) : bool = m - 1 < n - 1

(* The branch over two non-empty trees whose keys agree with [p0] and
   [p1] below their branching bits and first differ at a lower bit. *)
let join (p0 : int) (t0 : 'a t) (p1 : int) (t1 : 'a t) : 'a t =
  let x = p0 lxor p1 in
  let m = x land -x in
  let p = p0 land (m - 1) in
  if zero_bit p0 m then Branch (p, m, t0, t1) else Branch (p, m, t1, t0)

(* [join] where either tree may be empty. *)
let join_opt (p0 : int) (t0 : 'a t) (p1 : int) (t1 : 'a t) : 'a t =
  match t0, t1 with
  | Empty, t | t, Empty -> t
  | _, _ -> join p0 t0 p1 t1

(* [Branch] without empty subtrees. *)
let branch (p : int) (m : int) (l : 'a t) (r : 'a t) : 'a t =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

(* [branch p m l h], or [t] itself when [l] and [h] are its subtrees. *)
let rebuild (t : 'a t) (p : int) (m : int) (l : 'a t) (h : 'a t) : 'a t =
  match t with
  | Branch (_, _, l0, h0) when l0 == l && h0 == h -> t
  | _ -> branch p m l h

let rec find_opt (k : int) (e : 'a t) : 'a option =
  match e with
  | Empty -> None
  | Leaf (k', v) -> if k = k' then Some v else None
  | Branch (_, m, l, h) -> find_opt k (if zero_bit k m then l else h)

let rec binds (eq : 'a -> 'a -> bool) (k : int) (v : 'a) (e : 'a t) : bool =
  match e with
  | Empty -> false
  | Leaf (k', v') -> k = k' && eq v v'
  | Branch (_, m, l, h) -> binds eq k v (if zero_bit k m then l else h)

let rec add (k : int) (v : 'a) (e : 'a t) : 'a t =
  match e with
  | Empty -> Leaf (k, v)
  | Leaf (k', v') ->
    if k <> k' then join k (Leaf (k, v)) k' e
    else if v' == v then e
    else Leaf (k, v)
  | Branch (p, m, l, h) ->
    if not (match_prefix k p m) then join k (Leaf (k, v)) p e
    else if zero_bit k m then
      let l' = add k v l in
      if l' == l then e else Branch (p, m, l', h)
    else
      let h' = add k v h in
      if h' == h then e else Branch (p, m, l, h')

let rec remove (k : int) (e : 'a t) : 'a t =
  match e with
  | Empty -> Empty
  | Leaf (k', _) -> if k = k' then Empty else e
  | Branch (p, m, l, h) ->
    if not (match_prefix k p m) then e
    else if zero_bit k m then
      let l' = remove k l in
      if l' == l then e else branch p m l' h
    else
      let h' = remove k h in
      if h' == h then e else branch p m l h'

let rec filter_map (f : int -> 'a -> 'a option) (e : 'a t) : 'a t =
  match e with
  | Empty -> Empty
  | Leaf (k, v) ->
    (match f k v with
     | None -> Empty
     | Some v' -> if v' == v then e else Leaf (k, v'))
  | Branch (p, m, l, h) -> rebuild e p m (filter_map f l) (filter_map f h)

let rec filter (keep : 'a -> bool) (e : 'a t) : 'a t =
  match e with
  | Empty -> Empty
  | Leaf (_, v) -> if keep v then e else Empty
  | Branch (p, m, l, h) -> rebuild e p m (filter keep l) (filter keep h)

let rec fold (f : int -> 'a -> 'b -> 'b) (e : 'a t) (acc : 'b) : 'b =
  match e with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch (_, _, l, h) -> fold f h (fold f l acc)

let rec for_all (f : int -> 'a -> bool) (e : 'a t) : bool =
  match e with
  | Empty -> true
  | Leaf (k, v) -> f k v
  | Branch (_, _, l, h) -> for_all f l && for_all f h

(* A binding of [k] to [v] where [a] and [b] bind [k] to [x] and [y]:
   an argument that is a leaf is kept when [v] is its value. *)
let leaf2 (a : 'a t) (x : 'a) (b : 'a t) (y : 'a) (k : int) (v : 'a) : 'a t =
  match a, b with
  | Leaf _, _ when v == x -> a
  | _, Leaf _ when v == y -> b
  | _, _ -> Leaf (k, v)

(* [branch p m l h] where [a] and [b] both have prefix [p] and bit [m]:
   one of them when [l] and [h] are its subtrees. *)
let rebuild2 (a : 'a t) (b : 'a t) (p : int) (m : int) (l : 'a t) (h : 'a t)
  : 'a t =
  match a, b with
  | Branch (_, _, a0, a1), _ when a0 == l && a1 == h -> a
  | _, Branch (_, _, b0, b1) when b0 == l && b1 == h -> b
  | _, _ -> branch p m l h

let merge (f : int -> 'a option -> 'a option -> 'a option) (a : 'a t)
    (b : 'a t) : 'a t =
  let left = filter_map (fun k x -> f k (Some x) None)
  and right = filter_map (fun k y -> f k None (Some y)) in
  let rec go a b =
    if a == b then a
    else
      match a, b with
      | Empty, _ -> right b
      | _, Empty -> left a
      | Leaf (k, x), Leaf (k', y) ->
        if k <> k' then join_opt k (left a) k' (right b)
        else (
          match f k (Some x) (Some y) with
          | None -> Empty
          | Some v -> leaf2 a x b y k v)
      | Leaf (k, _), Branch (q, n, b0, b1) ->
        if not (match_prefix k q n) then join_opt k (left a) q (right b)
        else if zero_bit k n then rebuild b q n (go a b0) (right b1)
        else rebuild b q n (right b0) (go a b1)
      | Branch (p, m, a0, a1), Leaf (k, _) ->
        if not (match_prefix k p m) then join_opt p (left a) k (right b)
        else if zero_bit k m then rebuild a p m (go a0 b) (left a1)
        else rebuild a p m (left a0) (go a1 b)
      | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
        if m = n && p = q then rebuild2 a b p m (go a0 b0) (go a1 b1)
        else if lower m n && match_prefix q p m then
          if zero_bit q m then rebuild a p m (go a0 b) (left a1)
          else rebuild a p m (left a0) (go a1 b)
        else if lower n m && match_prefix p q n then
          if zero_bit p n then rebuild b q n (go a b0) (right b1)
          else rebuild b q n (right b0) (go a b1)
        else join_opt p (left a) q (right b)
  in
  go a b

let inter (f : int -> 'a -> 'a -> 'a option) (a : 'a t) (b : 'a t) : 'a t =
  let both a x b y k =
    match f k x y with
    | None -> Empty
    | Some v -> leaf2 a x b y k v
  in
  let rec go a b =
    if a == b then a
    else
      match a, b with
      | Empty, _ | _, Empty -> Empty
      | Leaf (k, x), _ ->
        (match find_opt k b with
         | Some y -> both a x b y k
         | None -> Empty)
      | _, Leaf (k, y) ->
        (match find_opt k a with
         | Some x -> both a x b y k
         | None -> Empty)
      | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
        if m = n && p = q then rebuild2 a b p m (go a0 b0) (go a1 b1)
        else if lower m n && match_prefix q p m then
          go (if zero_bit q m then a0 else a1) b
        else if lower n m && match_prefix p q n then
          go a (if zero_bit p n then b0 else b1)
        else Empty
  in
  go a b

let rec equal (eq : 'a -> 'a -> bool) (a : 'a t) (b : 'a t) : bool =
  a == b
  ||
  match a, b with
  | Leaf (k, v), Leaf (k', v') -> k = k' && eq v v'
  | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
    p = q && m = n && equal eq a0 b0 && equal eq a1 b1
  | (Empty | Leaf _ | Branch _), _ -> false

let leq (f : int -> 'a option -> 'a option -> bool) (a : 'a t) (b : 'a t) :
  bool =
  let left = for_all (fun k x -> f k (Some x) None)
  and right = for_all (fun k y -> f k None (Some y)) in
  let rec go a b =
    a == b
    ||
    match a, b with
    | Empty, _ -> right b
    | _, Empty -> left a
    | Leaf (k, x), Leaf (k', y) ->
      if k <> k' then f k (Some x) None && f k' None (Some y)
      else f k (Some x) (Some y)
    | Leaf (k, _), Branch (q, n, b0, b1) ->
      if not (match_prefix k q n) then left a && right b
      else if zero_bit k n then go a b0 && right b1
      else right b0 && go a b1
    | Branch (p, m, a0, a1), Leaf (k, _) ->
      if not (match_prefix k p m) then left a && right b
      else if zero_bit k m then go a0 b && left a1
      else left a0 && go a1 b
    | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
      if m = n && p = q then go a0 b0 && go a1 b1
      else if lower m n && match_prefix q p m then
        if zero_bit q m then go a0 b && left a1 else left a0 && go a1 b
      else if lower n m && match_prefix p q n then
        if zero_bit p n then go a b0 && right b1 else right b0 && go a b1
      else left a && right b
  in
  go a b
