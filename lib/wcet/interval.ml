(* Integer interval domain over 32-bit two's-complement values.

   Bounds are kept in native OCaml integers (63-bit), so intermediate
   arithmetic cannot overflow; any operation whose exact result range
   leaves the int32 range returns [top] — a sound model of wrap-around
   without tracking wrapped intervals. *)

type t = {
  lo : int;
  hi : int;
}

let int32_min = -2147483648
let int32_max = 2147483647

let top : t = { lo = int32_min; hi = int32_max }

let is_top (i : t) : bool = i.lo = int32_min && i.hi = int32_max

let make (lo : int) (hi : int) : t =
  if lo > hi then invalid_arg "Interval.make: empty";
  if lo < int32_min || hi > int32_max then top else { lo; hi }

let of_const (n : int32) : t =
  let v = Int32.to_int n in
  { lo = v; hi = v }

let of_int_const (v : int) : t = make v v

let is_const (i : t) : int option = if i.lo = i.hi then Some i.lo else None

let equal (a : t) (b : t) : bool = a.lo = b.lo && a.hi = b.hi

let contains (i : t) (v : int) : bool = i.lo <= v && v <= i.hi

let join (a : t) (b : t) : t = { lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Meet: returns None on empty intersection (unreachable state). *)
let meet (a : t) (b : t) : t option =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

(* Standard widening: unstable bounds jump to the type extremes. *)
let widen (old_i : t) (new_i : t) : t =
  { lo = (if new_i.lo < old_i.lo then int32_min else old_i.lo);
    hi = (if new_i.hi > old_i.hi then int32_max else old_i.hi) }

let in_range (v : int) : bool = v >= int32_min && v <= int32_max

let add (a : t) (b : t) : t =
  let lo = a.lo + b.lo and hi = a.hi + b.hi in
  if in_range lo && in_range hi then { lo; hi } else top

let sub (a : t) (b : t) : t =
  let lo = a.lo - b.hi and hi = a.hi - b.lo in
  if in_range lo && in_range hi then { lo; hi } else top

let neg (a : t) : t =
  let lo = -a.hi and hi = -a.lo in
  if in_range lo && in_range hi then { lo; hi } else top

let mul (a : t) (b : t) : t =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  let lo = List.fold_left min max_int products in
  let hi = List.fold_left max min_int products in
  if in_range lo && in_range hi then { lo; hi } else top

let shift_left_const (a : t) (k : int) : t =
  if k < 0 || k > 31 then top else mul a (make (1 lsl k) (1 lsl k))

(* Refine the left operand assuming "left CMP right" holds. *)
let refine_cmp (c : Minic.Ast.comparison) (left : t) (right : t) : t option =
  match c with
  | Minic.Ast.Ceq -> meet left right
  | Minic.Ast.Cne ->
    (* only useful when right is a constant equal to a bound *)
    (match is_const right with
     | Some v when left.lo = v && left.lo < left.hi ->
       Some { left with lo = left.lo + 1 }
     | Some v when left.hi = v && left.lo < left.hi ->
       Some { left with hi = left.hi - 1 }
     | Some v when left.lo = v && left.lo = left.hi -> None
     | _ -> Some left)
  | Minic.Ast.Clt ->
    if left.lo > right.hi - 1 then None
    else Some { left with hi = min left.hi (right.hi - 1) }
  | Minic.Ast.Cle ->
    if left.lo > right.hi then None
    else Some { left with hi = min left.hi right.hi }
  | Minic.Ast.Cgt ->
    if left.hi < right.lo + 1 then None
    else Some { left with lo = max left.lo (right.lo + 1) }
  | Minic.Ast.Cge ->
    if left.hi < right.lo then None
    else Some { left with lo = max left.lo right.lo }

let pp (ppf : Format.formatter) (i : t) : unit =
  if is_top i then Format.pp_print_string ppf "T"
  else Format.fprintf ppf "[%d,%d]" i.lo i.hi

let to_string (i : t) : string = Format.asprintf "%a" pp i
