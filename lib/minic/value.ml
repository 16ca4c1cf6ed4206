(* Runtime values of mini-C and the arithmetic shared by the reference
   interpreter and the constant-folding passes of both compilers.

   Integer arithmetic is 32-bit two's complement ([Int32]); float
   arithmetic is IEEE-754 double, matching what the PPC-like target
   executes, so that source-level evaluation and machine-level execution
   agree bit-for-bit and trace equivalence is meaningful. *)

type t =
  | Vint of int32
  | Vfloat of float
  | Vbool of bool

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let as_int = function
  | Vint n -> n
  | Vfloat _ | Vbool _ -> type_error "expected an integer value"

let as_float = function
  | Vfloat f -> f
  | Vint _ | Vbool _ -> type_error "expected a float value"

let as_bool = function
  | Vbool b -> b
  | Vint _ | Vfloat _ -> type_error "expected a boolean value"

let zero_of_typ (t : Ast.typ) : t =
  match t with
  | Ast.Tint -> Vint 0l
  | Ast.Tfloat -> Vfloat 0.0
  | Ast.Tbool -> Vbool false

let equal (a : t) (b : t) : bool =
  match a, b with
  | Vint x, Vint y -> Int32.equal x y
  | Vfloat x, Vfloat y ->
    (* Bit equality, so that NaN = NaN and -0.0 <> 0.0: trace comparison
       must be exact, not numerical. *)
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vbool x, Vbool y -> Bool.equal x y
  | (Vint _ | Vfloat _ | Vbool _), _ -> false

let pp (ppf : Format.formatter) (v : t) : unit =
  match v with
  | Vint n -> Format.fprintf ppf "%ld" n
  | Vfloat f -> Format.fprintf ppf "%h" f
  | Vbool b -> Format.fprintf ppf "%b" b

let to_string (v : t) : string = Format.asprintf "%a" pp v

(* Conversion float -> int32, truncation toward zero, saturating at the
   int32 range like PowerPC fctiwz does. *)
let int32_of_float_trunc (f : float) : int32 =
  if Float.is_nan f then 0l
  else if f >= 2147483647.0 then Int32.max_int
  else if f <= -2147483648.0 then Int32.min_int
  else Int32.of_float (Float.of_int (int_of_float f))

let eval_comparison (c : Ast.comparison) (order : int) : bool =
  match c with
  | Ast.Ceq -> order = 0
  | Ast.Cne -> order <> 0
  | Ast.Clt -> order < 0
  | Ast.Cle -> order <= 0
  | Ast.Cgt -> order > 0
  | Ast.Cge -> order >= 0

let eval_fcomparison (c : Ast.comparison) (x : float) (y : float) : bool =
  (* IEEE semantics: all ordered comparisons are false on NaN except Cne. *)
  match c with
  | Ast.Ceq -> x = y
  | Ast.Cne -> not (x = y)
  | Ast.Clt -> x < y
  | Ast.Cle -> x <= y
  | Ast.Cgt -> x > y
  | Ast.Cge -> x >= y

let eval_unop (op : Ast.unop) (v : t) : t =
  match op with
  | Ast.Oneg -> Vint (Int32.neg (as_int v))
  | Ast.Onot -> Vbool (not (as_bool v))
  | Ast.Ofneg -> Vfloat (Float.neg (as_float v))
  | Ast.Ofabs -> Vfloat (Float.abs (as_float v))
  | Ast.Ofloat_of_int -> Vfloat (Int32.to_float (as_int v))
  | Ast.Oint_of_float -> Vint (int32_of_float_trunc (as_float v))

(* Integer division and modulus: round toward zero; division by zero and
   INT_MIN / -1 yield 0, like the PPC divw instruction leaves the result
   undefined and our simulator defines it as 0. Keeping source and target
   semantics aligned is what lets semantic preservation hold on all
   inputs. *)
let div32 (x : int32) (y : int32) : int32 =
  if Int32.equal y 0l then 0l
  else if Int32.equal x Int32.min_int && Int32.equal y (-1l) then 0l
  else Int32.div x y

(* Remainder is defined as x - (x / y) * y with the total division
   above, which is exactly what the compiled divw/mullw/subf expansion
   computes: x rem 0 = x, and INT_MIN rem -1 = INT_MIN. *)
let rem32 (x : int32) (y : int32) : int32 =
  Int32.sub x (Int32.mul (div32 x y) y)

let shift_amount (y : int32) : int = Int32.to_int (Int32.logand y 31l)

let eval_binop (op : Ast.binop) (a : t) (b : t) : t =
  match op with
  | Ast.Oadd -> Vint (Int32.add (as_int a) (as_int b))
  | Ast.Osub -> Vint (Int32.sub (as_int a) (as_int b))
  | Ast.Omul -> Vint (Int32.mul (as_int a) (as_int b))
  | Ast.Odiv -> Vint (div32 (as_int a) (as_int b))
  | Ast.Omod -> Vint (rem32 (as_int a) (as_int b))
  | Ast.Oand -> Vint (Int32.logand (as_int a) (as_int b))
  | Ast.Oor -> Vint (Int32.logor (as_int a) (as_int b))
  | Ast.Oxor -> Vint (Int32.logxor (as_int a) (as_int b))
  | Ast.Oshl -> Vint (Int32.shift_left (as_int a) (shift_amount (as_int b)))
  | Ast.Oshr -> Vint (Int32.shift_right (as_int a) (shift_amount (as_int b)))
  | Ast.Ofadd -> Vfloat (as_float a +. as_float b)
  | Ast.Ofsub -> Vfloat (as_float a -. as_float b)
  | Ast.Ofmul -> Vfloat (as_float a *. as_float b)
  | Ast.Ofdiv -> Vfloat (as_float a /. as_float b)
  | Ast.Ocmp c -> Vbool (eval_comparison c (Int32.compare (as_int a) (as_int b)))
  | Ast.Ofcmp c -> Vbool (eval_fcomparison c (as_float a) (as_float b))
  | Ast.Oband -> Vbool (as_bool a && as_bool b)
  | Ast.Obor -> Vbool (as_bool a || as_bool b)
