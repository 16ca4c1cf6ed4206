(* Symbol tables of a mini-C program, shared by the type checker
   ([Typecheck]) and both compilers ([Cotsc.Codegen], [Vcomp.Selection]).

   Names are strings hashed by [String.hash] and compared by
   [String.equal]: a lookup hashes the name once and compares it with
   the few names of its bucket, where a scan of the declaration list
   compares it with every name before it. The tables are built once
   per program and once per function, and a lookup allocates nothing. *)

module H = Hashtbl.Make (String)

type t = {
  globals : Ast.typ H.t;
  arrays : Ast.array_def H.t;
  volatiles : (Ast.typ * Ast.vol_dir) H.t;
}

type scope = {
  sc_prog : t;
  sc_vars : Ast.typ H.t; (* parameters and locals *)
}

(* A name bound twice keeps its first binding. *)
let bind (tbl : 'a H.t) (x : Ast.ident) (v : 'a) : unit =
  if not (H.mem tbl x) then H.add tbl x v

let of_program (p : Ast.program) : t =
  let globals = H.create (List.length p.Ast.prog_globals) in
  List.iter (fun (x, t) -> bind globals x t) p.Ast.prog_globals;
  let arrays = H.create (List.length p.Ast.prog_arrays) in
  List.iter (fun a -> bind arrays a.Ast.arr_name a) p.Ast.prog_arrays;
  let volatiles = H.create (List.length p.Ast.prog_volatiles) in
  List.iter (fun (x, t, d) -> bind volatiles x (t, d)) p.Ast.prog_volatiles;
  { globals; arrays; volatiles }

let global (tbl : t) (x : Ast.ident) : Ast.typ = H.find tbl.globals x
let array (tbl : t) (x : Ast.ident) : Ast.array_def = H.find tbl.arrays x

let volatile (tbl : t) (x : Ast.ident) : Ast.typ * Ast.vol_dir =
  H.find tbl.volatiles x

let scope (tbl : t) (f : Ast.func) : scope =
  let vars =
    H.create (List.length f.Ast.fn_params + List.length f.Ast.fn_locals)
  in
  List.iter (fun (x, t) -> bind vars x t) f.Ast.fn_params;
  List.iter (fun (x, t) -> bind vars x t) f.Ast.fn_locals;
  { sc_prog = tbl; sc_vars = vars }

let var (sc : scope) (x : Ast.ident) : Ast.typ = H.find sc.sc_vars x

let unop_sig (op : Ast.unop) : Ast.typ * Ast.typ =
  match op with
  | Ast.Oneg -> (Ast.Tint, Ast.Tint)
  | Ast.Onot -> (Ast.Tbool, Ast.Tbool)
  | Ast.Ofneg | Ast.Ofabs -> (Ast.Tfloat, Ast.Tfloat)
  | Ast.Ofloat_of_int -> (Ast.Tint, Ast.Tfloat)
  | Ast.Oint_of_float -> (Ast.Tfloat, Ast.Tint)

let binop_sig (op : Ast.binop) : Ast.typ * Ast.typ * Ast.typ =
  match op with
  | Ast.Oadd | Ast.Osub | Ast.Omul | Ast.Odiv | Ast.Omod
  | Ast.Oand | Ast.Oor | Ast.Oxor | Ast.Oshl | Ast.Oshr ->
    (Ast.Tint, Ast.Tint, Ast.Tint)
  | Ast.Ofadd | Ast.Ofsub | Ast.Ofmul | Ast.Ofdiv ->
    (Ast.Tfloat, Ast.Tfloat, Ast.Tfloat)
  | Ast.Ocmp _ -> (Ast.Tint, Ast.Tint, Ast.Tbool)
  | Ast.Ofcmp _ -> (Ast.Tfloat, Ast.Tfloat, Ast.Tbool)
  | Ast.Oband | Ast.Obor -> (Ast.Tbool, Ast.Tbool, Ast.Tbool)

let rec expr_typ (sc : scope) (e : Ast.expr) : Ast.typ =
  match e with
  | Ast.Econst_int _ -> Ast.Tint
  | Ast.Econst_float _ -> Ast.Tfloat
  | Ast.Econst_bool _ -> Ast.Tbool
  | Ast.Evar x -> var sc x
  | Ast.Eglobal x -> global sc.sc_prog x
  | Ast.Eindex (a, _) -> (array sc.sc_prog a).Ast.arr_elt
  | Ast.Eunop (op, _) -> snd (unop_sig op)
  | Ast.Ebinop (op, _, _) ->
    let _, _, t = binop_sig op in
    t
  | Ast.Econd (_, e1, _) -> expr_typ sc e1
  | Ast.Evolatile x -> fst (volatile sc.sc_prog x)
