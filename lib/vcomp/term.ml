(* Hash-consed symbolic terms, after Monniaux & Six ("Simple, Light,
   Yet Formally Verified, Global CSE and Loop-Invariant Code Motion"):
   the one key language in which [Cse] and [Gvn] number values.

   Values no operation explains are named by the register or node they
   come from, which keeps the numbering deterministic; [fresh] names
   one by nothing at all. Float constants are keyed by their bit
   pattern, so [0.0] and [-0.0] never share a term, while two NaNs do
   exactly when their bits agree; no other operation carries a float.

   A table lives for one function and hands out dense ids, so the
   per-term indexes are arrays grown by doubling: the nodes each term
   mentions (for invalidation) and every register bound to it. *)

module IntSet = Set.Make (Int)

type opkey =
  | Kop of Rtl.operation (* never [Ofloatconst] *)
  | Kfconst of int64

type key =
  | Tinit of Rtl.reg
  | Topaque of Rtl.node
  | Targ of Rtl.node * int
  | Top of opkey * int list
  | Tload of Rtl.chunk * Rtl.addressing * int list * int

type t = {
  mutable next_id : int;
  ids : (key, int) Hashtbl.t;
  mutable deps : IntSet.t array;    (* by term id *)
  mutable holders : IntSet.t array; (* by term id *)
  mentioned : bool array;           (* by node: some term mentions it *)
}

(* Only the index by node is sized from the walk: tables sized to the
   function start in the major heap, which measured slower. *)
let create (w : Rtl.walk) : t =
  { next_id = 0;
    ids = Hashtbl.create 251;
    deps = Array.make 64 IntSet.empty;
    holders = Array.make 64 IntSet.empty;
    mentioned = Array.make (Array.length w.Rtl.w_code) false }

let op (o : Rtl.operation) (args : int list) : key =
  match o with
  | Rtl.Ofloatconst c -> Top (Kfconst (Int64.bits_of_float c), args)
  | _ -> Top (Kop o, args)

let fresh (tm : t) : int =
  let id = tm.next_id in
  tm.next_id <- id + 1;
  if id = Array.length tm.deps then begin
    let grow a = Array.append a (Array.make id IntSet.empty) in
    tm.deps <- grow tm.deps;
    tm.holders <- grow tm.holders
  end;
  id

let id (tm : t) (k : key) : int =
  match Hashtbl.find_opt tm.ids k with
  | Some id -> id
  | None ->
    let id = fresh tm in
    Hashtbl.add tm.ids k id;
    (match k with
     | Tinit _ -> ()
     | Topaque n | Targ (n, _) ->
       tm.mentioned.(n) <- true;
       tm.deps.(id) <- IntSet.singleton n
     | Top (_, args) | Tload (_, _, args, _) ->
       let union acc a = IntSet.union acc tm.deps.(a) in
       tm.deps.(id) <- List.fold_left union IntSet.empty args);
    id

let mentioned (tm : t) (n : Rtl.node) : bool = tm.mentioned.(n)

let mentions (tm : t) (id : int) (n : Rtl.node) : bool =
  IntSet.mem n tm.deps.(id)

let hold (tm : t) (id : int) (r : Rtl.reg) : unit =
  let h = tm.holders.(id) in
  if not (IntSet.mem r h) then tm.holders.(id) <- IntSet.add r h

let holders (tm : t) (id : int) : Rtl.reg Seq.t = IntSet.to_seq tm.holders.(id)
