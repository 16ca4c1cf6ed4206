(* The analyzer's abstract domains as they were before their states
   moved onto [Flow.Intmap]: the value state as a 32-register array that
   every register write copies, with stack slots in a stdlib [Map]; the
   must-cache as a 128-slot array of stdlib [Map]s, one per cache set,
   copied on every access and rebuilt by every join; and the interval
   join and widening that always allocate. They share no state or map
   code with the domains under test, which must compute the same values.
   The old domains had no direct order: [leq a b] here is the equality
   of [join a b] and [b] it stands for. *)

module Interval = Wcet.Interval
module Va = Wcet.Valueanalysis
module IMap = Map.Make (Int)

(* ---- intervals ---- *)

let itv_join (a : Interval.t) (b : Interval.t) : Interval.t =
  { Interval.lo = min a.Interval.lo b.Interval.lo;
    hi = max a.Interval.hi b.Interval.hi }

let itv_widen (old_i : Interval.t) (new_i : Interval.t) : Interval.t =
  { Interval.lo =
      (if new_i.Interval.lo < old_i.Interval.lo then Interval.int32_min
       else old_i.Interval.lo);
    hi =
      (if new_i.Interval.hi > old_i.Interval.hi then Interval.int32_max
       else old_i.Interval.hi) }

(* ---- value analysis ---- *)

let vint_top = Va.Vint Interval.top

let absval_equal (a : Va.absval) (b : Va.absval) : bool =
  match a, b with
  | Va.Vint x, Va.Vint y -> Interval.equal x y
  | Va.Vsym (s1, x), Va.Vsym (s2, y) -> String.equal s1 s2 && Interval.equal x y
  | Va.Vsp x, Va.Vsp y -> Interval.equal x y
  | Va.Vtop, Va.Vtop -> true
  | (Va.Vint _ | Va.Vsym _ | Va.Vsp _ | Va.Vtop), _ -> false

let join_absval (a : Va.absval) (b : Va.absval) : Va.absval =
  match a, b with
  | Va.Vint x, Va.Vint y -> Va.Vint (itv_join x y)
  | Va.Vsym (s1, x), Va.Vsym (s2, y) when String.equal s1 s2 ->
    Va.Vsym (s1, itv_join x y)
  | Va.Vsp x, Va.Vsp y -> Va.Vsp (itv_join x y)
  | _, _ -> Va.Vtop

let widen_absval (old_v : Va.absval) (new_v : Va.absval) : Va.absval =
  match old_v, new_v with
  | Va.Vint x, Va.Vint y -> Va.Vint (itv_widen x y)
  | Va.Vsym (s1, x), Va.Vsym (s2, y) when String.equal s1 s2 ->
    Va.Vsym (s1, itv_widen x y)
  | Va.Vsp x, Va.Vsp y -> Va.Vsp (itv_widen x y)
  | _, _ -> if absval_equal old_v new_v then old_v else Va.Vtop

type state = {
  regs : Va.absval array; (* 32 integer registers *)
  slots : Va.absval IMap.t;
}

let init_state : state =
  let regs = Array.make 32 Va.Vtop in
  regs.(Target.Asm.sp) <- Va.Vsp (Interval.of_int_const 0);
  regs.(0) <- vint_top;
  { regs; slots = IMap.empty }

let state_equal (a : state) (b : state) : bool =
  let rec regs_eq i =
    i >= 32 || (absval_equal a.regs.(i) b.regs.(i) && regs_eq (i + 1))
  in
  regs_eq 0 && IMap.equal absval_equal a.slots b.slots

let join_state (a : state) (b : state) : state =
  { regs = Array.init 32 (fun i -> join_absval a.regs.(i) b.regs.(i));
    slots =
      IMap.merge
        (fun _ x y ->
           match x, y with
           | Some x, Some y -> Some (join_absval x y)
           | Some _, None | None, Some _ | None, None -> Some Va.Vtop)
        a.slots b.slots }

let widen_state (old_s : state) (new_s : state) : state =
  { regs = Array.init 32 (fun i -> widen_absval old_s.regs.(i) new_s.regs.(i));
    slots =
      IMap.merge
        (fun _ x y ->
           match x, y with
           | Some x, Some y -> Some (widen_absval x y)
           | Some _, None | None, Some _ | None, None -> Some Va.Vtop)
        old_s.slots new_s.slots }

let state_leq (a : state) (b : state) : bool = state_equal (join_state a b) b

let set_reg (st : state) (r : Target.Asm.ireg) (v : Va.absval) : state =
  let regs = Array.copy st.regs in
  regs.(r) <- v;
  { st with regs }

let set_slot (st : state) (k : int) (v : Va.absval) : state =
  { st with slots = IMap.add k v st.slots }

(* ---- must-cache ---- *)

let nsets = Target.Cache.mpc755_l1.Target.Cache.cfg_sets
let assoc = Target.Cache.mpc755_l1.Target.Cache.cfg_assoc

let set_of (line : int) : int =
  let s = line mod nsets in
  if s < 0 then s + nsets else s

type acache = int IMap.t array

let empty : acache = Array.make nsets IMap.empty

let equal (a : acache) (b : acache) : bool =
  a == b
  || (let ok = ref true in
      for s = 0 to nsets - 1 do
        if !ok && not (a.(s) == b.(s) || IMap.equal Int.equal a.(s) b.(s))
        then ok := false
      done;
      !ok)

let join (a : acache) (b : acache) : acache =
  Array.init nsets (fun s ->
      if a.(s) == b.(s) then a.(s)
      else
        IMap.merge
          (fun _ x y ->
             match x, y with
             | Some x, Some y -> Some (max x y)
             | Some _, None | None, Some _ | None, None -> None)
          a.(s) b.(s))

let leq (a : acache) (b : acache) : bool = equal (join a b) b

let age_set (m : int IMap.t) ~(except : int) ~(limit : int) : int IMap.t =
  IMap.filter_map
    (fun l age ->
       if l <> except && age < limit then
         if age + 1 >= assoc then None else Some (age + 1)
       else Some age)
    m

let touch_set (m : int IMap.t) (line : int) : int IMap.t =
  let limit = Option.value ~default:assoc (IMap.find_opt line m) in
  IMap.add line 0 (age_set m ~except:line ~limit)

let blur_set (m : int IMap.t) : int IMap.t =
  age_set m ~except:min_int ~limit:assoc

let access_line (c : acache) (line : int) : acache =
  let c' = Array.copy c in
  c'.(set_of line) <- touch_set c.(set_of line) line;
  c'

let blur_sets (c : acache) (sets : int list) : acache =
  let c' = Array.copy c in
  List.iter (fun s -> c'.(s) <- blur_set c.(s)) sets;
  c'

(* The age bound of [line], [None] when it may have been evicted. *)
let age (c : acache) (line : int) : int option = IMap.find_opt line c.(set_of line)
