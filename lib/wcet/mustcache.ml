(* Ferdinand-style must-cache abstract interpretation.

   The abstract state maps memory lines to an *upper bound on their LRU
   age* within their cache set; a line with bounded age < associativity
   is guaranteed resident, so an access to it is classified ALWAYS-HIT
   at that program point. The join is the classic must-join:
   intersection of the line sets with the maximum of the age bounds.

   This refines the conflict-capacity classification of
   [Cacheanalysis]: in an over-subscribed set, individual accesses can
   still be proven hits (e.g. the reload of a slot stored two
   instructions earlier). The combination used by [Pipeline] charges a
   miss penalty only when an access is neither persistent (capacity
   argument) nor must-hit (ageing argument) — both arguments
   over-approximate the concrete LRU cache of the simulator, which the
   property tests check access by access.

   Imprecise accesses (address ranges, unresolved addresses) contribute
   no hits and age every line of the sets they may touch — the sound
   treatment of "imprecise memory accesses" the WCET literature warns
   about.

   The fixpoint runs on the worklist shared with the value analysis
   ([Cfg.fixpoint], reverse postorder). The domain has finite height and
   no widening, so its least fixpoint does not depend on the order in
   which blocks are processed: the order only changes how many visits
   it takes. [stable] re-checks a result as a post-fixpoint without
   using the order at all. *)

module Intmap = Flow.Intmap

let nsets = Cacheanalysis.nsets
let assoc = Cacheanalysis.assoc
let set_of = Cacheanalysis.set_of

(* Abstract must-cache: line -> age upper bound in [0, assoc), stored
   per cache set so an access only touches its own set's (at most
   assoc-sized) map instead of filtering every tracked line. Absent
   lines are possibly evicted (age >= assoc). Both levels are shared
   Patricia maps, and the outer one holds only the sets that have a
   line (it never binds an empty set map), so equal states have one
   shape: an access rebuilds one path, and a join, an equality or an
   order test skips every set both states share. *)
type acache = int Intmap.t Intmap.t

let empty : acache = Intmap.empty

let equal (a : acache) (b : acache) : bool =
  Intmap.equal (Intmap.equal Int.equal) a b

(* must-join: keep lines present in both, with the larger age bound *)
let join (a : acache) (b : acache) : acache =
  Intmap.inter
    (fun _ x y ->
       let m = Intmap.inter (fun _ u v -> Some (max u v)) x y in
       if Intmap.is_empty m then None else Some m)
    a b

(* [b] over-approximates [a]: every line [b] proves resident, [a] proves
   resident at an age no larger, so their join is [b]. *)
let leq (a : acache) (b : acache) : bool =
  Intmap.leq
    (fun _ x y ->
       match x, y with
       | Some x, Some y ->
         Intmap.leq
           (fun _ u v ->
              match u, v with
              | Some u, Some v -> u <= v
              | _, None -> true
              | None, Some _ -> false)
           x y
       | _, None -> true
       | None, Some _ -> false)
    a b

(* age every line of one set younger than [limit] by one, dropping
   lines reaching assoc *)
let age_set (m : int Intmap.t) ~(limit : int) : int Intmap.t =
  Intmap.filter_map
    (fun _ age ->
       if age < limit then
         if age + 1 >= assoc then None else Some (age + 1)
       else Some age)
    m

(* Precise access to one line of set map [m], where it has age bound
   [age]: the line becomes most-recently-used; other lines of the set
   younger than its (worst-case) previous age grow older by one (the
   line itself, at [limit], does not). If the line was possibly absent,
   every line of the set ages. *)
let touch_set (m : int Intmap.t) (line : int) (age : int option) :
  int Intmap.t =
  let limit = Option.value ~default:assoc age in
  Intmap.add line 0 (age_set m ~limit)

(* Imprecise access possibly touching the set: no line becomes young,
   every line may age. *)
let blur_set (m : int Intmap.t) : int Intmap.t = age_set m ~limit:assoc

(* [c] with set [s] mapped to [m], an empty [m] unbound. *)
let put (c : acache) (s : int) (m : int Intmap.t) : acache =
  if Intmap.is_empty m then Intmap.remove s c else Intmap.add s m c

let set_map (c : acache) (s : int) : int Intmap.t =
  match Intmap.find_opt s c with
  | Some m -> m
  | None -> Intmap.empty

let access_line (c : acache) (line : int) : acache =
  let s = set_of line in
  let m = set_map c s in
  put c s (touch_set m line (Intmap.find_opt line m))

let blur_sets (c : acache) (sets : int list) : acache =
  List.fold_left
    (fun c s ->
       match Intmap.find_opt s c with
       | Some m -> put c s (blur_set m)
       | None -> c)
    c sets

(* [blur_sets] over every set. *)
let blur_all (c : acache) : acache =
  Intmap.filter_map
    (fun _ m ->
       let m' = blur_set m in
       if Intmap.is_empty m' then None else Some m')
    c

(* The age bound of [line] in [c]; [None] when it may be evicted. *)
let age (c : acache) (line : int) : int option =
  match Intmap.find_opt (set_of line) c with
  | Some m -> Intmap.find_opt line m
  | None -> None

(* Is an access to [line] guaranteed to hit in state [c]? *)
let must_hit (c : acache) (line : int) : bool =
  match age c line with
  | Some a -> a < assoc
  | None -> false

(* ---- data-cache analysis over the reconstructed CFG ---- *)

(* A data access as seen by the must analysis. *)
type access =
  | Aline of int          (* exactly this line *)
  | Ablur of int list     (* possibly any line of these sets *)
  | Ablur_all             (* possibly any line *)

let access_of_span (span : (int * int) option) : access =
  match span with
  | Some (l1, l2) when l1 = l2 -> Aline l1
  | Some (l1, l2) when l2 - l1 < nsets ->
    Ablur (List.sort_uniq compare (List.init (l2 - l1 + 1) (fun k -> set_of (l1 + k))))
  | Some _ | None -> Ablur_all (* unresolved: may touch anything *)

let transfer_access (c : acache) (a : access) : acache =
  match a with
  | Aline l -> access_line c l
  | Ablur sets -> blur_sets c sets
  | Ablur_all -> blur_all c

let transfer_block (accs : access array array) (b : int) (c : acache) : acache
  =
  Array.fold_left transfer_access c accs.(b)

type result = {
  mc_entry : acache option array; (* per block; None = unreachable *)
  mc_accs : access array array;   (* per block, in instruction order *)
}

(* Fixpoint: entry states per block, on the shared reverse-postorder
   worklist [Cfg.fixpoint]. The domain has finite height (ages only
   grow under join, lines only disappear) and has no widening, so the
   iteration terminates and its least fixpoint is the same in any
   order; [fuel] bounds the worklist iterations anyway, so a
   join/transfer bug is a refusal upstream, not a hang. *)
let analyze ?(fuel = Fuel.default.Fuel.fl_widen) (cfg : Cfg.t)
    (va : Valueanalysis.result) (lay : Target.Layout.t) : result =
  (* The access sequence of a block is fully determined by the value
     analysis, not by the cache state, so it is read once from the
     access table and the fixpoint iterates transfer over it. *)
  let accs =
    Array.map
      (Array.map (fun ac -> access_of_span (Cacheanalysis.line_span lay ac)))
      va.Valueanalysis.r_accesses
  in
  let step b c =
    let out = transfer_block accs b c in
    List.map (fun (s, _) -> (s, out)) (Cfg.successors cfg b)
  in
  let merge _ old c = if leq c old then None else Some (join old c) in
  { mc_entry =
      Cfg.fixpoint ~fuel ~what:"must-cache ageing fixpoint" cfg empty ~step
        ~merge;
    mc_accs = accs }

(* Post-fixpoint check, independent of the iteration order: the entry
   block's state covers the empty cache, and along every edge out of a
   reachable block the target's entry state absorbs the source's
   transfer. *)
let stable (cfg : Cfg.t) (res : result) : bool =
  let covers (e : acache option) (c : acache) =
    match e with
    | Some e -> leq c e
    | None -> false
  in
  covers res.mc_entry.(cfg.Cfg.c_entry) empty
  && Seq.for_all
       (fun b ->
          match res.mc_entry.(b) with
          | None -> true
          | Some c ->
            let out = transfer_block res.mc_accs b c in
            List.for_all (fun (s, _) -> covers res.mc_entry.(s) out)
              (Cfg.successors cfg b))
       (Seq.init (Cfg.num_blocks cfg) Fun.id)

(* Classification of every data access of block [b]: for each
   memory-accessing instruction (in order), true when the access is an
   ALWAYS-HIT at that point. *)
let block_hits (res : result) (b : int) : bool list =
  match res.mc_entry.(b) with
  | None -> []
  | Some c0 ->
    let c = ref c0 in
    let hits = ref [] in
    Array.iter
      (fun a ->
         match a with
         | Aline l ->
           (* one lookup of the line serves the classification and the
              update; a line the map holds is younger than [assoc] *)
           let s = set_of l in
           let m = set_map !c s in
           let age = Intmap.find_opt l m in
           hits := Option.is_some age :: !hits;
           c := put !c s (touch_set m l age)
         | Ablur _ | Ablur_all ->
           hits := false :: !hits;
           c := transfer_access !c a)
      res.mc_accs.(b);
    List.rev !hits
