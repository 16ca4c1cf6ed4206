(* Reference solver: exact rational arithmetic and a two-phase primal
   simplex with branch & bound. It solves the IPET integer linear
   program (implicit path enumeration maximizes cycle flow — Li &
   Malik's method as used by aiT) as an explicit system, which makes it
   the oracle for the analyzer's longest-path pass ([Wcet.Ipet]) and
   for the OMT engine's search over cuts ([Wcet.Smt]).

   Rationals are normalized fractions of native 63-bit integers with
   explicit overflow checks: the IPET programs are small (hundreds of
   variables, coefficients bounded by cycle counts and loop bounds), so
   exact arithmetic is affordable and removes any floating-point
   soundness worry. *)

exception Overflow
exception Infeasible
exception Unbounded

(* ---- rationals ----------------------------------------------------- *)

module Q = struct
  type t = {
    num : int;
    den : int; (* > 0 *)
  }

  let check (x : int) : int =
    if x > 0x3FFFFFFFFFFFFF || x < -0x3FFFFFFFFFFFFF then raise Overflow else x

  let rec gcd (a : int) (b : int) : int = if b = 0 then a else gcd b (a mod b)

  let make (num : int) (den : int) : t =
    if den = 0 then invalid_arg "Q.make: zero denominator";
    let num, den = if den < 0 then (-num, -den) else (num, den) in
    let g = gcd (abs num) den in
    let g = if g = 0 then 1 else g in
    { num = check (num / g); den = den / g }

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let of_int (n : int) : t = { num = check n; den = 1 }

  let mul_safe (a : int) (b : int) : int =
    if a = 0 || b = 0 then 0
    else begin
      let r = a * b in
      if r / b <> a then raise Overflow else check r
    end

  (* The arithmetic fast paths below return the same normalized value
     as the general [make] path (a zero operand or two unit
     denominators need no gcd); IPET's flow matrices are near totally
     unimodular, so tableau entries are almost always integers and the
     fast paths carry nearly all of the simplex arithmetic. *)

  let add (a : t) (b : t) : t =
    if b.num = 0 then a
    else if a.num = 0 then b
    else if a.den = 1 && b.den = 1 then { num = check (a.num + b.num); den = 1 }
    else
      make (mul_safe a.num b.den + mul_safe b.num a.den) (mul_safe a.den b.den)

  let sub (a : t) (b : t) : t =
    if b.num = 0 then a
    else if a.num = 0 then { b with num = -b.num }
    else if a.den = 1 && b.den = 1 then { num = check (a.num - b.num); den = 1 }
    else
      make (mul_safe a.num b.den - mul_safe b.num a.den) (mul_safe a.den b.den)

  let mul (a : t) (b : t) : t =
    if a.num = 0 || b.num = 0 then zero
    else if a.den = 1 && b.den = 1 then { num = mul_safe a.num b.num; den = 1 }
    else make (mul_safe a.num b.num) (mul_safe a.den b.den)

  let div (a : t) (b : t) : t =
    if b.num = 0 then invalid_arg "Q.div: by zero";
    make (mul_safe a.num b.den) (mul_safe a.den b.num)

  let neg (a : t) : t = { a with num = -a.num }
  let compare (a : t) (b : t) : int =
    if a.den = 1 && b.den = 1 then compare a.num b.num
    else compare (mul_safe a.num b.den) (mul_safe b.num a.den)

  let equal (a : t) (b : t) : bool = compare a b = 0
  let sign (a : t) : int = compare a zero
  let is_zero (a : t) : bool = a.num = 0
  let is_integer (a : t) : bool = a.den = 1
  let floor (a : t) : int =
    if a.num >= 0 then a.num / a.den
    else -(((-a.num) + a.den - 1) / a.den)

  let ceil (a : t) : int = -floor (neg a)
  let to_float (a : t) : float = float_of_int a.num /. float_of_int a.den
  let to_string (a : t) : string =
    if a.den = 1 then string_of_int a.num
    else Printf.sprintf "%d/%d" a.num a.den
end

(* ---- linear programs ----------------------------------------------- *)

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  cs_coeffs : (int * Q.t) list; (* variable index, coefficient *)
  cs_rel : relation;
  cs_rhs : Q.t;
}

type problem = {
  pb_nvars : int;
  pb_objective : Q.t array; (* maximize c.x *)
  pb_constraints : constr list;
}

type solution = {
  sol_objective : Q.t;
  sol_values : Q.t array;
}

(* Two-phase dense-tableau simplex, maximizing, all variables >= 0.
   [fuel] bounds the pivoting iterations of each phase; exhaustion
   raises [Wcet.Fuel.Exhausted] (Bland's rule guarantees termination in
   theory, but a budget guarantees it against bugs and degenerate
   inputs too — the analyzer turns the exhaustion into a refusal). *)
let solve ?(fuel = Wcet.Fuel.default.Wcet.Fuel.fl_simplex) (pb : problem) : solution =
  let n = pb.pb_nvars in
  let constrs =
    (* normalize to rhs >= 0 *)
    List.map
      (fun c ->
         if Q.sign c.cs_rhs < 0 then
           { cs_coeffs = List.map (fun (j, q) -> (j, Q.neg q)) c.cs_coeffs;
             cs_rel = (match c.cs_rel with Le -> Ge | Ge -> Le | Eq -> Eq);
             cs_rhs = Q.neg c.cs_rhs }
         else c)
      pb.pb_constraints
  in
  let m = List.length constrs in
  (* column layout: [0,n) structural; then one slack/surplus per Le/Ge;
     then artificials for Ge/Eq; last column = rhs *)
  let nslack =
    List.length (List.filter (fun c -> c.cs_rel <> Eq) constrs)
  in
  let nart = List.length (List.filter (fun c -> c.cs_rel <> Le) constrs) in
  let total = n + nslack + nart in
  let tab = Array.make_matrix m (total + 1) Q.zero in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let next_slack = ref n in
  let next_art = ref (n + nslack) in
  List.iteri
    (fun i c ->
       List.iter
         (fun (j, q) ->
            if j < 0 || j >= n then invalid_arg "Lp_ref.solve: bad variable index";
            tab.(i).(j) <- Q.add tab.(i).(j) q)
         c.cs_coeffs;
       tab.(i).(total) <- c.cs_rhs;
       (match c.cs_rel with
        | Le ->
          tab.(i).(!next_slack) <- Q.one;
          basis.(i) <- !next_slack;
          incr next_slack
        | Ge ->
          tab.(i).(!next_slack) <- Q.neg Q.one;
          incr next_slack;
          tab.(i).(!next_art) <- Q.one;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          incr next_art
        | Eq ->
          tab.(i).(!next_art) <- Q.one;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          incr next_art))
    constrs;
  let is_art = Array.make total false in
  List.iter (fun j -> is_art.(j) <- true) !art_cols;
  (* objective row: maximize -> store c, we work with reduced costs *)
  (* Zero entries are skipped on both sides of the elimination: the
     flow tableaus are sparse and 0/p and x - f*0 are the stored values
     unchanged, so the dense result is bit-for-bit the same. *)
  let pivot (row : int) (col : int) : unit =
    let p = tab.(row).(col) in
    let prow = tab.(row) in
    for j = 0 to total do
      if not (Q.is_zero prow.(j)) then prow.(j) <- Q.div prow.(j) p
    done;
    for i = 0 to m - 1 do
      if i <> row && not (Q.is_zero tab.(i).(col)) then begin
        let f = tab.(i).(col) in
        let ri = tab.(i) in
        for j = 0 to total do
          let pj = prow.(j) in
          if not (Q.is_zero pj) then ri.(j) <- Q.sub ri.(j) (Q.mul f pj)
        done
      end
    done;
    basis.(row) <- col
  in
  (* generic simplex loop on objective coefficients [obj] (maximize).

     Reduced costs rc_j = c_j - z_j = c_j - sum_i c_B(i) tab(i)(j) are
     computed once at phase start and then maintained across pivots by
     the same elimination as the tableau rows (rc_j -= rc_col * a'_rj):
     every rational is stored normalized, so the maintained entries are
     the very values a from-scratch recomputation would produce and the
     entering-column choice — Dantzig's best positive rc, or Bland's
     first improving one past the anti-cycling threshold — is
     unchanged. This turns the per-iteration column scan from
     O(columns * rows) into O(columns). *)
  let run_phase (obj : Q.t array) ~(allow : int -> bool) : unit =
    let rc = Array.make total Q.zero in
    let cb = Array.map (fun b -> obj.(b)) basis in
    for j = 0 to total - 1 do
      let zj = ref Q.zero in
      for i = 0 to m - 1 do
        if not (Q.is_zero tab.(i).(j)) then
          zj := Q.add !zj (Q.mul cb.(i) tab.(i).(j))
      done;
      rc.(j) <- Q.sub obj.(j) !zj
    done;
    let iterations = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      incr iterations;
      Wcet.Fuel.tick ();
      if !iterations > fuel then Wcet.Fuel.exhaust "simplex pivoting";
      (* Dantzig rule normally; Bland's anti-cycling rule after many
         iterations (guarantees termination on degenerate problems). *)
      let bland = !iterations > 500 in
      let best_col = ref (-1) in
      let best_val = ref Q.zero in
      (try
         for j = 0 to total - 1 do
           if allow j then begin
             (* entering column: positive reduced cost (maximization) *)
             if Q.compare rc.(j) !best_val > 0 then begin
               best_col := j;
               best_val := rc.(j);
               if bland then raise Exit (* first improving column *)
             end
           end
         done
       with Exit -> ());
      if !best_col = -1 then continue_ := false
      else begin
        (* ratio test; ties resolved by smallest basis index (Bland) *)
        let col = !best_col in
        let best_row = ref (-1) in
        let best_ratio = ref Q.zero in
        for i = 0 to m - 1 do
          if Q.sign tab.(i).(col) > 0 then begin
            let ratio = Q.div tab.(i).(total) tab.(i).(col) in
            if !best_row = -1 || Q.compare ratio !best_ratio < 0
               || (Q.equal ratio !best_ratio && basis.(i) < basis.(!best_row))
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row = -1 then raise Unbounded;
        pivot !best_row col;
        let f = !best_val in
        let prow = tab.(!best_row) in
        for j = 0 to total - 1 do
          let pj = prow.(j) in
          if not (Q.is_zero pj) then rc.(j) <- Q.sub rc.(j) (Q.mul f pj)
        done
      end
    done
  in
  (* phase 1: minimize sum of artificials = maximize -(sum art) *)
  if nart > 0 then begin
    let obj1 = Array.make total Q.zero in
    Array.iteri (fun j a -> if a then obj1.(j) <- Q.neg Q.one) is_art;
    run_phase obj1 ~allow:(fun _ -> true);
    (* check feasibility: artificial variables must be zero *)
    let infeas = ref Q.zero in
    Array.iteri
      (fun i b -> if is_art.(b) then infeas := Q.add !infeas tab.(i).(total))
      basis;
    if Q.sign !infeas <> 0 then raise Infeasible;
    (* drive remaining artificials out of the basis when possible *)
    Array.iteri
      (fun i b ->
         if is_art.(b) then begin
           let found = ref false in
           for j = 0 to n + nslack - 1 do
             if (not !found) && not (Q.is_zero tab.(i).(j)) then begin
               pivot i j;
               found := true
             end
           done
         end)
      basis
  end;
  (* phase 2 *)
  let obj2 = Array.make total Q.zero in
  Array.blit pb.pb_objective 0 obj2 0 n;
  run_phase obj2 ~allow:(fun j -> not is_art.(j));
  (* extract solution *)
  let values = Array.make n Q.zero in
  Array.iteri
    (fun i b -> if b < n then values.(b) <- tab.(i).(total))
    basis;
  let objective =
    Array.to_list (Array.mapi (fun j v -> Q.mul pb.pb_objective.(j) v)
                     (Array.sub values 0 n))
    |> List.fold_left Q.add Q.zero
  in
  ignore values;
  { sol_objective = objective; sol_values = values }

(* ---- branch & bound for integral solutions ------------------------- *)

(* Maximize over integral solutions. Returns the best integral solution
   found together with a sound upper bound: if the node/depth budget is
   exhausted, the LP relaxation value (rounded up) is returned as the
   bound — still a safe WCET over-approximation. *)
type int_solution = {
  is_objective_bound : int; (* sound upper bound on the integral optimum *)
  is_exact : bool;          (* true when the bound is attained integrally *)
}

let solve_integer ?fuel ?(max_nodes = Wcet.Fuel.default.Wcet.Fuel.fl_bb_nodes)
    (pb : problem) : int_solution =
  let nodes = ref 0 in
  let rec go (pb : problem) (depth : int) : int_solution =
    incr nodes;
    match solve ?fuel pb with
    | exception Infeasible -> { is_objective_bound = min_int; is_exact = true }
    | sol ->
      let frac =
        Array.to_list (Array.mapi (fun j v -> (j, v)) sol.sol_values)
        |> List.find_opt (fun (_, v) -> not (Q.is_integer v))
      in
      (match frac with
       | None ->
         { is_objective_bound = Q.floor sol.sol_objective; is_exact = true }
       | Some (j, v) ->
         if !nodes > max_nodes || depth > 40 then
           (* give up on integrality: LP bound is still sound *)
           { is_objective_bound = Q.ceil sol.sol_objective; is_exact = false }
         else begin
           let lo =
             go
               { pb with
                 pb_constraints =
                   { cs_coeffs = [ (j, Q.one) ];
                     cs_rel = Le;
                     cs_rhs = Q.of_int (Q.floor v) }
                   :: pb.pb_constraints }
               (depth + 1)
           in
           let hi =
             go
               { pb with
                 pb_constraints =
                   { cs_coeffs = [ (j, Q.one) ];
                     cs_rel = Ge;
                     cs_rhs = Q.of_int (Q.ceil v) }
                   :: pb.pb_constraints }
               (depth + 1)
           in
           { is_objective_bound =
               max lo.is_objective_bound hi.is_objective_bound;
             is_exact = lo.is_exact && hi.is_exact }
         end)
  in
  go pb 0
