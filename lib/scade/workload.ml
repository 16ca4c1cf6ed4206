(* Synthetic flight-control workload generator.

   The paper's evaluation runs over ≈2500 automatically generated files
   of Airbus flight control software — proprietary, so per DESIGN.md we
   substitute seeded synthetic nodes with the same structure: a handful
   of signal acquisitions, a long mostly-straight-line mix of library
   symbols (arithmetic, filters, limiters, mode logic), occasional
   lookup tables, moving-average windows and config-bounded modal loops,
   and one or two actuator outputs. Sizes and symbol mix are
   parameterized; generation is deterministic in the seed.

   The generator is the producer of the streaming pipeline (it feeds
   Fcstack.Par.run_stream shard by shard), so it is linear: the wire
   pools are growable arrays with O(1) push/pick and tombstoned O(1)
   removal — never List.nth or a whole-pool filter scan per symbol.
   Every pool operation consumes the random stream exactly as the
   original list-based generator did, so generated nodes are
   byte-identical to the historical output for any seed. *)

type profile = {
  pf_symbols : int;       (* number of generated value symbols *)
  pf_acquisitions : int;  (* volatile inputs, >= 1 *)
  pf_outputs : int;       (* actuator outputs, >= 1 *)
  pf_loopy : bool;        (* allow lookup/movavg/modalsum symbols *)
}

let small_node : profile =
  { pf_symbols = 15; pf_acquisitions = 1; pf_outputs = 1; pf_loopy = false }

let medium_node : profile =
  { pf_symbols = 45; pf_acquisitions = 2; pf_outputs = 2; pf_loopy = true }

let large_node : profile =
  { pf_symbols = 110; pf_acquisitions = 4; pf_outputs = 3; pf_loopy = true }

(* Acquisition-dominated node: lots of I/O, little computation — the
   paper's "strong performance bottleneck" nodes whose WCET barely
   improves under any compiler. *)
let io_node : profile =
  { pf_symbols = 8; pf_acquisitions = 6; pf_outputs = 4; pf_loopy = false }


(* Random helpers over a deterministic state. *)
let pickf (rng : Random.State.t) (lo : float) (hi : float) : float =
  lo +. Random.State.float rng (hi -. lo)

(* ---- wire pools ------------------------------------------------------ *)

(* A growable array of wire identifiers. [push]/[get] are O(1); this
   replaces the [List.nth]-backed pick over a cons list (the historical
   list kept newest first, so list index [j] is array index
   [n - 1 - j]). *)
module Pool = struct
  type t = { mutable arr : int array; mutable n : int }

  let create () : t = { arr = Array.make 64 0; n = 0 }

  let push (p : t) (w : int) : unit =
    if p.n = Array.length p.arr then begin
      let bigger = Array.make (2 * p.n) 0 in
      Array.blit p.arr 0 bigger 0 p.n;
      p.arr <- bigger
    end;
    p.arr.(p.n) <- w;
    p.n <- p.n + 1

  let is_empty (p : t) : bool = p.n = 0

  (* The historical [pick_list rng pool] drew an index into the
     newest-first cons list; drawing the same index and flipping it
     keeps the random stream and the chosen wire identical. *)
  let pick (rng : Random.State.t) (p : t) : int =
    p.arr.(p.n - 1 - Random.State.int rng p.n)
end

(* The not-yet-consumed wires: preferred as sources, so that (like real
   control laws, where unused signals are modelling errors) almost
   every computed signal is live — a compiler cannot win by deleting
   dead subgraphs. Semantically a newest-first list supporting
   pop-newest and remove-by-value; implemented as a stack of wire ids
   plus a tombstone bitmap so removal by value is O(1) (the stale stack
   entry is skipped lazily when it surfaces). Each wire enters a pool
   exactly once, so a tombstone can never resurrect. *)
module Unused = struct
  type t = {
    stack : Pool.t;
    mutable dead : Bytes.t;  (* indexed by wire id; '\001' = removed *)
    mutable live : int;
  }

  let create () : t =
    { stack = Pool.create (); dead = Bytes.make 256 '\000'; live = 0 }

  let ensure (u : t) (w : int) : unit =
    if w >= Bytes.length u.dead then begin
      let bigger = Bytes.make (2 * (w + 1)) '\000' in
      Bytes.blit u.dead 0 bigger 0 (Bytes.length u.dead);
      u.dead <- bigger
    end

  let push (u : t) (w : int) : unit =
    ensure u w;
    Pool.push u.stack w;
    u.live <- u.live + 1

  let is_empty (u : t) : bool = u.live = 0

  (* drop tombstoned entries sitting on top of the stack *)
  let rec settle (u : t) : unit =
    let p = u.stack in
    if p.Pool.n > 0 && Bytes.get u.dead p.Pool.arr.(p.Pool.n - 1) = '\001'
    then begin
      p.Pool.n <- p.Pool.n - 1;
      settle u
    end

  (* the newest live wire (the historical list head); only call when
     non-empty. Flags the wire so a later remove-by-value of it is a
     no-op, exactly like filtering a list it is no longer in. *)
  let pop (u : t) : int =
    settle u;
    let p = u.stack in
    let w = p.Pool.arr.(p.Pool.n - 1) in
    p.Pool.n <- p.Pool.n - 1;
    Bytes.set u.dead w '\001';
    u.live <- u.live - 1;
    w

  (* remove by value if present (the historical whole-list filter) *)
  let remove (u : t) (w : int) : unit =
    ensure u w;
    if Bytes.get u.dead w = '\000' then begin
      Bytes.set u.dead w '\001';
      u.live <- u.live - 1
    end

  (* live wires, newest first (the historical list order: the stack
     grows oldest to newest, so prepending while walking up flips it) *)
  let to_list (u : t) : int list =
    let p = u.stack in
    let rec go i acc =
      if i >= p.Pool.n then acc
      else
        go (i + 1)
          (if Bytes.get u.dead p.Pool.arr.(i) = '\000' then
             p.Pool.arr.(i) :: acc
           else acc)
    in
    go 0 []
end

let generate_node ?(profile = medium_node) ~(seed : int) (name : string) :
  Symbol.node =
  let rng = Random.State.make [| seed; 0x5CADE |] in
  (* wire identifiers are local to the node: generation is a pure
     function of the seed *)
  let wire_counter = ref 0 in
  let fresh_wire () =
    incr wire_counter;
    !wire_counter
  in
  let instances = ref [] in
  let float_wires = Pool.create () in
  let bool_wires = Pool.create () in
  let unused_float = Unused.create () in
  let unused_bool = Unused.create () in
  let add (op : Symbol.op) : unit =
    match Symbol.result_typ op with
    | None -> instances := { Symbol.i_wire = None; i_op = op } :: !instances
    | Some t ->
      let w = fresh_wire () in
      instances := { Symbol.i_wire = Some w; i_op = op } :: !instances;
      (match t with
       | Symbol.Sfloat ->
         Pool.push float_wires w;
         Unused.push unused_float w
       | Symbol.Sbool ->
         Pool.push bool_wires w;
         Unused.push unused_bool w
       | Symbol.Sint -> ())
  in
  let fsrc () : Symbol.source =
    if (not (Unused.is_empty unused_float))
    && Random.State.int rng 100 < 70 then
      Symbol.Swire (Unused.pop unused_float)
    else if Random.State.int rng 20 = 0 || Pool.is_empty float_wires then
      Symbol.Sconstf (pickf rng (-8.0) 8.0)
    else begin
      let w = Pool.pick rng float_wires in
      Unused.remove unused_float w;
      Symbol.Swire w
    end
  in
  let bsrc () : Symbol.source =
    if (not (Unused.is_empty unused_bool))
    && Random.State.int rng 100 < 70 then
      Symbol.Swire (Unused.pop unused_bool)
    else if Pool.is_empty bool_wires then Symbol.Sconstb (Random.State.bool rng)
    else begin
      let w = Pool.pick rng bool_wires in
      Unused.remove unused_bool w;
      Symbol.Swire w
    end
  in
  (* acquisitions *)
  for i = 0 to profile.pf_acquisitions - 1 do
    add (Symbol.Yacq (Printf.sprintf "%s_in%d" name i))
  done;
  (* body *)
  for _ = 1 to profile.pf_symbols do
    let r = Random.State.int rng 100 in
    let op =
      if r < 12 then Symbol.Ysum (fsrc (), fsrc ())
      else if r < 22 then Symbol.Ydiff (fsrc (), fsrc ())
      else if r < 32 then Symbol.Yprod (fsrc (), fsrc ())
      else if r < 36 then Symbol.Ydivsafe (fsrc (), fsrc ())
      else if r < 44 then Symbol.Ygain (pickf rng (-3.0) 3.0, fsrc ())
      else if r < 48 then Symbol.Ybias (pickf rng (-5.0) 5.0, fsrc ())
      else if r < 52 then Symbol.Yabs (fsrc ())
      else if r < 58 then begin
        let lo = pickf rng (-50.0) 0.0 in
        Symbol.Ylimiter (lo, lo +. pickf rng 1.0 80.0, fsrc ())
      end
      else if r < 61 then Symbol.Ydeadband (pickf rng 0.1 2.0, fsrc ())
      else if r < 69 then Symbol.Yfilter (pickf rng 0.02 0.6, fsrc ())
      else if r < 73 then Symbol.Ydelay (fsrc ())
      else if r < 76 then begin
        let lo = pickf rng (-40.0) (-1.0) in
        Symbol.Yintegrator (pickf rng 0.005 0.04, lo, -.lo, fsrc ())
      end
      else if r < 79 then Symbol.Yratelimit (pickf rng 0.2 4.0, fsrc ())
      else if r < 84 then
        Symbol.Ycmp
          ( (let cmps =
               [| Symbol.CMPlt; Symbol.CMPle; Symbol.CMPgt; Symbol.CMPge |]
             in
             (* same draw as the historical pick over the 4-element list *)
             cmps.(Random.State.int rng 4)),
            fsrc (), fsrc () )
      else if r < 87 then Symbol.Yand (bsrc (), bsrc ())
      else if r < 89 then Symbol.Yor (bsrc (), bsrc ())
      else if r < 90 then Symbol.Ynot (bsrc ())
      else if r < 94 then Symbol.Yselect (bsrc (), fsrc (), fsrc ())
      else if r < 95 then begin
        let on = pickf rng 0.5 5.0 in
        Symbol.Yhysteresis (on, on -. pickf rng 0.2 1.0, fsrc ())
      end
      else if profile.pf_loopy && r < 97 then begin
        (* monotone random lookup table, 4..8 points *)
        let k = 4 + Random.State.int rng 5 in
        let start = pickf rng (-20.0) 0.0 in
        let breaks = Array.make k start in
        for i = 1 to k - 1 do
          breaks.(i) <- breaks.(i - 1) +. pickf rng 0.5 6.0
        done;
        let values = Array.init k (fun _ -> pickf rng (-30.0) 30.0) in
        Symbol.Ylookup
          ({ Symbol.tb_breaks = breaks; tb_values = values }, fsrc ())
      end
      else if profile.pf_loopy && r < 98 then
        Symbol.Ymovavg (4 + (2 * Random.State.int rng 5), fsrc ())
      else if profile.pf_loopy && r < 99 then
        Symbol.Ymodalsum (4 + Random.State.int rng 8, fsrc ())
      else Symbol.Ysqrt_approx (fsrc ())
    in
    add op
  done;
  (* consolidation cone: sum together every wire still unconsumed, so
     no computed signal is dead *)
  let rec drain () =
    if unused_float.Unused.live >= 2 then begin
      let a = Unused.pop unused_float in
      let b = Unused.pop unused_float in
      add (Symbol.Ysum (Symbol.Swire a, Symbol.Swire b));
      drain ()
    end
  in
  drain ();
  List.iter
    (fun w -> add (Symbol.Youtb (Printf.sprintf "%s_outb%d" name w, Symbol.Swire w)))
    (Unused.to_list unused_bool);
  List.iter (Unused.remove unused_bool) (Unused.to_list unused_bool);
  (* outputs: drive actuators from late float wires (the "result" of
     the control law) *)
  for i = 0 to profile.pf_outputs - 1 do
    add (Symbol.Yout (Printf.sprintf "%s_out%d" name i, fsrc ()))
  done;
  Schedule.sort { Symbol.n_name = name; n_instances = List.rev !instances }

(* ---- sharded generation --------------------------------------------- *)

(* Node [i] of the flight program: profile from the 3/2/4/1 size mix,
   per-node seed [seed + 7919 * i]. The per-node seed depends only on
   the *global* node index — never on any shard boundary — which is
   what makes a shard's slice byte-identical to the monolithic
   generator's at every shard size. *)
let node_at ~(seed : int) (i : int) : Symbol.node =
  let profile =
    match i mod 10 with
    | 0 | 1 | 2 -> io_node
    | 3 | 4 -> small_node
    | 5 | 6 | 7 | 8 -> medium_node
    | _ -> large_node
  in
  generate_node ~profile ~seed:(seed + (7919 * i)) (Printf.sprintf "n%03d" i)

type plan = {
  sp_nodes : int;
  sp_seed : int;
  sp_shard_size : int;
}

let default_shard_size = 256

let shard_plan ?(shard_size = default_shard_size) ~(nodes : int)
    ~(seed : int) () : plan =
  { sp_nodes = max 0 nodes;
    sp_seed = seed;
    sp_shard_size = max 1 shard_size }

let shard_count (p : plan) : int =
  (p.sp_nodes + p.sp_shard_size - 1) / p.sp_shard_size

let shard_bounds (p : plan) (k : int) : int * int =
  let lo = k * p.sp_shard_size in
  (min lo p.sp_nodes, min ((k + 1) * p.sp_shard_size) p.sp_nodes)

(* Node content draws only from the per-node seeds of [node_at], so
   concatenated shards stay byte-identical to the monolithic generator
   at every shard size. *)
let generate_shard (p : plan) (k : int) :
  (Symbol.node * Minic.Ast.program) array =
  let lo, hi = shard_bounds p k in
  Array.init (hi - lo) (fun j ->
      let node = node_at ~seed:p.sp_seed (lo + j) in
      (node, Acg.generate node))

(* A whole synthetic flight control program: [n] nodes of mixed sizes.
   Returns (node, its generated mini-C program) pairs. Defined as the
   concatenation of all shards of the default plan — the batch path
   *is* the streaming producer run eagerly. *)
let flight_program ~(nodes : int) ~(seed : int) :
  (Symbol.node * Minic.Ast.program) list =
  let plan = shard_plan ~nodes ~seed () in
  List.concat
    (List.init (shard_count plan) (fun k ->
         Array.to_list (generate_shard plan k)))
