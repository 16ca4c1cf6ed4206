(* Content-addressed cache of per-function WCET analysis.

   Re-analyzing a function whose machine code and memory placement are
   unchanged is pure waste: every analysis phase ([Cfg.build] through
   [Ipet.compute]) is a function of (instruction stream, entry address,
   addresses/sizes of the data symbols the code touches). [bench
   --compare] and the ablation tables recompute exactly that, thousands
   of times, because flight-program workloads instantiate the same
   handful of SCADE symbol bodies over and over.

   The cache is *content-addressed*: the key is an MD5 digest of a
   canonical, injective encoding (grammar below, at [key]) of everything
   the analysis consumes —

     - the instruction list, without the analysis-irrelevant volatile
       MMIO signal names (the timing model charges a fixed per-kind
       cost and the value analysis returns top regardless of the name)
       — so structurally identical nodes hit each other even though the
       ACG prefixes their signal names;
     - the function's entry address (block addresses, hence the
       instruction-cache geometry, derive from it);
     - the layout slice actually visible to the analysis: for every
       global/SDA symbol named by the code its (name, address, size),
       for every float-pool constant its (bits, pool address), and the
       stack top;
     - the fuel budgets, the producing pipeline spec and the engine.

   The encoding reads only content, never physical sharing: a function
   rebuilt from re-parsed source has the key of the original. (The
   key used to be [Marshal.to_string] with sharing on, whose
   back-references made it depend on which strings the compiler
   happened to share; that construction is the test oracle
   [test/memo_ref.ml].)

   The function *name* is deliberately not part of the key: it only
   ever reaches the output ([Report.rp_function], annotation-entry
   function fields), so [Driver] re-stamps it on a hit. Annotation
   *text* stays in the key — loop-bound annotations drive the bound
   analysis.

   Domain safety: the table is sharded by key digest with one [Mutex]
   per shard, so [Fcstack.Par] workers share one cache without
   serializing on a single lock. This is the repository's only shared
   mutable state in a library (the PR-2 audit rule): it is an explicit
   record threaded through [Driver.analyze ?cache] — never a module
   global — and a hit returns the same report a miss would compute, so
   the determinism contract survives by construction (and is
   qcheck-tested).

   A digest collision must not smuggle a wrong bound into a
   certification artifact, however unlikely: each entry stores the full
   key payload and a lookup whose payload differs is treated as a miss
   (the entry is then overwritten by the new analysis). *)

module Asm = Target.Asm

type value = {
  cv_report : Report.t;
  cv_annots : Annotfile.entry list;
}

type key = {
  k_digest : string;   (* MD5 of [k_payload]: shard + table key *)
  k_payload : string;  (* canonical serialization: collision guard *)
}

let digest (k : key) : string = k.k_digest

(* ---- key construction ---- *)

(* The payload is written in one pass over [fn_code] into a buffer
   reused by every key built on the same Domain. The grammar, each part
   prefix-free so the whole is injective:

     payload = instr* END  int(base)  slice  int(widen) int(simplex)
               int(bb_nodes)  string(spec)  string(engine)
     instr   = tag operands            (one tag per constructor)
     slice   = uint(#syms) (string(name) opt(addr) opt(size))*
               uint(#consts) (bits64 opt(addr))*  int(stack top)

   where [int] is a zigzag varint (registers, labels, ints), [uint] an
   unsigned varint, int32 operands are 4 bytes, floats are their 8 bits,
   [string] and lists are length-prefixed, [opt] is a 0/1 byte before
   its value. A symbol or pool constant in the code is written as its
   index in first-use order; its name (bits) and placement appear once,
   in the slice. Volatile signal names are not written at all. *)

module Strtbl = Hashtbl.Make (String)
module I64tbl = Hashtbl.Make (Int64)

type scratch = {
  sc_buf : Buffer.t;
  sc_syms : int Strtbl.t;             (* symbol -> first-use index *)
  mutable sc_sym_order : string list; (* reversed first-use order *)
  sc_consts : int I64tbl.t;           (* pool constant bits -> index *)
  mutable sc_const_order : int64 list;
}

(* Per-Domain, so [Fcstack.Par] workers never share a buffer. [key]
   runs no callback and the libraries start no systhreads, so one
   Domain never has two keys in flight. *)
let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { sc_buf = Buffer.create 8192;
        sc_syms = Strtbl.create 32;
        sc_sym_order = [];
        sc_consts = I64tbl.create 32;
        sc_const_order = [] })

let tag_end = 0xff  (* after the last instruction; no constructor's tag *)

let add_byte (b : Buffer.t) (n : int) : unit =
  Buffer.add_char b (Char.unsafe_chr n)

let rec add_uint (b : Buffer.t) (n : int) : unit =
  if n land lnot 0x7f = 0 then add_byte b n
  else begin
    add_byte b (n land 0x7f lor 0x80);
    add_uint b (n lsr 7)
  end

(* zigzag: a bijection on the 63-bit ints, small magnitudes stay short *)
let add_int (b : Buffer.t) (n : int) : unit =
  add_uint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let add_string (b : Buffer.t) (s : string) : unit =
  add_uint b (String.length s);
  Buffer.add_string b s

let add_float (b : Buffer.t) (f : float) : unit =
  Buffer.add_int64_le b (Int64.bits_of_float f)

let add_opt (b : Buffer.t) (o : int option) : unit =
  match o with
  | None -> add_byte b 0
  | Some n -> add_byte b 1; add_int b n

let sym_index (sc : scratch) (s : string) : int =
  match Strtbl.find sc.sc_syms s with
  | i -> i
  | exception Not_found ->
    let i = Strtbl.length sc.sc_syms in
    Strtbl.add sc.sc_syms s i;
    sc.sc_sym_order <- s :: sc.sc_sym_order;
    i

let const_index (sc : scratch) (c : float) : int =
  let bits = Int64.bits_of_float c in
  match I64tbl.find sc.sc_consts bits with
  | i -> i
  | exception Not_found ->
    let i = I64tbl.length sc.sc_consts in
    I64tbl.add sc.sc_consts bits i;
    sc.sc_const_order <- bits :: sc.sc_const_order;
    i

let op1 b t x = add_byte b t; add_int b x
let op2 b t x y = add_byte b t; add_int b x; add_int b y
let op3 b t x y z = add_byte b t; add_int b x; add_int b y; add_int b z
let opi b t x y (n : int32) = op2 b t x y; Buffer.add_int32_le b n

let add_cond (b : Buffer.t) (c : Asm.branch_cond) : unit =
  add_byte b
    (match c with
     | Asm.BT Asm.CRlt -> 0
     | Asm.BT Asm.CRgt -> 1
     | Asm.BT Asm.CReq -> 2
     | Asm.BF Asm.CRlt -> 3
     | Asm.BF Asm.CRgt -> 4
     | Asm.BF Asm.CReq -> 5)

let add_address (sc : scratch) (a : Asm.address) : unit =
  let b = sc.sc_buf in
  match a with
  | Asm.Aind (r, d) -> op1 b 0 r; Buffer.add_int32_le b d
  | Asm.Aindx (r, x) -> op2 b 1 r x
  | Asm.Aglob (s, d) -> op1 b 2 (sym_index sc s); Buffer.add_int32_le b d
  | Asm.Asda (s, d) -> op1 b 3 (sym_index sc s); Buffer.add_int32_le b d

let add_annot_arg (b : Buffer.t) (a : Asm.annot_arg) : unit =
  match a with
  | Asm.AA_ireg r -> op1 b 0 r
  | Asm.AA_freg f -> op1 b 1 f
  | Asm.AA_const_int n -> add_byte b 2; Buffer.add_int32_le b n
  | Asm.AA_const_float f -> add_byte b 3; add_float b f
  | Asm.AA_stack_int n -> add_byte b 4; Buffer.add_int32_le b n
  | Asm.AA_stack_float n -> add_byte b 5; Buffer.add_int32_le b n

let add_instr (sc : scratch) (i : Asm.instr) : unit =
  let b = sc.sc_buf in
  match i with
  | Asm.Plabel l -> op1 b 0 l
  | Asm.Pb l -> op1 b 1 l
  | Asm.Pbc (c, l) -> add_byte b 2; add_cond b c; add_int b l
  | Asm.Pblr -> add_byte b 3
  | Asm.Pannot (text, args) ->
    add_byte b 4;
    add_string b text;
    add_uint b (List.length args);
    List.iter (add_annot_arg b) args
  | Asm.Padd (d, x, y) -> op3 b 5 d x y
  | Asm.Psubf (d, x, y) -> op3 b 6 d x y
  | Asm.Pmullw (d, x, y) -> op3 b 7 d x y
  | Asm.Pdivw (d, x, y) -> op3 b 8 d x y
  | Asm.Pand (d, x, y) -> op3 b 9 d x y
  | Asm.Por (d, x, y) -> op3 b 10 d x y
  | Asm.Pxor (d, x, y) -> op3 b 11 d x y
  | Asm.Pslw (d, x, y) -> op3 b 12 d x y
  | Asm.Psraw (d, x, y) -> op3 b 13 d x y
  | Asm.Pneg (d, x) -> op2 b 14 d x
  | Asm.Pmr (d, x) -> op2 b 15 d x
  | Asm.Paddi (d, x, n) -> opi b 16 d x n
  | Asm.Paddis (d, x, n) -> opi b 17 d x n
  | Asm.Pori (d, x, n) -> opi b 18 d x n
  | Asm.Pslwi (d, x, n) -> op3 b 19 d x n
  | Asm.Plwz (r, a) -> op1 b 20 r; add_address sc a
  | Asm.Pstw (r, a) -> op1 b 21 r; add_address sc a
  | Asm.Plfd (r, a) -> op1 b 22 r; add_address sc a
  | Asm.Pstfd (r, a) -> op1 b 23 r; add_address sc a
  | Asm.Plfdc (r, c) -> op2 b 24 r (const_index sc c)
  | Asm.Pla (r, s) -> op2 b 25 r (sym_index sc s)
  | Asm.Pcmpw (x, y) -> op2 b 26 x y
  | Asm.Pcmpwi (x, n) -> op1 b 27 x; Buffer.add_int32_le b n
  | Asm.Pfcmpu (x, y) -> op2 b 28 x y
  | Asm.Psetcc (d, c) -> op1 b 29 d; add_cond b c
  | Asm.Pmovcc (d, s, c) -> op2 b 30 d s; add_cond b c
  | Asm.Pfmovcc (d, s, c) -> op2 b 31 d s; add_cond b c
  | Asm.Pfadd (d, x, y) -> op3 b 32 d x y
  | Asm.Pfsub (d, x, y) -> op3 b 33 d x y
  | Asm.Pfmul (d, x, y) -> op3 b 34 d x y
  | Asm.Pfdiv (d, x, y) -> op3 b 35 d x y
  | Asm.Pfmadd (d, x, y, z) -> op3 b 36 d x y; add_int b z
  | Asm.Pfmsub (d, x, y, z) -> op3 b 37 d x y; add_int b z
  | Asm.Pfneg (d, x) -> op2 b 38 d x
  | Asm.Pfabs (d, x) -> op2 b 39 d x
  | Asm.Pfmr (d, x) -> op2 b 40 d x
  | Asm.Pfcfiw (d, x) -> op2 b 41 d x
  | Asm.Pfctiwz (d, x) -> op2 b 42 d x
  (* volatile signal names are invisible to the analysis (see above);
     leaving them out lets structurally identical nodes share an entry *)
  | Asm.Pacqi (r, _) -> op1 b 43 r
  | Asm.Pacqf (f, _) -> op1 b 44 f
  | Asm.Pouti (_, r) -> op1 b 45 r
  | Asm.Poutf (_, f) -> op1 b 46 f
  | Asm.Pallocframe n -> op1 b 47 n
  | Asm.Pfreeframe n -> op1 b 48 n

let key ?(fuel = Fuel.default) ?(spec = "") ?(engine = Report.Ipet)
    (lay : Target.Layout.t) ~(base : int) (f : Asm.func) : key =
  let sc = Domain.DLS.get scratch_key in
  let b = sc.sc_buf in
  Buffer.clear b;
  Strtbl.clear sc.sc_syms;
  I64tbl.clear sc.sc_consts;
  sc.sc_sym_order <- [];
  sc.sc_const_order <- [];
  List.iter (add_instr sc) f.Asm.fn_code;
  add_byte b tag_end;
  add_int b base;
  (* the layout slice visible to the analysis, in first-use order *)
  add_uint b (Strtbl.length sc.sc_syms);
  List.iter
    (fun s ->
       add_string b s;
       add_opt b (Hashtbl.find_opt lay.Target.Layout.lay_sym s);
       add_opt b (Hashtbl.find_opt lay.Target.Layout.lay_sym_size s))
    (List.rev sc.sc_sym_order);
  add_uint b (I64tbl.length sc.sc_consts);
  List.iter
    (fun bits ->
       Buffer.add_int64_le b bits;
       add_opt b (Hashtbl.find_opt lay.Target.Layout.lay_consts bits))
    (List.rev sc.sc_const_order);
  add_int b lay.Target.Layout.lay_stack_top;
  (* the fuel budgets widen the key (the ROADMAP blind-spot rule): a
     budget change can flip an analysis between success and refusal or
     between an exact and a relaxation bound, so analyses under
     different budgets must never share an entry. The toolchain
     pipeline [spec] widens it the same way: two optimization
     selections must never share an entry, even on the rare node where
     they happen to emit identical code today. So does the path
     engine: IPET and OMT bounds differ by design, so [--engine ipet]
     and [--engine omt] runs must never serve each other's entries. *)
  add_int b fuel.Fuel.fl_widen;
  add_int b fuel.Fuel.fl_simplex;
  add_int b fuel.Fuel.fl_bb_nodes;
  add_string b spec;
  add_string b (Report.engine_name engine);
  let payload = Buffer.contents b in
  { k_digest = Digest.string payload; k_payload = payload }

(* ---- the sharded table ---- *)

type shard = {
  sh_mutex : Mutex.t;
  sh_table : (string, string * value) Hashtbl.t;  (* digest -> payload, value *)
  mutable sh_hits : int;
  mutable sh_disk_hits : int;
  mutable sh_misses : int;
  mutable sh_writes : int;
}

type t = {
  shards : shard array;
  (* the persistent half ([Store]): probed on memory misses, written
     through on [add]. [None] for a memory-only cache, or when the
     directory turned out not to be writable (silent degradation). *)
  store : Store.t option;
  (* phase-run counters (filled by [Driver] on misses), one mutex: six
     increments per miss are negligible next to the analysis itself *)
  ph_mutex : Mutex.t;
  mutable ph_decode : int;
  mutable ph_value : int;
  mutable ph_bounds : int;
  mutable ph_cache : int;
  mutable ph_pipeline : int;
  mutable ph_ipet : int;
  mutable ph_omt : int;
}

let create ?dir ?gc_mb () : t =
  { shards =
      Array.init 16 (fun _ ->
          { sh_mutex = Mutex.create ();
            sh_table = Hashtbl.create 64;
            sh_hits = 0;
            sh_disk_hits = 0;
            sh_misses = 0;
            sh_writes = 0 });
    store = Option.bind dir (fun dir -> Store.create ?gc_mb ~dir ());
    ph_mutex = Mutex.create ();
    ph_decode = 0;
    ph_value = 0;
    ph_bounds = 0;
    ph_cache = 0;
    ph_pipeline = 0;
    ph_ipet = 0;
    ph_omt = 0 }

let store_dir (t : t) : string option = Option.map Store.dir t.store

let gc ?max_bytes (t : t) : unit =
  Option.iter (Store.gc ?max_bytes) t.store

let shard_of (t : t) (k : key) : shard =
  (* first two digest bytes: uniform for MD5, independent of shard count *)
  let h = Char.code k.k_digest.[0] lor (Char.code k.k_digest.[1] lsl 8) in
  t.shards.(h mod Array.length t.shards)

let locked (m : Mutex.t) (f : unit -> 'a) : 'a =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Probe the persistent store on a memory miss. Runs under the shard
   lock: other shards proceed, and a verified disk entry is promoted
   into the memory table exactly once. A load failure of any kind
   (absent, truncated, bit-flipped, version-mismatched entry) is
   [None] by Store's contract — never an exception. *)
let disk_probe (t : t) (sh : shard) (k : key) : value option =
  match t.store with
  | None -> None
  | Some st ->
    (match Store.load st ~digest:k.k_digest ~payload:k.k_payload with
     | Some (report, annots) ->
       let v = { cv_report = report; cv_annots = annots } in
       Hashtbl.replace sh.sh_table k.k_digest (k.k_payload, v);
       Some v
     | None -> None)

let find (t : t) (k : key) : value option =
  let sh = shard_of t k in
  locked sh.sh_mutex (fun () ->
      match Hashtbl.find_opt sh.sh_table k.k_digest with
      | Some (payload, v) when String.equal payload k.k_payload ->
        sh.sh_hits <- sh.sh_hits + 1;
        Some v
      | Some _ (* digest collision: never serve the other entry *) | None ->
        (match disk_probe t sh k with
         | Some v ->
           sh.sh_disk_hits <- sh.sh_disk_hits + 1;
           Some v
         | None ->
           sh.sh_misses <- sh.sh_misses + 1;
           None))

(* Lookup without touching the hit/miss counters: for secondary
   consumers (annotation-file assembly) whose lookups would otherwise
   distort the analysis accounting. *)
let peek (t : t) (k : key) : value option =
  let sh = shard_of t k in
  locked sh.sh_mutex (fun () ->
      match Hashtbl.find_opt sh.sh_table k.k_digest with
      | Some (payload, v) when String.equal payload k.k_payload -> Some v
      | Some _ | None -> disk_probe t sh k)

let add (t : t) (k : key) (v : value) : unit =
  let sh = shard_of t k in
  locked sh.sh_mutex (fun () ->
      Hashtbl.replace sh.sh_table k.k_digest (k.k_payload, v);
      match t.store with
      | None -> ()
      | Some st ->
        if
          Store.save st ~digest:k.k_digest ~payload:k.k_payload
            (v.cv_report, v.cv_annots)
        then sh.sh_writes <- sh.sh_writes + 1)

let length (t : t) : int =
  Array.fold_left
    (fun acc sh -> acc + locked sh.sh_mutex (fun () -> Hashtbl.length sh.sh_table))
    0 t.shards

(* ---- phase accounting ---- *)

type phase = Pdecode | Pvalue | Pbounds | Pcache | Ppipeline | Pipet | Pomt

let count_phase (t : t option) (p : phase) : unit =
  match t with
  | None -> ()
  | Some t ->
    locked t.ph_mutex (fun () ->
        match p with
        | Pdecode -> t.ph_decode <- t.ph_decode + 1
        | Pvalue -> t.ph_value <- t.ph_value + 1
        | Pbounds -> t.ph_bounds <- t.ph_bounds + 1
        | Pcache -> t.ph_cache <- t.ph_cache + 1
        | Ppipeline -> t.ph_pipeline <- t.ph_pipeline + 1
        | Pipet -> t.ph_ipet <- t.ph_ipet + 1
        | Pomt -> t.ph_omt <- t.ph_omt + 1)

let stats (t : t) : Report.analysis_stats =
  let hits = ref 0 and disk_hits = ref 0 and misses = ref 0 in
  let writes = ref 0 and entries = ref 0 in
  Array.iter
    (fun sh ->
       locked sh.sh_mutex (fun () ->
           hits := !hits + sh.sh_hits;
           disk_hits := !disk_hits + sh.sh_disk_hits;
           misses := !misses + sh.sh_misses;
           writes := !writes + sh.sh_writes;
           entries := !entries + Hashtbl.length sh.sh_table))
    t.shards;
  locked t.ph_mutex (fun () ->
      { Report.st_hits = !hits;
        st_disk_hits = !disk_hits;
        st_misses = !misses;
        st_writes = !writes;
        st_entries = !entries;
        st_decode = t.ph_decode;
        st_value = t.ph_value;
        st_bounds = t.ph_bounds;
        st_cache = t.ph_cache;
        st_pipeline = t.ph_pipeline;
        st_ipet = t.ph_ipet;
        st_omt = t.ph_omt })
