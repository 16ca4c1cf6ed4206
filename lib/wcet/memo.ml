(* Content-addressed cache of per-function WCET analysis.

   Re-analyzing a function whose machine code and memory placement are
   unchanged is pure waste: every analysis phase ([Cfg.build] through
   [Ipet.compute]) is a function of (instruction stream, entry address,
   addresses/sizes of the data symbols the code touches). [bench
   --compare] and the ablation tables recompute exactly that, thousands
   of times, because flight-program workloads instantiate the same
   handful of SCADE symbol bodies over and over.

   The cache is *content-addressed*: the key is an MD5 digest of a
   canonical serialization of everything the analysis consumes —

     - the instruction list, with analysis-irrelevant identifiers
       normalized away: volatile MMIO signal names (the timing model
       charges a fixed per-kind cost and the value analysis returns
       top regardless of the name) — so structurally identical nodes
       hit each other even though the ACG prefixes their signal names;
     - the function's entry address (block addresses, hence the
       instruction-cache geometry, derive from it);
     - the layout slice actually visible to the analysis: for every
       global/SDA symbol named by the code its (name, address, size),
       for every float-pool constant its (bits, pool address), and the
       stack top.

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

(* Volatile signal names are invisible to the analysis (see above);
   blanking them makes structurally identical nodes share an entry. *)
let normalize_instr (i : Asm.instr) : Asm.instr =
  match i with
  | Asm.Pacqi (r, _) -> Asm.Pacqi (r, "")
  | Asm.Pacqf (f, _) -> Asm.Pacqf (f, "")
  | Asm.Pouti (_, r) -> Asm.Pouti ("", r)
  | Asm.Poutf (_, f) -> Asm.Poutf ("", f)
  | _ -> i

let key ?(fuel = Fuel.default) ?(spec = "") ?(engine = Report.Ipet)
    (lay : Target.Layout.t) ~(base : int) (f : Asm.func) : key =
  (* data symbols and pool constants the code can name, in first-use
     order (deterministic for a given instruction stream) *)
  let syms = ref [] and seen_syms = Hashtbl.create 8 in
  let consts = ref [] and seen_consts = Hashtbl.create 8 in
  let sym (s : string) : unit =
    if not (Hashtbl.mem seen_syms s) then begin
      Hashtbl.add seen_syms s ();
      syms := s :: !syms
    end
  in
  let const (c : float) : unit =
    let bits = Int64.bits_of_float c in
    if not (Hashtbl.mem seen_consts bits) then begin
      Hashtbl.add seen_consts bits ();
      consts := bits :: !consts
    end
  in
  let addr (a : Asm.address) : unit =
    match a with
    | Asm.Aglob (s, _) | Asm.Asda (s, _) -> sym s
    | Asm.Aind _ | Asm.Aindx _ -> ()
  in
  List.iter
    (fun i ->
       match i with
       | Asm.Plwz (_, a) | Asm.Pstw (_, a) | Asm.Plfd (_, a)
       | Asm.Pstfd (_, a) -> addr a
       | Asm.Pla (_, s) -> sym s
       | Asm.Plfdc (_, c) -> const c
       | _ -> ())
    f.Asm.fn_code;
  let slice =
    ( List.rev_map
        (fun s ->
           ( s,
             Hashtbl.find_opt lay.Target.Layout.lay_sym s,
             Hashtbl.find_opt lay.Target.Layout.lay_sym_size s ))
        !syms,
      List.rev_map
        (fun bits -> (bits, Hashtbl.find_opt lay.Target.Layout.lay_consts bits))
        !consts,
      lay.Target.Layout.lay_stack_top )
  in
  (* the fuel budgets widen the key (the ROADMAP blind-spot rule): a
     budget change can flip an analysis between success and refusal or
     between an exact and a relaxation bound, so analyses under
     different budgets must never share an entry. The toolchain
     pipeline [spec] widens it the same way: two optimization
     selections must never share an entry, even on the rare node where
     they happen to emit identical code today. So does the path
     engine: IPET and OMT bounds differ by design, so [--engine ipet]
     and [--engine omt] runs must never serve each other's entries. *)
  let payload =
    Marshal.to_string
      ( List.map normalize_instr f.Asm.fn_code,
        base,
        slice,
        (fuel.Fuel.fl_widen, fuel.Fuel.fl_simplex, fuel.Fuel.fl_bb_nodes),
        spec,
        Report.engine_name engine )
      []
  in
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
