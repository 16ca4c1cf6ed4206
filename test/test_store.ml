(* Tests of the persistent on-disk analysis store (Wcet.Store beneath
   Wcet.Memo): analyses survive across cache instances (the
   cross-process contract), warm == cold == uncached results (qcheck),
   corrupted/truncated/stale entries are silently misses that
   re-analyze correctly (fault injection), the LRU GC respects recency,
   and two Domains over independent handles to one directory never
   disagree with the sequential reference. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- scratch directories ---- *)

let dir_counter = ref 0

let fresh_dir () : string =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vericomp-store-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf (path : string) : unit =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with _ -> ())
  | _ -> ( try Sys.remove path with _ -> ())
  | exception _ -> ()

let with_dir (f : string -> 'a) : 'a =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file (path : string) (s : string) : unit =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* entry file of a hex digest, per the documented on-disk layout *)
let entry_path (dir : string) (hex : string) : string =
  Filename.concat (Filename.concat dir (String.sub hex 0 2)) hex

let entry_paths (dir : string) : string list =
  match Wcet.Store.create ~dir () with
  | None -> []
  | Some st -> List.map (entry_path dir) (Wcet.Store.entries st)

(* ---- subjects ---- *)

let build_src (text : string) : Minic.Ast.program =
  let p = Minic.Parser.parse_program text in
  Minic.Typecheck.check_program_exn p;
  p

let small_built () : Fcstack.Chain.built =
  Fcstack.Chain.build Fcstack.Chain.Cvcomp
    (build_src
       {| global int g; void m() { var int x; x = 4; $g = x * 3; } main m; |})

(* ---- persistence across cache instances (the cross-run contract) ---- *)

let test_persists_across_instances () =
  with_dir (fun dir ->
      let b = small_built () in
      let uncached =
        Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
      in
      (* cold: fresh cache over an empty directory *)
      let m1 = Wcet.Memo.create ~dir () in
      checkb "store attached" true (Wcet.Memo.store_dir m1 = Some dir);
      let cold =
        Wcet.Driver.analyze_full ~cache:m1 b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      let st1 = Wcet.Memo.stats m1 in
      checkb "cold run missed" true (st1.Wcet.Report.st_misses > 0);
      checki "cold run had no disk hits" 0 st1.Wcet.Report.st_disk_hits;
      checkb "cold run wrote entries" true (st1.Wcet.Report.st_writes > 0);
      checkb "entries on disk" true (entry_paths dir <> []);
      (* warm: a NEW cache instance (empty memory) over the same dir —
         this is what a second process run sees *)
      let m2 = Wcet.Memo.create ~dir () in
      let warm =
        Wcet.Driver.analyze_full ~cache:m2 b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      let st2 = Wcet.Memo.stats m2 in
      checkb "warm run served from disk" true
        (st2.Wcet.Report.st_disk_hits > 0);
      checki "warm run ran no decode" 0 st2.Wcet.Report.st_decode;
      checki "warm run wrote nothing" 0 st2.Wcet.Report.st_writes;
      checkb "warm = cold" true (warm = cold);
      checkb "persistent = uncached" true (cold = uncached))

(* unusable directory: silent degradation to a memory-only cache *)
let test_unusable_dir_degrades () =
  with_dir (fun dir ->
      write_file dir "not a directory";
      let file_as_dir = Filename.concat dir "sub" in
      let m = Wcet.Memo.create ~dir:file_as_dir () in
      checkb "no store attached" true (Wcet.Memo.store_dir m = None);
      let b = small_built () in
      let r =
        Wcet.Driver.analyze_full ~cache:m b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      checkb "memory-only analysis still correct" true
        (r
         = Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
             b.Fcstack.Chain.b_layout))

(* ---- warm == cold == uncached on random programs (qcheck) ---- *)

let cold_warm_uncached_prop =
  QCheck.Test.make ~count:12
    ~name:"store: warm = cold = uncached (random programs, all compilers)"
    QCheck.small_int
    (fun seed ->
       with_dir (fun dir ->
           let p = Testlib.Gen.gen_program (seed land 0xFFF) in
           List.for_all
             (fun comp ->
                let b = Fcstack.Chain.build ~exact:true comp p in
                let persistent () =
                  (* fresh instance each time: memory empty, disk warm *)
                  let cache = Wcet.Memo.create ~dir () in
                  try
                    Ok
                      (Wcet.Driver.analyze_full ~cache b.Fcstack.Chain.b_asm
                         b.Fcstack.Chain.b_layout)
                  with Wcet.Driver.Error m -> Error m
                in
                let plain =
                  try
                    Ok
                      (Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
                         b.Fcstack.Chain.b_layout)
                  with Wcet.Driver.Error m -> Error m
                in
                persistent () = plain && persistent () = plain)
             Fcstack.Chain.all_compilers))

(* ---- fault injection: corruption is a miss, never an error ---- *)

let corruptions : (string * (string -> unit)) list =
  [ ( "truncate",
      fun path ->
        let n = String.length (read_file path) in
        Unix.truncate path (max 1 (n / 2)) );
    ( "bit flip",
      fun path ->
        let s = Bytes.of_string (read_file path) in
        let i = Bytes.length s - 1 in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x40));
        write_file path (Bytes.to_string s) );
    ("empty file", fun path -> write_file path "");
    ("garbage", fun path -> write_file path "this is not a cache entry") ]

let test_fault_injection () =
  List.iter
    (fun (name, corrupt) ->
       with_dir (fun dir ->
           let b = small_built () in
           let m1 = Wcet.Memo.create ~dir () in
           let cold =
             Wcet.Driver.analyze_full ~cache:m1 b.Fcstack.Chain.b_asm
               b.Fcstack.Chain.b_layout
           in
           let paths = entry_paths dir in
           checkb (name ^ ": entries written") true (paths <> []);
           List.iter corrupt paths;
           (* a fresh instance must silently re-analyze — no exception,
              no stale data, correct result *)
           let m2 = Wcet.Memo.create ~dir () in
           let again =
             Wcet.Driver.analyze_full ~cache:m2 b.Fcstack.Chain.b_asm
               b.Fcstack.Chain.b_layout
           in
           let st = Wcet.Memo.stats m2 in
           checki (name ^ ": corrupted entries never hit") 0
             st.Wcet.Report.st_disk_hits;
           checkb (name ^ ": re-analysis ran") true
             (st.Wcet.Report.st_misses > 0);
           checkb (name ^ ": result unchanged") true (again = cold)))
    corruptions

(* a stale toolchain-version stamp with *intact* framing (magic + body
   MD5) must also miss: the version check alone rejects it *)
let test_stale_version_is_miss () =
  with_dir (fun dir ->
      match Wcet.Store.create ~dir () with
      | None -> Alcotest.fail "store creation failed"
      | Some st ->
        let b = small_built () in
        let report, annots =
          Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        in
        let digest = Digest.string "store-test-entry" in
        let payload = "key-payload-bytes" in
        checkb "save publishes" true
          (Wcet.Store.save st ~digest ~payload (report, annots));
        checkb "roundtrip" true
          (Wcet.Store.load st ~digest ~payload = Some (report, annots));
        (* digest collision stand-in: same file, different payload *)
        checkb "payload mismatch is a miss" true
          (Wcet.Store.load st ~digest ~payload:"other-payload" = None);
        (* re-frame the entry with a stale version stamp *)
        let body =
          Marshal.to_string ("vericomp-wcet-0 stale", payload, report, annots)
            []
        in
        write_file
          (entry_path dir (Digest.to_hex digest))
          ("VCWS1" ^ Digest.string body ^ body);
        checkb "stale version is a miss" true
          (Wcet.Store.load st ~digest ~payload = None);
        (* saving again over the bad file is a no-op (file exists), but
           a fresh Memo must still never serve the stale entry *)
        checkb "duplicate save is not a write" true
          (not (Wcet.Store.save st ~digest ~payload (report, annots)));
        (* the previous toolchain generation specifically: a store
           written before the OMT engine existed (vericomp-wcet-3)
           must be a silent miss under the current stamp, even with
           the matching OCaml version suffix *)
        let wcet3 = "vericomp-wcet-3 ocaml-" ^ Sys.ocaml_version in
        let body3 =
          Marshal.to_string (wcet3, payload, report, annots) []
        in
        write_file
          (entry_path dir (Digest.to_hex digest))
          ("VCWS1" ^ Digest.string body3 ^ body3);
        checkb "pre-OMT generation (wcet-3) is a miss" true
          (Wcet.Store.load st ~digest ~payload = None))

(* The generation before the canonical key encoding (vericomp-wcet-4)
   keyed entries by a Marshal image of the code, and the one before the
   access table (vericomp-wcet-5) resolved a slot counter's store from
   a stale state: even a well-framed entry of either whose stored
   payload matches must be a silent miss under the current stamp. *)
let test_wcet4_generation_is_miss () =
  with_dir (fun dir ->
      match Wcet.Store.create ~dir () with
      | None -> Alcotest.fail "store creation failed"
      | Some st ->
        let b = small_built () in
        let report, annots =
          Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        in
        let digest = Digest.string "store-test-entry" in
        let payload = "key-payload-bytes" in
        checkb "current generation roundtrips" true
          (Wcet.Store.save st ~digest ~payload (report, annots)
           && Wcet.Store.load st ~digest ~payload = Some (report, annots));
        List.iter
          (fun gen ->
             let stamp = "vericomp-" ^ gen ^ " ocaml-" ^ Sys.ocaml_version in
             let body = Marshal.to_string (stamp, payload, report, annots) [] in
             write_file
               (entry_path dir (Digest.to_hex digest))
               ("VCWS1" ^ Digest.string body ^ body);
             checkb (gen ^ " generation is a miss") true
               (Wcet.Store.load st ~digest ~payload = None))
          [ "wcet-4"; "wcet-5" ])

(* ---- fault injection: WRITE failures are silent misses too ---- *)

(* Occupy every 2-hex shard slot with a regular FILE: each entry write
   then fails with ENOTDIR (the closest portable stand-in for
   ENOSPC/EACCES — works even as root, where permission bits are
   ignored), while the store's top-level writability probe still
   passes. The contract: [save] returns false silently, analysis is
   byte-identical to an uncached run, nothing raises. *)
let clog_all_shards (dir : string) : unit =
  String.iter
    (fun a ->
       String.iter
         (fun b ->
            write_file (Filename.concat dir (Printf.sprintf "%c%c" a b)) "x")
         "0123456789abcdef")
    "0123456789abcdef"

let test_write_failure_is_silent_miss () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      clog_all_shards dir;
      let b = small_built () in
      let uncached =
        Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout
      in
      (* the store attaches (the top directory IS writable)... *)
      let m = Wcet.Memo.create ~dir () in
      checkb "store attached despite clogged shards" true
        (Wcet.Memo.store_dir m = Some dir);
      let r1 =
        Wcet.Driver.analyze_full ~cache:m b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      (* ...but every entry write failed, silently: nothing landed *)
      let st = Wcet.Memo.stats m in
      checki "no disk hit" 0 st.Wcet.Report.st_disk_hits;
      checkb "analysis re-ran" true (st.Wcet.Report.st_misses > 0);
      checkb "write failure changes no byte of the result" true
        (r1 = uncached);
      (* a fresh instance finds nothing on disk and re-analyzes — again
         byte-identical, again no exception *)
      let m2 = Wcet.Memo.create ~dir () in
      let r2 =
        Wcet.Driver.analyze_full ~cache:m2 b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      checki "still no disk hit across instances" 0
        (Wcet.Memo.stats m2).Wcet.Report.st_disk_hits;
      checkb "second run byte-identical too" true (r2 = uncached);
      (* the raw Store agrees: save reports failure as [false], load
         reports it as a miss — neither raises *)
      match Wcet.Store.create ~dir () with
      | None -> Alcotest.fail "store creation failed over clogged shards"
      | Some st ->
        let digest = Digest.string "clogged-entry" in
        checkb "save over a clogged shard returns false" true
          (not (Wcet.Store.save st ~digest ~payload:"p" uncached));
        checkb "load over a clogged shard is a miss" true
          (Wcet.Store.load st ~digest ~payload:"p" = None))

(* a torn/garbage recency index must never break GC: unparseable lines
   are skipped, eviction still applies the byte budget *)
let test_gc_tolerates_torn_index () =
  with_dir (fun dir ->
      match Wcet.Store.create ~dir () with
      | None -> Alcotest.fail "store creation failed"
      | Some st ->
        let b = small_built () in
        let entry =
          Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        in
        List.iter
          (fun d -> ignore (Wcet.Store.save st ~digest:d ~payload:"p" entry))
          [ Digest.string "t1"; Digest.string "t2" ];
        let index = Filename.concat dir "index" in
        (* a crash mid-append: garbage, a torn half-digest, binary *)
        write_file index
          (read_file index ^ "not-a-digest\nabc\n\x00\x01\x02\n"
           ^ String.sub (Digest.to_hex (Digest.string "t1")) 0 9);
        Wcet.Store.gc ~max_bytes:0 st;
        checki "zero budget clears the store through a torn index" 0
          (List.length (Wcet.Store.entries st));
        (* and the store still works afterwards *)
        let d = Digest.string "t3" in
        checkb "post-GC save works" true
          (Wcet.Store.save st ~digest:d ~payload:"p" entry);
        checkb "post-GC load works" true
          (Wcet.Store.load st ~digest:d ~payload:"p" = Some entry))

(* ---- engine Both: warm == cold == uncached through the store ---- *)

let test_both_engine_cold_warm_uncached () =
  with_dir (fun dir ->
      let b =
        Fcstack.Chain.build Fcstack.Chain.Cdefault_o0
          (build_src
             {| volatile in double sb_in; global double g;
                void m() { var double x; x = volatile(sb_in);
                  if (x >. 10.0) { $g = x +. 1.0; } else { skip; }
                  if (x <. 5.0)  { $g = $g +. 2.0; } else { skip; } }
                main m; |})
      in
      let engine = Wcet.Report.Both in
      let analyze ?cache () =
        Wcet.Driver.analyze_full ?cache ~engine b.Fcstack.Chain.b_asm
          b.Fcstack.Chain.b_layout
      in
      let uncached = analyze () in
      let m1 = Wcet.Memo.create ~dir () in
      let cold = analyze ~cache:m1 () in
      checkb "cold wrote the Both entry" true
        ((Wcet.Memo.stats m1).Wcet.Report.st_writes > 0);
      let m2 = Wcet.Memo.create ~dir () in
      let warm = analyze ~cache:m2 () in
      let st2 = Wcet.Memo.stats m2 in
      checkb "warm served from disk" true (st2.Wcet.Report.st_disk_hits > 0);
      checki "warm ran no decode" 0 st2.Wcet.Report.st_decode;
      checkb "warm = cold = uncached" true (warm = cold && cold = uncached);
      (* the report in the roundtripped entry still carries both
         bounds, and the oracle still holds on the served copy *)
      let r, _ = warm in
      (match r.Wcet.Report.rp_wcet_ipet, r.Wcet.Report.rp_wcet_omt with
       | Some i, Some o ->
         checkb "served entry keeps omt <= ipet" true (o <= i)
       | _ -> Alcotest.fail "Both report lost a bound through the store");
      (* a warm store from the Both engine never serves Ipet or Omt:
         their keys differ, so both are misses over the same directory *)
      let m3 = Wcet.Memo.create ~dir () in
      ignore
        (Wcet.Driver.analyze_full ~cache:m3 ~engine:Wcet.Report.Ipet
           b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout);
      ignore
        (Wcet.Driver.analyze_full ~cache:m3 ~engine:Wcet.Report.Omt
           b.Fcstack.Chain.b_asm b.Fcstack.Chain.b_layout);
      let st3 = Wcet.Memo.stats m3 in
      checki "no cross-engine disk hit" 0 st3.Wcet.Report.st_disk_hits;
      checkb "single-engine analyses re-ran" true
        (st3.Wcet.Report.st_misses > 0))

(* ---- LRU GC ---- *)

let test_gc_lru () =
  with_dir (fun dir ->
      match Wcet.Store.create ~dir () with
      | None -> Alcotest.fail "store creation failed"
      | Some st ->
        let b = small_built () in
        let entry =
          Wcet.Driver.analyze_full b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        in
        let d1 = Digest.string "entry-1"
        and d2 = Digest.string "entry-2"
        and d3 = Digest.string "entry-3" in
        List.iter
          (fun d -> ignore (Wcet.Store.save st ~digest:d ~payload:"p" entry))
          [ d1; d2; d3 ];
        (* use e1 again: recency order is now e2 < e3 < e1 *)
        checkb "reload e1" true
          (Wcet.Store.load st ~digest:d1 ~payload:"p" <> None);
        let per_entry = Wcet.Store.size_bytes st / 3 in
        Wcet.Store.gc ~max_bytes:(2 * per_entry) st;
        let left = List.sort compare (Wcet.Store.entries st) in
        let expect =
          List.sort compare [ Digest.to_hex d1; Digest.to_hex d3 ]
        in
        Alcotest.check (Alcotest.list Alcotest.string)
          "least-recently-used entry evicted first" expect left;
        (* Memo.gc with a zero budget clears the store entirely *)
        let m = Wcet.Memo.create ~dir () in
        Wcet.Memo.gc ~max_bytes:0 m;
        checki "zero budget clears the store" 0
          (List.length (Wcet.Store.entries st));
        (* and analysis over the emptied store still works *)
        let r =
          Wcet.Driver.analyze_full ~cache:m b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        in
        checkb "post-GC analysis correct" true (r = entry))

(* ---- two Domains, independent handles, one directory ---- *)

let test_two_domains_one_dir () =
  (* unlike Test_par's shared-Memo test, each Domain opens its OWN
     Memo over the same directory — distinct mutexes, so all
     serialization is the filesystem's (the cross-process situation,
     compressed into one process). Every result must equal the
     uncached sequential reference. *)
  with_dir (fun dir ->
      let programs = List.map Testlib.Gen.gen_program [ 401; 402; 401 ] in
      let builds =
        List.map (Fcstack.Chain.build ~exact:true Fcstack.Chain.Cvcomp)
          programs
      in
      let analyze ?cache (b : Fcstack.Chain.built) =
        match
          Wcet.Driver.analyze_full ?cache b.Fcstack.Chain.b_asm
            b.Fcstack.Chain.b_layout
        with
        | r -> Ok r
        | exception Wcet.Driver.Error m -> Error m
      in
      let expected = List.map (fun b -> analyze b) builds in
      let worker () =
        let cache = Wcet.Memo.create ~dir () in
        List.init 4 (fun _ -> List.map (analyze ~cache) builds)
      in
      let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      List.iteri
        (fun i r ->
           checkb (Printf.sprintf "domain 1 round %d = reference" i) true
             (r = expected))
        r1;
      List.iteri
        (fun i r ->
           checkb (Printf.sprintf "domain 2 round %d = reference" i) true
             (r = expected))
        r2)

let suite =
  [ ("store: analyses persist across cache instances", `Quick,
     test_persists_across_instances);
    ("store: unusable directory degrades to memory-only", `Quick,
     test_unusable_dir_degrades);
    QCheck_alcotest.to_alcotest cold_warm_uncached_prop;
    ("store: fault injection (corruption is a miss)", `Quick,
     test_fault_injection);
    ("store: stale version stamp is a miss", `Quick,
     test_stale_version_is_miss);
    ("store: previous generation (wcet-4) is a miss", `Quick,
     test_wcet4_generation_is_miss);
    ("store: write failure is a silent miss (clogged shards)", `Quick,
     test_write_failure_is_silent_miss);
    ("store: GC tolerates a torn recency index", `Quick,
     test_gc_tolerates_torn_index);
    ("store: engine Both warm = cold = uncached, no cross-engine serve",
     `Quick, test_both_engine_cold_warm_uncached);
    ("store: GC evicts least-recently-used first", `Quick, test_gc_lru);
    ("store: two Domains, independent handles, one dir", `Slow,
     test_two_domains_one_dir) ]
