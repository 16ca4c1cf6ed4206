(* Disk-backed half of the analysis cache: one file per entry under
   <dir>/<first-2-hex>/<digest-hex>. See store.mli for the format and
   the crash-safety/corruption contract. Everything here is defensive:
   a cache must trade wall clock, never correctness and never an
   abort, so every filesystem failure degrades to a miss or a skipped
   write. *)

(* Bump on any change to the analysis semantics, to the marshalled
   shapes (Report.t, Annotfile.entry) or to the Memo key's payload
   encoding (wcet-5: the canonical encoding replaced a Marshal image;
   wcet-6: a slot counter's store is resolved from the state just before
   it). The OCaml version is part of the stamp because entries are
   Marshal images. *)
let toolchain_version = "vericomp-wcet-6 ocaml-" ^ Sys.ocaml_version

let magic = "VCWS1"

type t = {
  st_dir : string;
  st_mutex : Mutex.t;  (* serializes this process's index appends *)
  st_gc_bytes : int option;
}

let dir (t : t) : string = t.st_dir

let locked (m : Mutex.t) (f : unit -> 'a) : 'a =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let mkdir_p (path : string) : unit =
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk path

let create ?gc_mb ~(dir : string) () : t option =
  match
    mkdir_p dir;
    (* prove writability up front so Memo can fall back to memory-only *)
    let probe = Filename.concat dir ".probe" in
    let oc = open_out probe in
    close_out oc;
    Sys.remove probe
  with
  | () ->
    Some
      { st_dir = dir;
        st_mutex = Mutex.create ();
        st_gc_bytes = Option.map (fun mb -> mb * 1024 * 1024) gc_mb }
  | exception _ -> None

(* ---- paths ---- *)

let is_hex_digest (name : string) : bool =
  String.length name = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       name

let subdir_of (t : t) (hex : string) : string =
  Filename.concat t.st_dir (String.sub hex 0 2)

let path_of (t : t) (hex : string) : string =
  Filename.concat (subdir_of t hex) hex

let index_path (t : t) : string = Filename.concat t.st_dir "index"

(* ---- the atime index ---- *)

(* One hex digest per line, appended on every use (disk hit or write):
   the last occurrence of a digest is its recency. A 33-byte O_APPEND
   write is atomic on POSIX, so concurrent processes interleave whole
   lines; a torn or foreign line is simply ignored by readers. *)
let touch (t : t) (hex : string) : unit =
  locked t.st_mutex (fun () ->
      try
        let fd =
          Unix.openfile (index_path t)
            [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
             let line = Bytes.of_string (hex ^ "\n") in
             ignore (Unix.write fd line 0 (Bytes.length line)))
      with _ -> ())

(* Recency map: digest -> sequence number of its last index line. *)
let read_index (t : t) : (string, int) Hashtbl.t =
  let ranks = Hashtbl.create 64 in
  (try
     let ic = open_in_bin (index_path t) in
     Fun.protect
       ~finally:(fun () -> try close_in ic with _ -> ())
       (fun () ->
          let n = ref 0 in
          try
            while true do
              let line = input_line ic in
              if is_hex_digest line then begin
                incr n;
                Hashtbl.replace ranks line !n
              end
            done
          with End_of_file -> ())
   with _ -> ());
  ranks

(* ---- load ---- *)

let read_file (path : string) : string option =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> try close_in ic with _ -> ())
      (fun () ->
         match really_input_string ic (in_channel_length ic) with
         | s -> Some s
         | exception _ -> None)
  | exception _ -> None

let header_len = String.length magic + 16 (* magic + MD5 of the body *)

let load (t : t) ~(digest : string) ~(payload : string) :
  (Report.t * Annotfile.entry list) option =
  try
    let hex = Digest.to_hex digest in
    match read_file (path_of t hex) with
    | None -> None
    | Some raw ->
      if
        String.length raw < header_len
        || not (String.equal (String.sub raw 0 (String.length magic)) magic)
      then None
      else begin
        let sum = String.sub raw (String.length magic) 16 in
        let body =
          String.sub raw header_len (String.length raw - header_len)
        in
        if not (String.equal sum (Digest.string body)) then None
        else begin
          (* the MD5 passed, so [body] is byte-identical to what some
             [save] marshalled; the version stamp (always the first,
             string, component) rejects images of older toolchains
             before anything is interpreted as a Report *)
          let (version, stored_payload, report, annots)
                : string * string * Report.t * Annotfile.entry list =
            Marshal.from_string body 0
          in
          if
            String.equal version toolchain_version
            && String.equal stored_payload payload
          then begin
            touch t hex;
            Some (report, annots)
          end
          else None
        end
      end
  with _ -> None

(* ---- save ---- *)

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write fd b !pos (len - !pos)
  done

let save (t : t) ~(digest : string) ~(payload : string)
    ((report, annots) : Report.t * Annotfile.entry list) : bool =
  try
    let hex = Digest.to_hex digest in
    let target = path_of t hex in
    if Sys.file_exists target then begin
      (* same digest + same version => same content: just record use *)
      touch t hex;
      false
    end
    else begin
      mkdir_p (subdir_of t hex);
      let body =
        Marshal.to_string (toolchain_version, payload, report, annots) []
      in
      let tmp =
        Filename.concat (subdir_of t hex)
          (Printf.sprintf ".tmp.%s.%d" hex (Unix.getpid ()))
      in
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      (try
         write_all fd (magic ^ Digest.string body ^ body);
         Unix.fsync fd;
         Unix.close fd
       with e ->
         (try Unix.close fd with _ -> ());
         (try Sys.remove tmp with _ -> ());
         raise e);
      (* atomic publication: concurrent readers see the old state or
         the whole entry, never a prefix *)
      Sys.rename tmp target;
      touch t hex;
      true
    end
  with _ -> false

(* ---- enumeration and GC ---- *)

let fold_entries (t : t) (f : 'a -> string -> Unix.stats -> 'a) (init : 'a) :
  'a =
  let acc = ref init in
  (try
     Array.iter
       (fun sub ->
          if String.length sub = 2 then begin
            let subpath = Filename.concat t.st_dir sub in
            try
              Array.iter
                (fun name ->
                   if is_hex_digest name then
                     (* a concurrent GC may have removed it: skip *)
                     match Unix.stat (Filename.concat subpath name) with
                     | st -> acc := f !acc name st
                     | exception _ -> ())
                (Sys.readdir subpath)
            with _ -> ()
          end)
       (Sys.readdir t.st_dir)
   with _ -> ());
  !acc

let size_bytes (t : t) : int =
  fold_entries t (fun acc _ st -> acc + st.Unix.st_size) 0

let entries (t : t) : string list =
  fold_entries t (fun acc hex _ -> hex :: acc) []

let gc ?max_bytes (t : t) : unit =
  match (match max_bytes with Some _ -> max_bytes | None -> t.st_gc_bytes) with
  | None -> ()
  | Some budget ->
    (try
       let all =
         fold_entries t
           (fun acc hex st -> (hex, st.Unix.st_size, st.Unix.st_mtime) :: acc)
           []
       in
       let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 all in
       if total > budget then begin
         let ranks = read_index t in
         (* oldest first: unindexed entries (rank 0) by mtime, then
            indexed ones by last-use order *)
         let ordered =
           List.sort
             (fun (h1, _, m1) (h2, _, m2) ->
                let r1 = Option.value ~default:0 (Hashtbl.find_opt ranks h1)
                and r2 = Option.value ~default:0 (Hashtbl.find_opt ranks h2) in
                if r1 <> r2 then compare r1 r2 else compare m1 m2)
             all
         in
         let remaining = ref total in
         let victims = Hashtbl.create 16 in
         List.iter
           (fun (hex, sz, _) ->
              if !remaining > budget then begin
                (try Sys.remove (path_of t hex) with _ -> ());
                Hashtbl.replace victims hex ();
                remaining := !remaining - sz
              end)
           ordered;
         (* compact the index to the survivors, preserving recency
            order, and publish it atomically like an entry *)
         locked t.st_mutex (fun () ->
             try
               let survivors =
                 List.filter
                   (fun (hex, _, _) -> not (Hashtbl.mem victims hex))
                   ordered
               in
               let tmp =
                 Filename.concat t.st_dir
                   (Printf.sprintf ".tmp.index.%d" (Unix.getpid ()))
               in
               let fd =
                 Unix.openfile tmp
                   [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                   0o644
               in
               (try
                  List.iter
                    (fun (hex, _, _) -> write_all fd (hex ^ "\n"))
                    survivors;
                  Unix.fsync fd;
                  Unix.close fd
                with e ->
                  (try Unix.close fd with _ -> ());
                  (try Sys.remove tmp with _ -> ());
                  raise e);
               Sys.rename tmp (index_path t)
             with _ -> ())
       end
     with _ -> ())
