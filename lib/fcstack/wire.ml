(* Length-prefixed, versioned wire framing for the compilation service.

   One frame is

     fcd1 <kind> <len>\n<len bytes of payload>

   — a text header (so cram tests can author frames with printf and a
   human can read a capture) followed by an exact byte count, so
   payloads carry arbitrary bytes (assembly, reports, source text)
   without any in-band escaping at the frame layer. The version token
   leads the header: a reader that sees anything but "fcd1" refuses
   the whole stream rather than guessing at an incompatible peer —
   protocol divergence is a refusal, never a misparse.

   Above the frame layer, structured payloads are single-line
   [k=v ...] records whose values are percent-encoded ([enc]/[dec]):
   the metacharacters (space, '=', '%', newlines, ',' and ':' used by
   the k=v and context syntaxes) travel as %XX, everything else as
   itself. Encoding is deterministic, so encoded equality is value
   equality — the byte-identity contracts extend to the wire. *)

let protocol_version = "fcd1"

(* Frames above this are a protocol error, not an allocation attempt:
   a corrupt length must not make the reader swallow the stream. *)
let max_frame_len = 64 * 1024 * 1024

(* ---- percent-encoding ---------------------------------------------- *)

let needs_escape (c : char) : bool =
  match c with
  | ' ' | '=' | '%' | '\n' | '\r' | ',' | ':' -> true
  | c -> Char.code c < 0x20 || Char.code c > 0x7e

let enc (s : string) : string =
  if String.for_all (fun c -> not (needs_escape c)) s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
         if needs_escape c then Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
         else Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let hex_val (c : char) : int option =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Permissive: a '%' not followed by two hex digits decodes as itself,
   so [dec] never fails — malformed escapes surface as literal bytes
   (and a round-tripped [enc] never produces them). *)
let dec (s : string) : string =
  match String.index_opt s '%' with
  | None -> s
  | Some _ ->
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '%' && !i + 2 < n then
         match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
         | Some hi, Some lo ->
           Buffer.add_char b (Char.chr ((hi * 16) + lo));
           i := !i + 3
         | _ ->
           Buffer.add_char b s.[!i];
           incr i
       else begin
         Buffer.add_char b s.[!i];
         incr i
       end)
    done;
    Buffer.contents b

(* ---- k=v records ---------------------------------------------------- *)

(* Keys are trusted identifiers (no escaping); values are [enc]-coded. *)
let kv (kvs : (string * string) list) : string =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ enc v) kvs)

let parse_kv (line : string) : (string * string) list =
  String.split_on_char ' ' line
  |> List.filter_map (fun tok ->
      if tok = "" then None
      else
        match String.index_opt tok '=' with
        | None -> Some (tok, "")
        | Some i ->
          Some
            ( String.sub tok 0 i,
              dec (String.sub tok (i + 1) (String.length tok - i - 1)) ))

let kv_find (kvs : (string * string) list) (key : string) :
  (string, string) Result.t =
  match List.assoc_opt key kvs with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let kv_int (kvs : (string * string) list) (key : string) :
  (int, string) Result.t =
  match kv_find kvs key with
  | Error _ as e -> e
  | Ok v ->
    (match int_of_string_opt v with
     | Some n -> Ok n
     | None -> Error (Printf.sprintf "field %S is not an integer: %S" key v))

(* ---- frames ---------------------------------------------------------- *)

type frame =
  | Frame of string * string  (* kind, payload *)
  | Eof
  | Bad of string             (* protocol error: refuse the stream *)

(* Header syntax: a hostile length prefix is rejected BEFORE any
   payload allocation ([max_frame_len] is a protocol error, not an
   allocation attempt). *)
let parse_header (header : string) : (string * int, frame) Result.t =
  match String.split_on_char ' ' header with
  | [ version; kind; len ] ->
    if version <> protocol_version then
      Error
        (Bad
           (Printf.sprintf "protocol version mismatch: peer speaks %S, I speak %S"
              version protocol_version))
    else
      (match int_of_string_opt len with
       | None -> Error (Bad (Printf.sprintf "bad frame length %S" len))
       | Some n when n < 0 || n > max_frame_len ->
         Error (Bad (Printf.sprintf "frame length %d out of range" n))
       | Some n -> Ok (kind, n))
  | _ -> Error (Bad (Printf.sprintf "malformed frame header %S" header))

(* ---- the reader (timeouts, EINTR, shedding hook) --------------------- *)

(* Every peer — the daemon's sockets, [fcd --stdio], the client, the
   chaos harness — reads frames through this buffered fd reader,
   because resilience needs what buffered channels can't give us:

   - a per-read timeout, so a slow-loris peer that dribbles a frame
     one byte a minute poisons its own stream ([Bad]) instead of
     parking the daemon forever;
   - EINTR-safe read/write/select loops, so a signal storm (SIGCHLD
     from a supervisor, SIGUSR1 probes) never surfaces as a spurious
     transport failure;
   - an auxiliary readiness hook: while the server is blocked reading
     connection A it can still watch the listen socket and shed
     connection C with a fast [busy] frame — overload control must not
     itself be blockable by one slow peer. *)

type fd_reader = {
  rd_fd : Unix.file_descr;
  rd_buf : Bytes.t;
  mutable rd_start : int;            (* first unconsumed byte *)
  mutable rd_len : int;              (* unconsumed byte count *)
  mutable rd_timeout : float option; (* seconds per blocking wait *)
  mutable rd_aux : (Unix.file_descr * (unit -> unit)) option;
}

exception Read_timeout

let fd_reader (fd : Unix.file_descr) : fd_reader =
  { rd_fd = fd;
    rd_buf = Bytes.create 65536;
    rd_start = 0;
    rd_len = 0;
    rd_timeout = None;
    rd_aux = None }

let set_read_timeout (rd : fd_reader) (t : float option) : unit =
  rd.rd_timeout <- t

let set_aux (rd : fd_reader) (aux : (Unix.file_descr * (unit -> unit)) option)
  : unit =
  rd.rd_aux <- aux

(* Wait until [rd_fd] is readable, servicing the aux hook whenever its
   fd fires. The deadline is absolute so EINTR retries and aux
   wake-ups never extend a peer's budget. Raises [Read_timeout]. *)
let rec wait_readable (rd : fd_reader) ~(deadline : float option) : unit =
  let span =
    match deadline with
    | None -> -1.0
    | Some d ->
      let s = d -. Unix.gettimeofday () in
      if s <= 0.0 then raise Read_timeout else s
  in
  let aux_fds = match rd.rd_aux with Some (fd, _) -> [ fd ] | None -> [] in
  match Unix.select (rd.rd_fd :: aux_fds) [] [] span with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable rd ~deadline
  | [], _, _ ->
    (match deadline with
     | Some _ -> raise Read_timeout
     | None -> wait_readable rd ~deadline)
  | ready, _, _ ->
    (match rd.rd_aux with
     | Some (fd, service) when List.mem fd ready -> service ()
     | _ -> ());
    if not (List.mem rd.rd_fd ready) then wait_readable rd ~deadline

(* Pull the next chunk into the buffer; [false] on EOF. *)
let refill (rd : fd_reader) ~(timeout : float option) : bool =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  wait_readable rd ~deadline;
  let rec read_once () =
    match Unix.read rd.rd_fd rd.rd_buf 0 (Bytes.length rd.rd_buf) with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once ()
  in
  let n = read_once () in
  if n = 0 then false
  else begin
    rd.rd_start <- 0;
    rd.rd_len <- n;
    true
  end

let next_byte (rd : fd_reader) ~(timeout : float option) : char option =
  if rd.rd_len = 0 && not (refill rd ~timeout) then None
  else begin
    let c = Bytes.get rd.rd_buf rd.rd_start in
    rd.rd_start <- rd.rd_start + 1;
    rd.rd_len <- rd.rd_len - 1;
    Some c
  end

exception Fd_eof

let read_exact (rd : fd_reader) (n : int) ~(timeout : float option) : string =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if rd.rd_len = 0 && not (refill rd ~timeout) then raise Fd_eof;
    let k = min rd.rd_len (n - !filled) in
    Bytes.blit rd.rd_buf rd.rd_start out !filled k;
    rd.rd_start <- rd.rd_start + k;
    rd.rd_len <- rd.rd_len - k;
    filled := !filled + k
  done;
  Bytes.unsafe_to_string out

(* Read one frame. Without [idle_timeout] the wait for the FIRST
   header byte is unbounded — an idle connection is legal; the
   per-read timeout starts once the peer commits to a frame, so only
   a mid-frame staller is poisoned. Clients pass [idle_timeout:true]:
   there the first byte IS the response arriving, and "the daemon
   never answered" must become a transport failure, not a hang. *)
let read_frame ?(idle_timeout = false) (rd : fd_reader) : frame =
  let timeout = rd.rd_timeout in
  let first_timeout = if idle_timeout then timeout else None in
  match
    let b = Buffer.create 32 in
    let rec header (n : int) : (string, frame) Result.t =
      if n > 256 then Error (Bad "frame header too long")
      else
        match next_byte rd ~timeout:(if n = 0 then first_timeout else timeout) with
        | None ->
          if Buffer.length b = 0 then Error Eof
          else Error (Bad "truncated frame header")
        | Some '\n' -> Ok (Buffer.contents b)
        | Some c ->
          Buffer.add_char b c;
          header (n + 1)
    in
    (match header 0 with
     | Error f -> Error f
     | Ok h ->
       (match parse_header h with
        | Error f -> Error f
        | Ok (kind, n) ->
          (match read_exact rd n ~timeout with
           | payload -> Ok (Frame (kind, payload))
           | exception Fd_eof -> Error (Bad "truncated frame payload"))))
  with
  | Ok f | Error f -> f
  | exception Read_timeout -> Bad "read timed out"

(* Full-write loop: [Unix.write] may write short or be interrupted;
   both silently losing bytes and a spurious failure would break the
   byte-identity contract at the weakest possible place. *)
let write_fd (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame (fd : Unix.file_descr) ~(kind : string) (payload : string) :
  unit =
  write_fd fd
    (Printf.sprintf "%s %s %d\n" protocol_version kind (String.length payload));
  write_fd fd payload
