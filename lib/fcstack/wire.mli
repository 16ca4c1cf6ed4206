(** Length-prefixed, versioned wire framing for the compilation
    service ({!Service}). One frame is

    {v fcd1 <kind> <len>\n<len bytes of payload> v}

    — a text header (cram tests author frames with [printf]; captures
    stay human-readable) followed by an exact byte count, so payloads
    carry arbitrary bytes with no in-band escaping at the frame layer.
    A reader that sees any version token but ["fcd1"] refuses the
    stream: protocol divergence is a refusal, never a misparse.

    Structured payloads above the frame layer are single-line
    [k=v ...] records with percent-encoded values ({!enc}/{!dec});
    encoding is deterministic, so encoded equality is value equality
    and the toolchain's byte-identity contracts extend to the wire. *)

val protocol_version : string
(** ["fcd1"]. *)

val max_frame_len : int
(** Frames longer than this are a protocol error ([Bad]), not an
    allocation attempt. *)

val enc : string -> string
(** Percent-encode the k=v metacharacters (space, ['='], ['%'],
    newlines, [','], [':']) and non-printable bytes; deterministic. *)

val dec : string -> string
(** Inverse of {!enc}. Permissive: a ['%'] not followed by two hex
    digits decodes as itself, so decoding never fails. *)

val kv : (string * string) list -> string
(** One-line record; keys are trusted identifiers, values go through
    {!enc}. *)

val parse_kv : string -> (string * string) list
(** Parse a {!kv} line (values decoded). *)

val kv_find : (string * string) list -> string -> (string, string) Result.t
val kv_int : (string * string) list -> string -> (int, string) Result.t

type frame =
  | Frame of string * string  (** kind, payload *)
  | Eof                       (** clean end of stream before a header *)
  | Bad of string             (** protocol error: refuse the stream *)

(** {1 Transport}

    Every peer reads and writes frames on file descriptors: the
    daemon's sockets, [fcd --stdio], the client and the chaos harness
    share one reader and one writer. The reader buffers and adds what
    resilience needs: a per-read timeout (a slow-loris peer poisons
    its own stream as [Bad] instead of parking the daemon), EINTR-safe
    read/write/select loops (a signal storm never surfaces as a
    spurious transport failure), and an auxiliary readiness hook so
    the server can shed new connections while blocked mid-read. *)

type fd_reader

val fd_reader : Unix.file_descr -> fd_reader
(** Wrap a blocking stream fd. The reader owns buffering on the fd;
    do not mix with other reads on the same descriptor. *)

val set_read_timeout : fd_reader -> float option -> unit
(** Seconds each blocking wait may last ([None] = unbounded). The
    budget is per read call, absolute across EINTR retries and aux
    wake-ups. *)

val set_aux : fd_reader -> (Unix.file_descr * (unit -> unit)) option -> unit
(** Auxiliary fd watched alongside the data fd during blocking waits;
    the callback runs whenever it becomes readable (the server passes
    its listen socket and an accept-drain, so overload shedding is
    never blocked behind one slow peer). The callback must leave the
    fd non-readable (drain it) or the wait will spin. *)

val read_frame : ?idle_timeout:bool -> fd_reader -> frame
(** Read one frame. Without [idle_timeout] (default) the wait for the
    first header byte is unbounded — an idle connection is legal; the
    timeout starts once the peer commits to a frame. With
    [idle_timeout:true] (clients) the first wait is bounded too. A
    timeout is [Bad "read timed out"]: stream poison, like any other
    protocol error. *)

val write_frame : Unix.file_descr -> kind:string -> string -> unit
(** Write one frame with a full-write, EINTR-safe loop. Raises
    [Unix.Unix_error] (e.g. [EPIPE]) if the peer is gone. *)
