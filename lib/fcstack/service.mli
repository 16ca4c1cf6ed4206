(** The persistent compilation service: one warm session, many typed
    requests.

    {!run_request} is the single entry point of the toolchain — the
    batch CLIs (fcc/aitw) are one-request in-process clients, the
    daemon ([bin/fcd]) is an accept loop feeding it, and bench's serve
    study drives it over a real socket. A {!session} owns exactly the
    state that may outlive a request ({!Toolchain.session}: the warm
    {!Wcet.Memo} and the Domain pool width);
    everything request-scoped arrives inside the {!Request.t}, so
    requests cannot contaminate each other by construction.

    Containment: every failure inside {!run_request} becomes a
    {!Diag.t} in an [Srefused] response — exceptions never cross the
    service boundary, divergence is refusal, never a wrong answer. A
    refused response still carries the bytes the batch CLI would have
    emitted before failing, so serve == batch holds byte-for-byte on
    stdout even for failing requests.

    The session is abstract and the cache handle never appears in a
    response: the only way warm state can influence an answer is via
    the content-addressed {!Wcet.Memo} lookup, whose key is unchanged
    by this layer — a warm server hits the very entries a cold batch
    run wrote. *)

type session
(** Session-scoped service state; abstract — the {!Wcet.Memo.t} inside
    never escapes, only its {!stats} snapshot does. *)

val create : ?state:Toolchain.session -> unit -> session
(** Fresh session (default {!Toolchain.default_session}: one domain,
    no cache). *)

val served : session -> int
(** Requests answered so far (all transports — in-process and wire). *)

val jobs : session -> int
(** The session's Domain pool width, for batch orchestration. *)

val stats : session -> Wcet.Report.analysis_stats option
(** Cache accounting snapshot ([None] without a cache). *)

val store_dir : session -> string option
(** The persistent store directory, when the session cache has one. *)

val gc : session -> unit
(** Apply the configured size budget to the session's store (no-op
    without a persistent cache); call once at shutdown. *)

val run_request : session -> Request.t -> Response.t
(** Execute one request against the session's warm state. Total: never
    raises; failures come back as [Srefused] with diagnostics. A
    deadline on the request ({!Request.t.rq_deadline_ms}) is enforced
    through the {!Wcet.Fuel.tick} cancellation points: expiry is an
    [Srefused] with a [Deadline] diag — never a partial or unsound
    answer, never cached. [Ping] requests answer with session stats,
    run no toolchain work, and do not count as served (supervisor
    probes must not consume a [max_requests] budget). *)

type connection_end =
  | Cend_eof       (** peer said bye or hung up *)
  | Cend_shutdown  (** peer asked the daemon to stop *)
  | Cend_budget    (** [max_requests] exhausted *)

val serve_connection :
  ?max_requests:int -> ?log:bool -> session -> Unix.file_descr ->
  Unix.file_descr -> connection_end
(** [serve_connection s inp out] serves one connection's frames, read
    from [inp] through {!Wire.read_frame} and answered on [out] through
    {!Wire.write_frame} — the one transport of every peer. A malformed
    frame poisons the stream (err frame, hang up); a well-framed
    malformed request costs only that request (err frame, keep
    serving). With [log] (default true), each request logs one stderr
    line with its cache-stats delta — a warm repeat shows
    [0 misses]. *)

val serve_unix :
  ?max_requests:int -> ?log:bool -> ?stop:(unit -> bool) ->
  ?pending_budget:int -> ?read_timeout_ms:int -> session -> string -> unit
(** Accept loop on a Unix-domain socket at [path]. [stop] is re-polled
    between connections and when a signal interrupts the wait, so a
    SIGTERM handler that sets a flag shuts the loop down cleanly (the
    socket is closed and unlinked). [max_requests] ends the loop after
    that many requests across all connections — deterministic daemon
    exit for tests.

    Hardening: refuses to start if another live daemon is accepting on
    [path] (raises [Failure]; a stale socket file is removed and
    rebound); [path] appears only once the daemon is listening, so a
    client can connect as soon as it sees the file. Any escape from one
    connection costs that connection only. [read_timeout_ms] bounds
    each blocking read once a peer has committed to a frame
    (slow-loris = poisoned stream, not a parked daemon). Beyond [pending_budget] (default 16) queued connections,
    new arrivals are shed with a fast [busy] frame ([Sbusy] at the
    client: empty, retryable); draining happens even while the daemon
    is blocked mid-read on another connection. *)

val serve_stdio : ?max_requests:int -> ?log:bool -> session -> unit
(** {!serve_connection} on [Unix.stdin] and [Unix.stdout]
    ([fcd --stdio]). *)

(** Client side of the wire protocol. *)
module Client : sig
  type conn

  val connect : string -> (conn, string) Result.t
  (** Connect to the daemon socket at [path]. *)

  val request : ?timeout_s:float -> conn -> Request.t -> Response.t
  (** Round-trip one request. Total: every transport failure (broken
      socket, refused frame, undecodable payload, no answer within
      [timeout_s]) becomes an [Stransport] response naming the request
      — retryable data, never an exception, never mistakable for an
      answer. A server [busy] frame becomes [Sbusy] (equally empty and
      retryable, distinguishable for backoff policy). *)

  val close : conn -> unit
  (** Send bye (best effort) and close. *)

  val shutdown : conn -> unit
  (** Ask the daemon to stop, then close. *)
end

(** {2 Child-process plumbing}

    How the chaos harness and perfbench spawn a real [fcd] child. *)

val daemon_argv :
  exe:string -> socket:string -> ?cache_dir:string -> ?gc_mb:int ->
  ?max_requests:int -> ?jobs:int -> ?pending_budget:int ->
  ?read_timeout_ms:int -> unit -> string list
(** The canonical [fcd] invocation. *)

val spawn : ?stderr_to:Unix.file_descr -> string list -> int
(** [Unix.create_process] wrapper; returns the pid. *)

val wait_for_path : ?timeout_s:float -> string -> bool
(** Poll until [path] exists (the daemon's socket) or the timeout
    elapses. *)

val sibling_exe : string -> string option
(** Locate a sibling binary (e.g. [fcd.exe]) relative to
    [Sys.executable_name] — same directory, or [../bin/] inside the
    dune build tree. *)
