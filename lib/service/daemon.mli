(** The long-running controller daemon behind [newton serve]: owns a
    {!Newton_controller.Deploy.t} and the intent table, handles typed
    {!Api} requests, and (in {!serve}) interleaves newline-delimited
    JSON / operator-text socket traffic with bounded background replay
    steps so intents install and withdraw while traffic flows.

    {!handle} is a pure request -> response function over daemon state
    — the socket loop, the [newton intent] client tests and the churn
    bench all exercise the same core. *)

type t

(** [create topo] builds an idle daemon.  [clock] defaults to
    [Unix.gettimeofday] (tests inject a fake); [replay_budget] bounds
    packets processed per event-loop turn (default 2048). *)
val create :
  ?clock:(unit -> float) -> ?stages_per_switch:int -> ?replay_budget:int ->
  ?replay:Replay.t -> Newton_network.Topo.t -> t

val deploy : t -> Newton_controller.Deploy.t
val stopping : t -> bool
val replay : t -> Replay.t option

(** All intents in submission order, with live report counts. *)
val intents : t -> Intent.info list

(** Handle one typed request.  Total: refusals and unknown ids come
    back as [Refused]/[Error_resp], never exceptions. *)
val handle : t -> Api.request -> Api.response

(** One wire line -> one response: a [{]-prefixed line is parsed as a
    JSON request, anything else as operator text through
    {!Command.tokenize}.  Malformed input becomes an [Error_resp]. *)
val handle_line : t -> string -> Api.response

(** Run one bounded replay step (no-op without a replay source);
    returns packets processed. *)
val replay_step : t -> int

(** Deploy snapshot merged with the service counters and the replay
    counters (labelled [stage="replay"]). *)
val snapshot : t -> Newton_telemetry.Snapshot.t

(** The longest request line a client may send: 1 MiB. *)
val max_line_bytes : int

(** [take_lines pending chunk len] appends the first [len] bytes of
    [chunk] to a client's [pending] partial line and returns the lines
    now complete, without their ['\n']; a trailing partial line stays in
    [pending].  [Error `Line_too_long] once a line, complete or not,
    exceeds {!max_line_bytes}: {!serve} then answers with one
    [line_too_long] error and closes the client. *)
val take_lines :
  Buffer.t -> Bytes.t -> int -> (string list, [ `Line_too_long ]) result

type listen = Unix_socket of string | Tcp of int

(** Run the select loop until a [shutdown] request arrives: accept
    clients, answer line requests, and interleave replay steps.  The
    Unix socket path is unlinked on exit.  [log] receives progress
    lines (default silent). *)
val serve : ?log:(string -> unit) -> t -> listen -> unit
