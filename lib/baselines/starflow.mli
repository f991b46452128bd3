(** *Flow export model: grouped packet vectors (GPVs) of per-packet
    features shipped to a CPU analyzer — fully dynamic queries at the
    cost of per-packet export (Fig. 12/13).  Wire an [on_gpv] sink into
    {!Cpu_analyzer} to actually answer queries from the stream. *)

open Newton_packet

(** One packet's features inside a GPV. *)
type feature = {
  f_ts : float;
  f_len : int;
  f_payload : int;
  f_flags : int;
}

type gpv = { g_key : Fivetuple.t; g_features : feature list (** newest first *) }

type t

val create :
  ?cache_size:int -> ?gpv_len:int -> ?on_gpv:(gpv -> unit) -> unit -> t

(** GPV messages exported so far. *)
val messages : t -> int

val packets : t -> int

val process : t -> Packet.t -> unit

(** Ship all resident partial GPVs. *)
val finish : t -> unit
