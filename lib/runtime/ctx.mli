(** Per-packet, per-query execution context: the PHV metadata of the
    compact module layout — two metadata sets (hash result, state
    result) plus the global-result accumulators — bridged through the
    12-byte SP header between switches.  Operation keys are not part of
    it: the engine binds them to each slot at install. *)

open Newton_packet

type t = {
  mutable hash : int array;
  mutable state : int array;
  mutable g1 : int; (** the global result *)
  mutable g2 : int; (** second accumulator for combine read-backs *)
  mutable stopped : bool;
}

val create : unit -> t
val reset : t -> unit

(** Snapshot into an SP header (the [newton_fin] action); [g2] does not
    cross switches. *)
val to_sp : t -> Sp_header.t

(** Cross a switch boundary in place: saturate the hashes and [g1] to
    16 bits and the states to 24 bits, drop [g2], keep [stopped] — what {!of_sp} restores from the encoded
    {!to_sp}, without building the header. *)
val apply_sp_widths : t -> unit

(** Restore result sets from a decoded SP header (the parser path). *)
val of_sp : Sp_header.t -> t
