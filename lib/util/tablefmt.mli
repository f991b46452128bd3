(** Aligned plain-text table rendering for the benchmark harness. *)

type align = Left | Right

type t

(** [create ?aligns headers]; alignment defaults to [Right] everywhere.
    @raise Invalid_argument on an aligns/headers length mismatch. *)
val create : ?aligns:align list -> string list -> t

(** @raise Invalid_argument on a cell-count mismatch. *)
val add_row : t -> string list -> unit

val render : t -> string
val print : t -> unit

(** Write as a gnuplot-friendly .dat file (commented header +
    tab-separated rows). *)
val write_dat : t -> string -> unit

(** Section banner between experiments. *)
val banner : string -> unit
