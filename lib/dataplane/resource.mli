(** Data-plane resource vectors: the seven per-stage resource types of
    an RMT switch (the columns of the paper's Table 3). *)

type t = {
  crossbar : float;  (** match-input crossbar bits *)
  sram : float;      (** SRAM blocks *)
  tcam : float;      (** TCAM blocks *)
  vliw : float;      (** VLIW action-instruction slots *)
  hash_bits : float; (** hash-distribution-unit bits *)
  salu : float;      (** stateful ALUs *)
  gateway : float;   (** gateway (predication) units *)
}

val zero : t

val make :
  ?crossbar:float -> ?sram:float -> ?tcam:float -> ?vliw:float ->
  ?hash_bits:float -> ?salu:float -> ?gateway:float -> unit -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : t -> float -> t
val sum : t list -> t

(** Componentwise [used <= budget] (with epsilon). *)
val fits : t -> t -> bool

(** Componentwise used/budget ratios (0 where the budget is 0). *)
val utilization : t -> t -> t

(** Per-stage budget of the modelled switch (Tofino-like proportions). *)
val stage_budget : t

(** Column names of the seven resource types, in the record's field order. *)
val names : string list

val pp : Format.formatter -> t -> unit
