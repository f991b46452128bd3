(** Small statistics helpers for the benchmark harness and tests. *)

(** Arithmetic mean; [nan] on empty input. *)
val mean : float list -> float

val stddev : float list -> float

(** Percentile with linear interpolation, [p] in [0, 100]; [nan] on
    empty input. *)
val percentile : float -> float list -> float

val median : float list -> float
val max_l : float list -> float

(** Empirical CDF as (value, fraction <= value), one point per distinct
    value. *)
val ecdf : float list -> (float * float) list

(** num/den as float; 0 on a zero denominator. *)
val ratio : int -> int -> float
