(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the library draws from an explicit
    generator so experiments reproduce bit-for-bit given a seed. *)

type t

(** Create a generator; the default seed is the SplitMix64 golden gamma. *)
val create : ?seed:int64 -> unit -> t

(** Seed from an [int]. *)
val of_int : int -> t

(** A new generator statistically independent of [t]'s later outputs. *)
val split : t -> t

(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [0, hi). *)
val float_range : t -> float -> float

val bool : t -> bool

(** Bernoulli trial with success probability [p]. *)
val bernoulli : t -> float -> bool

(** Exponential variate with rate [lambda] (mean 1/lambda).
    @raise Invalid_argument if [lambda <= 0]. *)
val exponential : t -> float -> float

(** Failures before the first success; [p] in (0, 1]. *)
val geometric : t -> float -> int

(** Pareto variate with shape [alpha] and scale (minimum) [xm]. *)
val pareto : t -> alpha:float -> xm:float -> float

(** Fisher–Yates shuffle in place. *)
val shuffle : t -> 'a array -> unit

(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
val choice : t -> 'a array -> 'a
