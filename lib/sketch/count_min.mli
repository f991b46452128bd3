(** Count-Min sketch over integer key vectors — the data-plane
    realisation of [reduce]'s sums ([Add]-ALU rows, min over rows).
    Estimates never underestimate. *)

type t

(** @raise Invalid_argument if [depth <= 0]. *)
val create : width:int -> depth:int -> seed:int -> t

val width : t -> int
val depth : t -> int

(** Sum of all inserted counts. *)
val total : t -> int

(** Add [k] to the key's count and return the new estimate (min over
    rows after the update — the data plane's single-pass update+read). *)
val add : t -> int array -> int -> int

(** Point estimate without updating. *)
val estimate : t -> int array -> int

val clear : t -> unit

(** Sum of two same-geometry, same-seed sketches (counter-wise [Add]
    per row): estimates over the merge equal estimates over the union
    stream.
    @raise Invalid_argument on a geometry or seed mismatch. *)
val merge : t -> t -> t
