(** A register array — the stateful-memory unit of the state bank.

    Models one SRAM register array of a programmable switch stage:
    fixed-size, word-wide registers, one transactional ALU execution per
    packet.  Windowed queries reset arrays via {!clear}. *)

type t

(** @raise Invalid_argument if the size is not positive. *)
val create : int -> t

val size : t -> int

(** Lifetime count of ALU executions (for accounting). *)
val ops : t -> int

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Execute a stateful ALU at an index; returns the ALU result.
    @raise Invalid_argument when the index is out of range. *)
val exec : t -> Alu.t -> int -> int

(** [add t idx v] = [exec t (Alu.Add v) idx]: same bounds check and
    op count, no {!Alu.t} built (field-valued Count-Min increments). *)
val add : t -> int -> int -> int

(** [max t idx v] = [exec t (Alu.Max v) idx] (field-valued maxima). *)
val max : t -> int -> int -> int

(** Zero every register (window reset). *)
val clear : t -> unit

(** Zero every register and the op count: the array as {!create}
    returns it, for reuse by a later install of the same size. *)
val reset : t -> unit

(** Independent copy (registers duplicated, op counter carried over). *)
val copy : t -> t

(** Cross-shard combine ops, one per stateful-ALU family: [`Or] unions
    Bloom banks, [`Add] sums Count-Min rows, [`Max] folds running
    maxima.  All are associative and commutative. *)
type merge_op = [ `Add | `Or | `Max ]

val merge_op_to_string : merge_op -> string

(** Fold [src] into [dst] register-by-register.
    @raise Invalid_argument on a size mismatch. *)
val merge_into : op:merge_op -> dst:t -> src:t -> unit

(** Functional merge into a fresh array.
    @raise Invalid_argument on a size mismatch. *)
val merge : op:merge_op -> t -> t -> t

(** Number of non-zero registers. *)
val occupancy : t -> int

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** SRAM footprint in bytes at 32-bit words. *)
val sram_bytes : t -> int
