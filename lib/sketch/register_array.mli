(** A register array — the stateful-memory unit of the state bank.

    Models one SRAM register array of a programmable switch stage:
    fixed-size, word-wide registers, one transactional ALU execution per
    packet.  Windowed queries reset arrays via {!clear}. *)

(** Exposed so the engine's compiled step can run its state banks'
    ALUs on [regs] without a call per packet.  Such a caller keeps the
    contract of {!exec}: check the index against [size] (raising
    {!index_error} when it is out of range) and bump [ops] once per
    ALU execution. *)
type t = {
  size : int;
  regs : int array; (** [size] registers *)
  mutable ops : int; (** lifetime ALU executions *)
}

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

(** [index_error fn t idx] raises the [Invalid_argument] that the ALU
    entry point named [fn] reports for the out-of-range index [idx]
    ("Register_array.exec: index 9 out of range [0,8)").
    @raise Invalid_argument always. *)
val index_error : string -> t -> int -> 'a

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
