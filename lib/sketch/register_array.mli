(** A register array — the stateful-memory unit of the state bank.

    Models one SRAM register array of a programmable switch stage:
    fixed-size registers, one transactional ALU execution per packet.
    Registers are word cells, or one-bit cells packed 32 to an [int]
    for a Bloom bank, whose [Or 1] ALU only ever stores 0 or 1: every
    operation below means the same on either, cell by cell.  Windowed
    queries reset arrays via {!clear}. *)

(** Cell width: [Words] holds any [int], [Bits] holds 0 or 1. *)
type cells = Words | Bits

(** Exposed so the engine's compiled step can run its state banks'
    ALUs on [regs] without a call per packet.  Such a caller keeps the
    contract of {!exec}: check the index against [size] (raising
    {!index_error} when it is out of range) and bump [ops] once per
    ALU execution. *)
type t = {
  size : int; (** cells *)
  cells : cells;
  regs : int array;
      (** [Words]: cell [i] is [regs.(i)]; [Bits]: cell [i] is bit
          [i land 31] of [regs.(i lsr 5)] *)
  mutable ops : int; (** lifetime ALU executions *)
}

(** [create size] — [cells] defaults to [Words].
    @raise Invalid_argument if the size is not positive. *)
val create : ?cells:cells -> int -> t

val size : t -> int

(** Lifetime count of ALU executions (for accounting). *)
val ops : t -> int

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> int

(** @raise Invalid_argument when the index is out of range, or the
    value does not fit a one-bit cell. *)
val set : t -> int -> int -> unit

(** Execute a stateful ALU at an index; returns the ALU result.
    @raise Invalid_argument when the index is out of range, or the new
    value does not fit a one-bit cell (the op is then not counted). *)
val exec : t -> Alu.t -> int -> int

(** [index_error fn t idx] raises the [Invalid_argument] that the ALU
    entry point named [fn] reports for the out-of-range index [idx]
    ("Register_array.exec: index 9 out of range [0,8)").
    @raise Invalid_argument always. *)
val index_error : string -> t -> int -> 'a

(** Zero every register (window reset). *)
val clear : t -> unit

(** Zero every register and the op count: the array as {!create}
    returns it, for reuse by a later install of the same size and
    cell width. *)
val reset : t -> unit

(** Independent copy (registers duplicated, op counter carried over). *)
val copy : t -> t

(** Cross-shard combine ops, one per stateful-ALU family: [`Or] unions
    Bloom banks, [`Add] sums Count-Min rows, [`Max] folds running
    maxima.  All are associative and commutative. *)
type merge_op = [ `Add | `Or | `Max ]

(** Fold [src] into [dst] register-by-register.
    @raise Invalid_argument on a size or cell-width mismatch, or one-bit
    cells merged with another op than [`Or] (a Bloom bank's). *)
val merge_into : op:merge_op -> dst:t -> src:t -> unit

(** Functional merge into a fresh array.
    @raise Invalid_argument on a size mismatch. *)
val merge : op:merge_op -> t -> t -> t

(** Number of non-zero registers. *)
val occupancy : t -> int

(** Fold over the cell values in index order. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** Modelled switch SRAM footprint in bytes at 32-bit registers,
    whatever the cell width here. *)
val sram_bytes : t -> int
