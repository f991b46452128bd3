(** A register array — the stateful-memory unit of the state bank.

    Models one SRAM register array of a programmable switch stage:
    fixed-size registers, one transactional ALU execution per packet.
    Registers are word cells, 32 bits wide as a switch register is
    (values [0 .. Alu.cell_max], where [Add] saturates), or one-bit
    cells for a Bloom bank, whose [Or 1] ALU only ever stores 0 or 1:
    every operation below means the same on either, cell by cell.
    Windowed queries reset arrays via {!clear}. *)

(** Cell width: [Words] holds [0 .. Alu.cell_max], [Bits] holds 0 or 1. *)
type cells = Words | Bits

(** Exposed so the engine's compiled step can run its state banks'
    ALUs on [regs] without a call per packet.  Such a caller keeps the
    contract of {!exec}: check the index against [size] (raising
    {!index_error} when it is out of range), keep word cells within
    [0 .. Alu.cell_max] and bump [ops] once per ALU execution. *)
type t = {
  size : int; (** cells *)
  cells : cells;
  regs : Bytes.t;
      (** [Words]: cell [i] is the unsigned 32 bits at byte [4 * i]
          ({!load_word}); [Bits]: cell [i] is bit [i land 7] of byte
          [i lsr 3] *)
  mutable ops : int; (** lifetime ALU executions *)
}

(** [load_word regs off] reads the 32 bits at byte [off] of [regs],
    unchecked; a word cell's value is [Int32.to_int] of it [land
    Alu.cell_max].  A primitive, so a caller's read stays inline. *)
external load_word : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(** [store_word regs off v] writes [v]'s low 32 bits at byte [off] of
    [regs], unchecked. *)
external store_word : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(** [create size] — [cells] defaults to [Words].
    @raise Invalid_argument if the size is not positive. *)
val create : ?cells:cells -> int -> t

val size : t -> int

(** Lifetime count of ALU executions (for accounting). *)
val ops : t -> int

(** @raise Invalid_argument when the index is out of range. *)
val get : t -> int -> int

(** @raise Invalid_argument when the index is out of range, or the
    value does not fit the cell ([0 .. Alu.cell_max], or 0 and 1). *)
val set : t -> int -> int -> unit

(** Execute a stateful ALU at an index; returns the ALU result.
    Allocates nothing.
    @raise Invalid_argument when the index is out of range, or the new
    value does not fit the cell (the op is then not counted). *)
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

(** Fold [src] into [dst] register-by-register; [`Add] saturates at
    [Alu.cell_max].
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

(** Switch SRAM footprint in bytes at 32-bit registers: the size of
    word cells here; one-bit cells take a 32nd of it. *)
val sram_bytes : t -> int
