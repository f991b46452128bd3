(** Stateful ALU operations executable over a register — the
    transactional menu of the state bank (sufficient for Bloom filters,
    Count-Min sketches, and running maxima). *)

type t =
  | Add of int   (** register <- register + k, saturating at {!cell_max};
                     returns the new value *)
  | Or of int    (** register <- register lor k; returns the {e previous} value *)
  | Max of int   (** register <- max register k; returns the new value *)
  | Read         (** returns the register unchanged *)
  | Write of int (** register <- k; returns the previous value *)

(** 2{^32}−1: the largest value a word cell holds, the top of a switch's
    32-bit register.  [Add] saturates here. *)
val cell_max : int

(** [update alu v] is the register after the ALU runs on a register
    holding [v]. *)
val update : t -> int -> int

(** Does the ALU return the register's previous value ([Or], [Read],
    [Write]) rather than its new one ([Add], [Max])? *)
val returns_previous : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
