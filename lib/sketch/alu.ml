(** Stateful ALU operations executable over a register.

    Newton's state bank (S) supports a small fixed menu of transactional
    ALUs, sufficient for Bloom filters ([Or]) and Count-Min sketches
    ([Add]); [Max] covers running maxima (e.g. per-flow packet size) and
    [Read] makes S a pass-through for stateless primitives. *)

type t =
  | Add of int  (** register <- register + k; returns new value *)
  | Or of int   (** register <- register lor k; returns {e previous} value *)
  | Max of int  (** register <- max register k; returns new value *)
  | Read        (** returns register unchanged *)
  | Write of int (** register <- k; returns previous value *)

(** [exec alu regs idx] performs the transactional read-modify-write and
    returns the ALU's result value. *)
let exec alu (regs : int array) idx =
  match alu with
  | Add k ->
      let v = regs.(idx) + k in
      regs.(idx) <- v;
      v
  | Or k ->
      let prev = regs.(idx) in
      regs.(idx) <- prev lor k;
      prev
  | Max k ->
      (* int compare: [Stdlib.max] is a polymorphic C call *)
      let cur = regs.(idx) in
      let v = if cur >= k then cur else k in
      regs.(idx) <- v;
      v
  | Read -> regs.(idx)
  | Write k ->
      let prev = regs.(idx) in
      regs.(idx) <- k;
      prev

let to_string = function
  | Add k -> Printf.sprintf "add(%d)" k
  | Or k -> Printf.sprintf "or(0x%x)" k
  | Max k -> Printf.sprintf "max(%d)" k
  | Read -> "read"
  | Write k -> Printf.sprintf "write(%d)" k

let pp fmt t = Format.pp_print_string fmt (to_string t)
