(** Stateful ALU operations executable over a register.

    Newton's state bank (S) supports a small fixed menu of transactional
    ALUs, sufficient for Bloom filters ([Or]) and Count-Min sketches
    ([Add]); [Max] covers running maxima (e.g. per-flow packet size) and
    [Read] makes S a pass-through for stateless primitives. *)

type t =
  | Add of int  (** register <- register + k, saturating; returns new value *)
  | Or of int   (** register <- register lor k; returns {e previous} value *)
  | Max of int  (** register <- max register k; returns new value *)
  | Read        (** returns register unchanged *)
  | Write of int (** register <- k; returns previous value *)

(* A switch register is 32 bits wide (newton.p4's [bit<32>]
   [newton_state]); [Add] sticks at the top, as P4's [|+|] does, so a
   count past it stays at or above every threshold it crossed. *)
let cell_max = 0xFFFF_FFFF

let update alu v =
  match alu with
  | Add k ->
      let v = v + k in
      if v > cell_max then cell_max else v
  | Or k -> v lor k
  | Max k -> if v >= k then v else k (* [Stdlib.max] is a polymorphic C call *)
  | Read -> v
  | Write k -> k

let returns_previous = function
  | Or _ | Read | Write _ -> true
  | Add _ | Max _ -> false

let to_string = function
  | Add k -> Printf.sprintf "add(%d)" k
  | Or k -> Printf.sprintf "or(0x%x)" k
  | Max k -> Printf.sprintf "max(%d)" k
  | Read -> "read"
  | Write k -> Printf.sprintf "write(%d)" k

let pp fmt t = Format.pp_print_string fmt (to_string t)
