(** Generic runtime-reconfigurable match-action table: priority-ordered
    ternary/range matching over a fixed-width key vector, with rules
    added and removed in a running switch — the reconfigurability Newton
    builds queries from (§2.1). Polymorphic in the action payload. *)

type mtch =
  | Any
  | Exact of int
  | Ternary of { value : int; mask : int }  (** key & mask = value & mask *)
  | Range of { lo : int; hi : int }         (** lo <= key <= hi *)

type 'a rule = {
  id : int;
  priority : int; (** higher wins *)
  matches : mtch array;
  action : 'a;
}

type 'a t

(** @raise Invalid_argument if [key_width <= 0]. *)
val create : ?capacity:int -> name:string -> key_width:int -> unit -> 'a t

val name : 'a t -> string
val key_width : 'a t -> int
val capacity : 'a t -> int

(** Current number of installed rules. *)
val size : 'a t -> int

val lookups : 'a t -> int
val hits : 'a t -> int

exception Table_full of string

(** Install a rule; returns its id.
    @raise Table_full when the capacity is exhausted.
    @raise Invalid_argument on a match-arity mismatch. *)
val add : 'a t -> priority:int -> matches:mtch array -> 'a -> int

(** Remove by id; [false] if unknown. *)
val remove : 'a t -> int -> bool

val clear : 'a t -> unit

(** Priority-ordered lookup; first matching rule's action (TCAM
    semantics).
    @raise Invalid_argument on a key-arity mismatch. *)
val lookup : 'a t -> int array -> 'a option

val rules : 'a t -> 'a rule list
