(** Compiler intermediate representation: module slots.

    Decomposition turns every query primitive into a suite of up to four
    module slots (K, H, S, R); Algorithm 1 mutates the slots' liveness,
    metadata-set and stage annotations; the runtime and the P4 rule
    generator interpret the configurations. *)

open Newton_packet

type value_src =
  | Const of int
  | Field_val of Field.t

(** State-bank rule configuration. *)
type s_op =
  | S_pass                 (** state result := hash result *)
  | S_bf                   (** Bloom bit: result := previous; reg |= 1 *)
  | S_cm of value_src      (** Count-Min row: reg += v; result := new *)
  | S_max of value_src     (** max row: reg := max reg v *)
  | S_read of array_ref    (** read another suite's array at own hash *)

and array_ref = { ar_branch : int; ar_prim : int; ar_suite : int }

(** Accumulators an R merge can target (the extended global result). *)
type acc = G1 | G2

type merge_op = M_set | M_min | M_max | M_add | M_sub

type guard_target = On_state | On_g1 | On_g2

(** Result-process rule: optional merge into an accumulator, optional
    combine (g1 := op(g1, g2)), optional guard (stop on mismatch),
    optional report. *)
type r_cfg = {
  merge : (acc * merge_op) option;
  guard : (guard_target * Newton_query.Ast.cmp_op * int) option;
  report : bool;
  combine : merge_op option;
}

val r_nop : r_cfg

type m_cfg =
  | K_cfg of Newton_query.Ast.key list
  | H_cfg of { mode : [ `Hash of int | `Direct ]; range : int }
  | S_cfg of { op : s_op; registers : int }
  | R_cfg of r_cfg

type slot = {
  kind : Newton_dataplane.Module_cost.kind;
  branch : int;
  prim : int;
  suite : int;
  cfg : m_cfg;
  mutable used : bool;    (** false = removable by Opt.2 *)
  mutable removed : bool;
  mutable meta : int;     (** metadata set, 0 or 1 (Opt.3) *)
  mutable stage : int;    (** -1 until composed *)
}

val make_slot :
  kind:Newton_dataplane.Module_cost.kind -> branch:int -> prim:int ->
  suite:int -> used:bool -> m_cfg -> slot

(** Used and not removed. *)
val is_active : slot -> bool

val slot_to_string : slot -> string

(** A newton_init classifier entry (ternary over 5-tuple + TCP flags)
    dispatching traffic to one branch's chain. *)
type init_entry = {
  ie_branch : int;
  ie_matches : (Field.t * int * int) list; (** field, value, mask *)
}

(** Match-all entry for a branch whose front filter stayed. *)
val init_match_all : int -> init_entry

(** Fields newton_init can match on. *)
val init_fields : Field.t list
