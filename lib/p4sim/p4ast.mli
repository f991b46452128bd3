(** Abstract syntax for the P4-16 subset {!Newton_p4gen.Emit} produces.
    Built by {!P4parse}, executed by {!Interp}; anything outside the
    subset is a parse error by design. *)

type binop =
  | Add | Sub
  | Sat_add  (** [|+|]: saturating add *)
  | Band | Bor | Bxor
  | Shl | Shr
  | Eq | Ne | Lt | Gt | Le | Ge
  | Land | Lor

type expr =
  | Int of int
  | Ref of string list          (** dotted path: [hdr.ipv4.src_addr] *)
  | Cast of int * expr          (** [(bit<N>) e] *)
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr  (** [c ? a : b] *)
  | Is_valid of string list     (** [hdr.x.isValid()] *)
  | Tuple of expr list          (** [{ e, ... }] — extern call arguments *)

type stmt =
  | Decl of { width : int; name : string; init : expr option }
  | Assign of string list * expr
  | If of expr * stmt list * stmt list
  | Call of { path : string list; generic : string option; args : expr list }
      (** any call statement: [tbl.apply()], [newton_state.read(x, i)],
          [hash(...)], [digest<T>(...)], [hdr.sp.setValid()], ... *)

type match_kind = Exact | Ternary | Range

type table = {
  t_name : string;
  t_keys : (expr * match_kind) list;
  t_actions : string list;
  t_size : int option;
  t_default : string;
}

type action = {
  a_name : string;
  a_params : (string * int) list;  (** parameter name, bit width *)
  a_body : stmt list;
}

(** A select-case keyset element. *)
type pat = P_int of int | P_any

type transition =
  | T_accept
  | T_direct of string
  | T_select of expr list * (pat list * string) list

type pstate = {
  ps_name : string;
  ps_extracts : string list list;  (** header paths extracted, in order *)
  ps_transition : transition;
}

type header_type = { h_name : string; h_fields : (string * int) list }

(** A struct field: name, type (either [`Bit width] or a named header
    type), and the @field_list ids annotating it. *)
type struct_field = {
  sf_name : string;
  sf_type : [ `Bit of int | `Named of string ];
  sf_field_lists : int list;
}

type struct_type = { s_name : string; s_fields : struct_field list }

type control = {
  c_name : string;
  c_registers : (string * int) list;  (** register<bit<32>>(N) name *)
  c_actions : action list;
  c_tables : table list;
  c_apply : stmt list;
}

type program = {
  header_types : header_type list;
  structs : struct_type list;
  parser_states : pstate list;
  controls : control list;
}

val find_struct : program -> string -> struct_type option
val find_state : program -> string -> pstate option

(** Render a dotted path back to source form. *)
val path_to_string : string list -> string
