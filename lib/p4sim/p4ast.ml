(** Abstract syntax for the P4-16 subset {!Newton_p4gen.Emit} produces.

    This is deliberately not a general P4 front-end: it covers exactly
    the constructs found in an emitted [newton.p4] — bit<N> types,
    header/struct declarations, a parser with select transitions,
    match-action tables with exact/ternary/range keys, register
    read/write, the v1model [hash]/[digest]/[recirculate] externs, and
    straight-line action bodies with conditionals.  {!P4parse} builds
    it; {!Interp} executes it.  Anything outside the subset is a parse
    error, which is the point: the differential harness should fail
    loudly the moment emission drifts out of the modelled language. *)

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

(* ---------------- lookups ---------------- *)

let find_struct p name = List.find_opt (fun s -> s.s_name = name) p.structs

let find_state p name =
  List.find_opt (fun s -> s.ps_name = name) p.parser_states

(** Render a dotted path back to source form (diagnostics, table-key
    naming). *)
let path_to_string path = String.concat "." path
