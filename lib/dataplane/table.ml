(** Generic runtime-reconfigurable match-action table.

    This is the "second type" of reconfigurability in the paper (§2.1):
    table rules can be added/removed in a running switch.  The table is
    polymorphic in its action payload — each Newton module interprets its
    own action type — and matches a fixed-width vector of key values with
    ternary/range semantics in priority order, like a TCAM. *)

type mtch =
  | Any
  | Exact of int
  | Ternary of { value : int; mask : int }  (** key & mask = value & mask *)
  | Range of { lo : int; hi : int }         (** lo <= key <= hi *)

type 'a rule = {
  id : int;
  priority : int; (* higher wins *)
  matches : mtch array;
  action : 'a;
}

type 'a t = {
  name : string;
  key_width : int;        (* number of key components *)
  capacity : int;         (* max rules; hardware table size *)
  mutable rules : 'a rule list; (* kept sorted by priority desc, id asc *)
  mutable next_id : int;
  mutable lookups : int;  (* lifetime lookup counter *)
  mutable hits : int;
}

let create ?(capacity = 256) ~name ~key_width () =
  if key_width <= 0 then invalid_arg "Table.create: key_width must be positive";
  { name; key_width; capacity; rules = []; next_id = 0; lookups = 0; hits = 0 }

let name t = t.name
let key_width t = t.key_width
let capacity t = t.capacity
let size t = List.length t.rules
let lookups t = t.lookups
let hits t = t.hits

let matches_value m key =
  match m with
  | Any -> true
  | Exact v -> key = v
  | Ternary { value; mask } -> key land mask = value land mask
  | Range { lo; hi } -> key >= lo && key <= hi

let rule_matches rule keys =
  let ok = ref true in
  Array.iteri (fun i m -> if !ok && not (matches_value m keys.(i)) then ok := false) rule.matches;
  !ok

exception Table_full of string

(** Install a rule; returns its id for later removal.  Raises
    [Table_full] when the hardware capacity is exhausted — callers (the
    controller) handle this by spilling to another module suite/switch. *)
let add t ~priority ~matches action =
  if Array.length matches <> t.key_width then
    invalid_arg
      (Printf.sprintf "Table.add(%s): expected %d match fields, got %d" t.name
         t.key_width (Array.length matches));
  if size t >= t.capacity then raise (Table_full t.name);
  let id = t.next_id in
  t.next_id <- id + 1;
  let rule = { id; priority; matches; action } in
  let rec insert = function
    | [] -> [ rule ]
    | r :: rest when r.priority < priority -> rule :: r :: rest
    | r :: rest -> r :: insert rest
  in
  t.rules <- insert t.rules;
  id

let remove t id =
  let before = size t in
  t.rules <- List.filter (fun r -> r.id <> id) t.rules;
  size t < before

let clear t = t.rules <- []

(** Priority-ordered lookup; first matching rule wins (TCAM semantics). *)
let lookup t keys =
  if Array.length keys <> t.key_width then
    invalid_arg
      (Printf.sprintf "Table.lookup(%s): expected %d keys, got %d" t.name
         t.key_width (Array.length keys));
  t.lookups <- t.lookups + 1;
  let rec go = function
    | [] -> None
    | r :: rest -> if rule_matches r keys then Some r else go rest
  in
  match go t.rules with
  | Some r ->
      t.hits <- t.hits + 1;
      Some r.action
  | None -> None

let rules t = t.rules
