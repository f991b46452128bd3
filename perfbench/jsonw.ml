(** JSON rendering with full float precision.  The repo's JSON printer
    keeps six significant digits, which would round timings and erase
    epoch timestamps; results and spans are written with this one. *)

type t = Newton_util.Json.t

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string (j : t) =
  match j with
  | Null -> "null"
  | Bool v -> string_of_bool v
  | Int i -> string_of_int i
  | Float f -> float f
  | String s -> escape s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> escape k ^ ":" ^ to_string v) kvs)
      ^ "}"
