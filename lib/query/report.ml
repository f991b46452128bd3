(** Monitoring reports — what queries export to the analyzer.

    A report identifies the query, the time window, the operation-key
    values that satisfied the query intent, and the aggregate value(s)
    behind the decision.  Both the exact reference evaluator and the
    data-plane runtime produce this type, so results are directly
    comparable in accuracy experiments. *)

type t = {
  query_id : int;
  window : int;        (** window index = floor(ts / window_size) *)
  keys : int array;    (** projected (masked) operation-key values *)
  value : int;         (** the (combined) aggregate that crossed the intent *)
  value2 : int option; (** second aggregate for [Pair]-combined queries *)
}

let make ?(value2 = None) ~query_id ~window ~keys ~value () =
  { query_id; window; keys; value; value2 }

let compare a b =
  match compare a.query_id b.query_id with
  | 0 -> (
      match compare a.window b.window with
      | 0 -> compare a.keys b.keys
      | c -> c)
  | c -> c

(** Deduplicate by (query, window, keys), keeping the first occurrence. *)
let dedup reports =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let key = (r.query_id, r.window, r.keys) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    reports

(** The set of distinct key vectors reported by a query (across windows). *)
let reported_keys reports =
  List.sort_uniq Stdlib.compare (List.map (fun r -> r.keys) reports)

type diff = { missing : t list; extra : t list; changed : (t * t) list }

(* Each reference report first takes a measured one of the same
   identity and value, then one of the same identity alone ([changed]);
   what either side has left over is [missing] or [extra]. *)
let diff ~reference ~measured =
  let measured = Array.of_list measured in
  let used = Array.make (Array.length measured) false in
  (* identity -> indices of the unpaired measured reports, ascending *)
  let by_identity = Hashtbl.create 64 in
  for i = Array.length measured - 1 downto 0 do
    let r = measured.(i) in
    let k = (r.query_id, r.window, r.keys) in
    match Hashtbl.find_opt by_identity k with
    | Some l -> l := i :: !l
    | None -> Hashtbl.add by_identity k (ref [ i ])
  done;
  let take r ok =
    match Hashtbl.find_opt by_identity (r.query_id, r.window, r.keys) with
    | None -> None
    | Some l -> (
        match List.find_opt (fun i -> ok measured.(i)) !l with
        | None -> None
        | Some i ->
            l := List.filter (( <> ) i) !l;
            used.(i) <- true;
            Some measured.(i))
  in
  let unpaired =
    List.filter
      (fun r -> take r (fun m -> m.value = r.value && m.value2 = r.value2) = None)
      reference
  in
  let missing, changed =
    List.partition_map
      (fun r ->
        match take r (fun _ -> true) with
        | None -> Either.Left r
        | Some m -> Either.Right (r, m))
      unpaired
  in
  let extra = List.filteri (fun i _ -> not used.(i)) (Array.to_list measured) in
  { missing; extra; changed }

let to_string t =
  let keys = Array.to_list t.keys |> List.map string_of_int |> String.concat "," in
  let v2 = match t.value2 with None -> "" | Some v -> Printf.sprintf " v2=%d" v in
  Printf.sprintf "Q%d w%d keys=(%s) v=%d%s" t.query_id t.window keys t.value v2

let pp fmt t = Format.pp_print_string fmt (to_string t)
