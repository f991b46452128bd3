(** Output checks: report multisets against a reference, and recall
    against the exact evaluator. *)

module Report = Newton_query.Report

(* A report's full content: identity plus the aggregate values. *)
type key = int * int * int list * int * int option

let key (r : Report.t) : key =
  (r.query_id, r.window, Array.to_list r.keys, r.value, r.value2)

let counts reports =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let k = key r in
      Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    reports;
  h

type diff = {
  missing : int;  (** in the reference, absent from the measured run *)
  extra : int;    (** in the measured run, absent from the reference *)
}

(** Multiset difference of two report lists (duplicates count). *)
let diff ~reference ~measured =
  let r = counts reference and m = counts measured in
  let excess a b =
    Hashtbl.fold
      (fun k n acc ->
        acc + max 0 (n - Option.value ~default:0 (Hashtbl.find_opt b k)))
      a 0
  in
  { missing = excess r m; extra = excess m r }

let mismatch d = d.missing + d.extra

type recall = {
  query_id : int;
  truth : int;   (** distinct (query, window, keys) the evaluator reports *)
  missed : int;  (** of those, never reported by the system *)
}

let recall_share r =
  if r.truth = 0 then 1. else float_of_int (r.truth - r.missed) /. float_of_int r.truth

(** Per-query recall of [detected] against [truth]; identity is
    (query, window, keys). *)
let recall ~query_id ~truth ~detected =
  let ident (r : Report.t) = (r.window, Array.to_list r.keys) in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (r : Report.t) ->
      if r.query_id = query_id then Hashtbl.replace seen (ident r) ())
    detected;
  let truth_ids = Hashtbl.create 1024 in
  List.iter
    (fun (r : Report.t) ->
      if r.query_id = query_id then Hashtbl.replace truth_ids (ident r) ())
    truth;
  let missed =
    Hashtbl.fold (fun k () acc -> if Hashtbl.mem seen k then acc else acc + 1)
      truth_ids 0
  in
  { query_id; truth = Hashtbl.length truth_ids; missed }
