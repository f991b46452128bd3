(** In-memory spans around calls into the system's layers.

    A span has a name, a start and an end (seconds, wall clock) and the
    id of the span that caused it.  Spans are only recorded when the
    recorder is enabled, kept in memory, and written out once at the
    end of a run.  Counts recorded at the same boundaries ride on the
    span as named integers. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start : float;
  stop : float;
  counts : (string * int) list;
}

type recorder = {
  enabled : bool;
  mutable next_id : int;
  mutable spans : t list;  (* newest first *)
}

let recorder enabled = { enabled; next_id = 1; spans = [] }
let duration s = s.stop -. s.start

(** A fresh span id, so children can name a span before it ends; 0
    when the recorder is off. *)
let reserve r =
  if not r.enabled then 0
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    id
  end

(** Record an already-measured interval under [id] (default: a fresh
    one); returns the id. *)
let add r ?id ?(parent = 0) ?(counts = []) name ~start ~stop =
  if not r.enabled then 0
  else begin
    let id = match id with Some id -> id | None -> reserve r in
    r.spans <- { id; name; parent; start; stop; counts } :: r.spans;
    id
  end

(** Time [f id] under a span named [name]; [f] gets the span's id so
    nested calls can name it as their parent. *)
let timed r ?parent name f =
  let id = reserve r in
  let start = Unix.gettimeofday () in
  let v = f id in
  let stop = Unix.gettimeofday () in
  ignore (add r ~id ?parent name ~start ~stop);
  v

let find r id = List.find_opt (fun s -> s.id = id) r.spans

(** Recorded spans, oldest first. *)
let spans r = List.rev r.spans

let children r id = List.filter (fun s -> s.parent = id) (spans r)

(** Total length of the union of intervals, each clipped to
    [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time: the span's duration minus the part of its interval that
    its children cover. *)
let self_time parent children =
  duration parent
  -. union_length ~lo:parent.start ~hi:parent.stop
       (List.map (fun c -> (c.start, c.stop)) children)

(** Lay [children] end to end from [parent]'s start, keeping their
    durations.  Shadow calls — the same work repeated just before the
    real call, to time it on its own — stand in for the parent's
    internal steps this way, so {!self_time} estimates the time the
    parent spends outside them. *)
let rebase parent children =
  let _, placed =
    List.fold_left
      (fun (at, acc) c ->
        let d = duration c in
        (at +. d, { c with start = at; stop = at +. d } :: acc))
      (parent.start, []) children
  in
  List.rev placed

let to_json s =
  let open Newton_util.Json in
  Obj
    ([ ("id", Int s.id); ("name", String s.name); ("parent", Int s.parent);
       ("start", Float s.start); ("end", Float s.stop) ]
    @ (match s.counts with
      | [] -> []
      | cs -> [ ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) cs)) ]))

(** Write every span as one JSON object per line. *)
let write r path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Jsonw.to_string (to_json s));
      output_char oc '\n')
    (spans r);
  close_out oc
