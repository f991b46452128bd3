(** Count-Min sketch over integer key vectors.

    Newton implements the sum form of [reduce] with a CM sketch: d rows of
    w counters, update via the [Add] ALU, query = min over rows.  The paper
    notes a multi-row CM spans several S-module suites (Figure 3) and that
    CQE lets the rows live on {e different switches} — which is exactly how
    Fig. 14's accuracy gains arise.  This module is the reference
    implementation; the runtime composes the same semantics from module
    suites and R's running-min over the global result. *)

type t = {
  rows : Register_array.t array;
  hashes : Hash.t array;
  mutable total : int; (* sum of all inserted counts *)
}

let create ~width ~depth ~seed =
  if depth <= 0 then invalid_arg "Count_min.create: depth must be positive";
  {
    rows = Array.init depth (fun _ -> Register_array.create width);
    hashes = Array.init depth (fun i -> Hash.create ~seed:(seed + i) ~range:width);
    total = 0;
  }

let width t = Register_array.size t.rows.(0)
let depth t = Array.length t.rows
let total t = t.total

(** [add t keys k] increments the key's count by [k] and returns the new
    estimate (min over rows after update) — mirroring the single-pass
    update-and-read the dataplane performs. *)
let add t keys k =
  t.total <- t.total + k;
  let est = ref max_int in
  Array.iteri
    (fun i row ->
      let idx = Hash.apply t.hashes.(i) keys in
      let v = Register_array.exec row (Alu.Add k) idx in
      if v < !est then est := v)
    t.rows;
  !est

(** Point query without update. *)
let estimate t keys =
  let est = ref max_int in
  Array.iteri
    (fun i row ->
      let v = Register_array.get row (Hash.apply t.hashes.(i) keys) in
      if v < !est then est := v)
    t.rows;
  if !est = max_int then 0 else !est

let clear t =
  Array.iter Register_array.clear t.rows;
  t.total <- 0

(** Sum of two sketches built with identical geometry and hash seeds
    (counter-wise [Add] of every row) — the classic CM mergeability
    property.  Estimates over the merged sketch equal estimates over the
    union stream; sharded engines use this to fold per-shard reduce
    state back into one network view.
    @raise Invalid_argument on a geometry or seed mismatch. *)
let merge a b =
  if width a <> width b || depth a <> depth b then
    invalid_arg "Count_min.merge: geometry mismatch";
  Array.iter2
    (fun ha hb ->
      if Hash.seed ha <> Hash.seed hb then
        invalid_arg "Count_min.merge: hash seed mismatch")
    a.hashes b.hashes;
  {
    rows = Array.map2 (fun x y -> Register_array.merge ~op:`Add x y) a.rows b.rows;
    hashes = a.hashes;
    total = a.total + b.total;
  }
