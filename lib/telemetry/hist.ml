(** Fixed-bound histograms for the telemetry sinks.

    Buckets are defined by an ascending array of inclusive upper
    bounds plus an implicit [+Inf] overflow bucket; counts are stored
    non-cumulative (the Prometheus exporter accumulates on render).
    Merging is element-wise addition, which is what lets per-domain
    sinks fold back into one switch-level view ({!Stats.merge}). *)

(* The running sum lives in a one-field float record, which OCaml
   stores flat: adding to it allocates nothing, where a [mutable float]
   field of [t] would box every new sum. *)
type total = { mutable value : float }

type t = {
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1 *)
  sum : total;
  mutable count : int;
}

(** 1-2-5 decades from 100 µs to 10 s: report latency within a 100 ms
    window lands mid-range with room for long windows. *)
let latency_bounds =
  [| 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3; 1e-2; 2e-2; 5e-2; 0.1; 0.2; 0.5;
     1.0; 2.0; 5.0; 10.0 |]

(** 1-2-5 decades from 1 to 10k: per-window drop / message counts. *)
let count_bounds =
  [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0;
     5000.0; 10000.0 |]

(** 1-2-5 decades from 1 µs to 1 s: packet inter-arrival gaps, which sit
    well below report latencies on a backbone capture. *)
let interarrival_bounds =
  [| 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
     1e-2; 2e-2; 5e-2; 0.1; 0.2; 0.5; 1.0 |]

let create bounds =
  let n = Array.length bounds in
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Hist.create: bounds not strictly ascending"
  done;
  { bounds = Array.copy bounds; counts = Array.make (n + 1) 0;
    sum = { value = 0.0 }; count = 0 }

let bounds t = Array.copy t.bounds
let count t = t.count
let sum t = t.sum.value

(* Counted in the first bucket whose bound covers [x], the overflow
   bucket otherwise: a linear scan over at most twenty bounds.  Observe
   is on the per-packet path of the streaming ingest ([Stream.run]
   records every pulled packet's inter-arrival gap), besides reports
   and window rolls, so the scan is a loop: a local recursive function
   capturing [x] would allocate a closure per call.  A NaN covers no
   bound and is counted in the overflow bucket. *)
let observe t x =
  let bounds = t.bounds in
  let n = Array.length bounds in
  let b = ref 0 in
  while !b < n && not (x <= Array.unsafe_get bounds !b) do incr b done;
  let b = !b in
  t.counts.(b) <- t.counts.(b) + 1;
  t.sum.value <- t.sum.value +. x;
  t.count <- t.count + 1

(** Non-cumulative counts including the overflow bucket. *)
let counts t = Array.copy t.counts

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.sum.value <- 0.0;
  t.count <- 0

let copy t =
  { bounds = Array.copy t.bounds; counts = Array.copy t.counts;
    sum = { value = t.sum.value }; count = t.count }

(** Fold [src] into [dst] bucket-wise.
    @raise Invalid_argument on a bound-layout mismatch. *)
let merge_into ~dst ~src =
  if dst.bounds <> src.bounds then invalid_arg "Hist.merge_into: bounds mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.sum.value <- dst.sum.value +. src.sum.value;
  dst.count <- dst.count + src.count

let merge a b =
  let t = copy a in
  merge_into ~dst:t ~src:b;
  t

(** The histogram as a {!Metric} sample value. *)
let to_value t =
  Metric.Buckets
    { bounds = Array.copy t.bounds; counts = Array.copy t.counts;
      sum = t.sum.value; count = t.count }
