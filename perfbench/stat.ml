(** Tail percentiles over timing samples (medians come from
    [Newton_util.Stats]).

    Percentiles here use the nearest-rank rule, so every reported value
    is a sample: the [p]-th percentile of [n] sorted samples is the one
    at 1-based rank [ceil (p * n / 100)], and the samples strictly above
    that rank are the ones "beyond" it. *)

(* 0-based index of the nearest-rank [p]-th percentile of [n] samples.
   [p] is a percentage in (0, 100]. *)
let rank n p =
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  max 0 (min (n - 1) (r - 1))

let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      a.(rank (Array.length a) p)

let median = Newton_util.Stats.median

let beyond n p = n - 1 - rank n p

(** The highest whole percentile (50 to 99) of [n] samples that leaves
    at least ten samples strictly above it; [None] when even the median
    leaves fewer. *)
let tail_percentile n =
  let rec go p =
    if p < 50 then None
    else if n > 0 && beyond n (float_of_int p) >= 10 then Some p
    else go (p - 1)
  in
  go 99

let sum xs = List.fold_left ( +. ) 0. xs
