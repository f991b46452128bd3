(** Small statistics helpers used by the benchmark harness and tests. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. (n -. 1.0)

let stddev xs = sqrt (variance xs)

(** [percentile p xs] with linear interpolation; [p] in [0,100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let sorted = List.sort compare xs |> Array.of_list in
      let n = Array.length sorted in
      if n = 1 then sorted.(0)
      else
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.of_int (int_of_float rank) |> Float.min (float_of_int (n - 2))) in
        let frac = rank -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))

let median xs = percentile 50.0 xs
let max_l xs = List.fold_left max neg_infinity xs

(** Empirical CDF as (value, fraction<=value) points, one per distinct value. *)
let ecdf xs =
  let sorted = List.sort compare xs in
  let n = float_of_int (List.length sorted) in
  let rec go i acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let i = i + 1 in
        let acc =
          match rest with
          | y :: _ when y = x -> acc (* emit only the last of a run *)
          | _ -> (x, float_of_int i /. n) :: acc
        in
        go i acc rest
  in
  go 0 [] sorted

(** Ratio helper that tolerates a zero denominator. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
