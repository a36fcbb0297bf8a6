(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   NumPy default): q = 0 is the minimum, q = 1 the maximum. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = Int.min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let p90 xs = quantile 0.9 xs
let iqr xs = quantile 0.75 xs -. quantile 0.25 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* [num / den], 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den
