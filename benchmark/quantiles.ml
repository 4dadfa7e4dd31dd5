(* Order statistics over a handful of run values. *)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (its default "exclusive" method), so spreads read the same here as in
   any script that judges the runs. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2
