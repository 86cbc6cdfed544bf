(* The one place the ledger turns samples into numbers.

   Percentiles use the nearest-rank rule: the p-th percentile of n sorted
   samples is the sample at 0-based index ceil(p * n) - 1, so it is always
   an observed value and p = 1 is the maximum. A percentile is reported
   only when at least [min_beyond] samples lie strictly above its rank;
   with fewer, the "tail" is a handful of points (the maximum of 4
   samples is not a p99).

   Quartiles across runs follow Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so the ledger's spreads match the
   ones computed from the same run records by any other tool. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The 1e-9 slack keeps products such as 0.9 *. 10. = 9.000000000000002
   from rounding up a whole rank. *)
let rank ~n p =
  if n <= 0 then invalid_arg "Quantile.rank: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Quantile.rank: p must be in (0, 1]";
  max 0 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1)

let beyond ~n p = n - 1 - rank ~n p

let percentile a p = a.(rank ~n:(Array.length a) p)

let guarded a p =
  let n = Array.length a in
  if n > 0 && beyond ~n p >= min_beyond then Some (percentile a p) else None

(* Smallest sample count at which [guarded] reports [p]. *)
let min_samples p =
  let rec go n = if beyond ~n p >= min_beyond then n else go (n + 1) in
  go 1

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quantile.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median: the run-to-run spread
   every bound in the ledger is compared against. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m
