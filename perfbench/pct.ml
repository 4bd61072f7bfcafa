(* Order statistics for the benchmark's timings.

   Timings are reported as a median plus the highest percentile that
   still has at least [min_beyond] samples beyond it, together with the
   sample count: a p99 over 120 samples rests on one or two values and
   says nothing, a p90 over the same 120 rests on twelve. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest value
   with at least [p] % of the samples at or below it.  The epsilon keeps
   float error from pushing an exact rank up by one (99.9 % of 10000). *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))))

let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  a.(rank n p - 1)

let percentile p xs = nearest_rank (sorted xs) p
let median xs = percentile 50.0 xs

(* Samples strictly beyond the [p]-th percentile's rank. *)
let beyond n p = n - rank n p

let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest candidate percentile with at least [min_beyond] samples
   beyond it, or [None] when even the median has fewer. *)
let tail_rule n = List.find_opt (fun p -> beyond n p >= min_beyond) candidates

type tail = { p : float; value : float; n : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  match tail_rule n with
  | None -> None
  | Some p -> Some { p; value = nearest_rank a p; n }
