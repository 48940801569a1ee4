(* Summary statistics for the benchmark suite.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (the
   default "exclusive" method), so a spread computed here matches one
   computed from the printed values with Python's statistics module. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

let median samples =
  match sorted samples with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's exclusive-method cut points: [n - 1] values splitting the
   data into [n] groups.  Needs at least two samples. *)
let quantiles ?(n = 4) samples =
  let a = sorted samples in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n)

let quartiles samples =
  match quantiles ~n:4 samples with
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

let geomean samples =
  match samples with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      if List.exists (fun x -> x <= 0.0) samples then
        invalid_arg "Stats.geomean: samples must be positive";
      let logs = List.fold_left (fun acc x -> acc +. log x) 0.0 samples in
      exp (logs /. float_of_int (List.length samples))

let min_beyond = 10

(* The nearest rank of the [p]-th percentile of [n] samples, if at least
   [min_beyond] samples lie strictly above it: a tail resting on fewer
   samples is one outlier, not a tail.  [p] is a whole percent so the
   rank is exact integer arithmetic. *)
let cut p n =
  if n = 0 || p <= 0 || p >= 100 then None
  else
    let rank = max 1 (((p * n) + 99) / 100) in
    if n - rank < min_beyond then None else Some rank

let percentile p samples =
  let a = sorted samples in
  Option.map (fun rank -> a.(rank - 1)) (cut p (Array.length a))

(* The mean of the samples strictly beyond the [p]-th percentile: a tail
   summary that averages the whole tail instead of following one
   sample. *)
let mean_beyond p samples =
  let a = sorted samples in
  let n = Array.length a in
  Option.map
    (fun rank -> Array.fold_left ( +. ) 0.0 (Array.sub a rank (n - rank)) /. float_of_int (n - rank))
    (cut p n)
