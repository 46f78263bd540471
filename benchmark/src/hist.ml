(* Log-linear histogram of non-negative integers (nanoseconds, counts).

   Each power of two is split into [sub] linear buckets, so a bucket is
   at most 1/128 of its value wide (values below [2 * sub] are exact).
   Quantiles interpolate inside the bucket by rank, so two runs whose
   distributions differ by less than a bucket still read differently.
   The power-of-two histograms of [Wfq_obsv] cannot separate values
   within a factor of two; this one is the benchmark's own. Fixed size,
   allocation-free [add]: one per domain, merged after the run. *)

let sub_bits = 7
let sub = 1 lsl sub_bits

(* Values are clamped below 2^40 ns (about 18 minutes). *)
let max_shift = 40 - sub_bits
let buckets = (max_shift + 2) * sub
let max_value = (1 lsl 40) - 1

type t = { counts : int array; mutable n : int; mutable max : int }

let create () = { counts = Array.make buckets 0; n = 0; max = 0 }

let msb v =
  let rec go v k = if v <= 1 then k else go (v lsr 1) (k + 1) in
  go v 0

let index v =
  if v < 2 * sub then v
  else
    let shift = msb v - sub_bits in
    ((shift + 1) * sub) + ((v lsr shift) - sub)

let lower i =
  if i < 2 * sub then i
  else
    let shift = (i / sub) - 1 in
    ((i mod sub) + sub) lsl shift

let width i = if i < 2 * sub then 1 else 1 lsl ((i / sub) - 1)

let add t v =
  let v = if v < 0 then 0 else if v > max_value then max_value else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if v > t.max then t.max <- v

let count t = t.n

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max > dst.max then dst.max <- src.max

let merge ts =
  let dst = create () in
  List.iter (fun t -> merge_into ~dst t) ts;
  dst

(* [quantile t q] for [q] in [0, 1]; 0 for an empty histogram. *)
let quantile t q =
  if t.n = 0 then 0.
  else
    let target = q *. float_of_int t.n in
    let rec walk i seen =
      if i >= buckets then float_of_int t.max
      else
        let c = t.counts.(i) in
        if c > 0 && float_of_int (seen + c) >= target then
          let frac = (target -. float_of_int seen) /. float_of_int c in
          let v = float_of_int (lower i) +. (frac *. float_of_int (width i)) in
          Float.min v (float_of_int t.max)
        else walk (i + 1) (seen + c)
    in
    walk 0 0

(* Share of the samples strictly above [v]. *)
let frac_above t v =
  if t.n = 0 then 0.
  else
    let above = ref 0 in
    for i = index (min v max_value) + 1 to buckets - 1 do
      above := !above + t.counts.(i)
    done;
    float_of_int !above /. float_of_int t.n
