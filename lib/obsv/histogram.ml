(** Power-of-two-bucket histograms with the same per-slot single-writer
    discipline as {!Counter}.

    Bucket [b] holds samples [v] with [2^b <= v < 2^(b+1)] (bucket 0
    also absorbs [v <= 1]), so 48 buckets cover sub-nanosecond to
    multi-day latencies with a two-instruction record path and ~2x
    worst-case quantile error — the right trade for "is p99 1µs or
    1ms?" questions. Per-slot true maxima are tracked exactly.

    Recording is slot-local plain stores (one array increment + a max
    update); {!summary} merges all slots with racy reads, same caveats
    as {!Counter.total}. *)

let buckets = 48

type t = {
  counts : int array array; (* per slot: separately allocated, no sharing *)
  maxes : int array; (* per slot, laid out by {!Line} *)
  slots : int;
}

let create ~slots () =
  if slots <= 0 then invalid_arg "Obsv.Histogram.create: slots";
  {
    counts = Array.init slots (fun _ -> Array.make buckets 0);
    maxes = Line.ints slots 0;
    slots;
  }

let slots t = t.slots

let bucket_of v =
  if v <= 1 then 0
  else begin
    let rec go v b = if v <= 1 then b else go (v lsr 1) (b + 1) in
    let b = go v 0 in
    if b >= buckets then buckets - 1 else b
  end

let record t ~slot v =
  let c = t.counts.(slot) in
  let b = bucket_of v in
  c.(b) <- c.(b) + 1;
  let mi = Line.slot slot in
  if v > t.maxes.(mi) then t.maxes.(mi) <- v

(** Merged bucket counts (racy snapshot), index = bucket. *)
let merged t =
  let out = Array.make buckets 0 in
  for s = 0 to t.slots - 1 do
    let c = t.counts.(s) in
    for b = 0 to buckets - 1 do
      out.(b) <- out.(b) + c.(b)
    done
  done;
  out

type summary = {
  count : int;
  p50 : float;
  p99 : float;
  max : int;  (** exact maximum recorded value, not a bucket bound *)
}

(* Nearest-rank percentile over the merged buckets; a bucket is
   reported as its geometric representative (1.5 * 2^b; bucket 0 as 1),
   i.e. within 1.5x of any sample it contains. *)
let percentile_from merged total p =
  if p < 0.0 || p > 100.0 then
    invalid_arg "Obsv.Histogram.percentile: p out of range";
  if total = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
      if r < 1 then 1 else r
    in
    let rec walk b cum =
      if b >= buckets then float_of_int max_int
      else
        let cum = cum + merged.(b) in
        if cum >= rank then
          if b = 0 then 1.0 else 1.5 *. float_of_int (1 lsl b)
        else walk (b + 1) cum
    in
    walk 0 0
  end

let percentile t p =
  let m = merged t in
  percentile_from m (Array.fold_left ( + ) 0 m) p

let summary t =
  let m = merged t in
  let count = Array.fold_left ( + ) 0 m in
  let max_v =
    let acc = ref 0 in
    for s = 0 to t.slots - 1 do
      let v = t.maxes.(Line.slot s) in
      if v > !acc then acc := v
    done;
    !acc
  in
  {
    count;
    p50 = percentile_from m count 50.0;
    p99 = percentile_from m count 99.0;
    max = max_v;
  }
