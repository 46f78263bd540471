(** Live-space measurement (paper Figure 10).

    The paper samples the GC's live-object statistics while the
    enqueue-dequeue benchmark runs over queues of growing initial size,
    and reports the wait-free/lock-free footprint ratio. The static
    footprint ({!footprint}) counts the heap words reachable from the
    built queue ([Obj.reachable_words]). The sampled one
    ({!footprint_active}), our equivalent of Java's [-verbose:gc], is
    [Gc.full_major] followed by [Gc.stat ()].live_words. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(** Heap words attributable to a queue of [size] elements: the words
    reachable from it once built. On a single-domain heap this equals
    live words after building it minus live words before (within the
    few words of shared constants the queue points at), but it does not
    depend on the collector: once domains have been spawned and joined,
    the orphaned-heap accounting behind [Gc.stat] can drop a few hundred
    words between two readings, enough to make a small queue's
    difference negative. *)
let footprint (module Q : Impls.BENCH_QUEUE) ~size =
  let q = Q.create ~num_threads:8 in
  for i = 1 to size do
    Q.enqueue q ~tid:0 i
  done;
  Obj.reachable_words (Obj.repr q)

(** Footprint sampled during activity, closer to the paper's methodology:
    fill to [size], then run one thread of enqueue-dequeue pairs and
    sample live words mid-run. Single-domain sampling (the sampler is the
    worker), which keeps the measurement deterministic. *)
let footprint_active (module Q : Impls.BENCH_QUEUE) ~size ~iters ~samples =
  let before = live_words () in
  let q = Q.create ~num_threads:8 in
  for i = 1 to size do
    Q.enqueue q ~tid:0 i
  done;
  let acc = ref 0 in
  let sample_every = max 1 (iters / samples) in
  let taken = ref 0 in
  for i = 1 to iters do
    Q.enqueue q ~tid:0 (size + i);
    ignore (Q.dequeue q ~tid:0);
    if i mod sample_every = 0 && !taken < samples then begin
      acc := !acc + (live_words () - before);
      incr taken
    end
  done;
  ignore (Sys.opaque_identity q);
  if !taken = 0 then live_words () - before else !acc / !taken

(** Allocation-rate profile of one implementation on the pairs workload:
    live-space (fig. 10) measures how much heap a queue {e holds};
    this measures how fast it {e churns} — the words each operation
    allocates, and the collection work that churn induces. Derived from
    the per-worker [Gc.quick_stat] deltas {!Workload} records inside
    the measured window. *)
type alloc_profile = {
  words_per_op : float;  (** minor-heap words allocated per operation *)
  promoted_per_op : float;  (** of those, words promoted to the major heap *)
  minor_collections : int;
  major_collections : int;
  total_ops : int;
}

let profile_of_result (r : Workload.run_result) =
  let ops = float_of_int r.Workload.total_ops in
  {
    words_per_op = r.Workload.gc.Workload.minor_words /. ops;
    promoted_per_op = r.Workload.gc.Workload.promoted_words /. ops;
    minor_collections = r.Workload.gc.Workload.minor_collections;
    major_collections = r.Workload.gc.Workload.major_collections;
    total_ops = r.Workload.total_ops;
  }

let alloc_profile impl ~threads ~iters =
  profile_of_result (Workload.pairs impl ~threads ~iters ())
