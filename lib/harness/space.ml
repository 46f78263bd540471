(** Live-space measurement (paper Figure 10).

    The paper samples the GC's live-object statistics while the
    enqueue-dequeue benchmark runs over queues of growing initial size,
    and reports the wait-free/lock-free footprint ratio. Here the
    footprint ({!footprint}) counts the heap words reachable from the
    built queue ([Obj.reachable_words]). *)

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
