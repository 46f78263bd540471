(** The paper's two benchmarks (§4) as multi-domain workloads with
    built-in correctness validation — a run that violates element
    conservation (or observes an impossible empty dequeue) raises
    [Failure] rather than reporting a meaningless time. *)

type counters = {
  mutable enqs : int;
  mutable deq_hits : int;
  mutable deq_empties : int;
}

type gc_stats = {
  minor_words : float;
      (** words allocated through the minor heap, summed over the worker
          domains' own [Gc.quick_stat] deltas (allocation counters are
          per-domain in OCaml 5) *)
  promoted_words : float;
      (** of those, words that survived into the major heap *)
  minor_collections : int;
      (** stop-the-world minor collections during the measured window
          (global events, deltaed once from the coordinating domain) *)
  major_collections : int;  (** major cycles completed in the window *)
}

type run_result = {
  seconds : float;  (** wall-clock completion time of all threads *)
  total_ops : int;
  per_thread : counters array;
  gc : gc_stats;  (** GC activity inside the measured window *)
}

val pairs : Impls.impl -> threads:int -> iters:int -> unit -> run_result
(** "enqueue-dequeue pairs": empty queue; each thread runs [iters] ×
    (enqueue; dequeue). Validation: no dequeue may observe empty (each
    thread's dequeue is preceded by its own enqueue) and the queue must
    end empty. *)

val pairs_relaxed :
  Impls.impl -> threads:int -> iters:int -> unit -> run_result
(** {!pairs} for relaxed-FIFO queues (the sharded front-end): a [None]
    dequeue is retried (counted in [deq_empties]) instead of failing the
    run, because a non-atomic shard sweep may observe empty while
    elements are in flight; ten million misses in a row fail it.
    Validation: every enqueue is eventually dequeued and the queue ends
    empty. On a strict queue this is
    operation-for-operation identical to {!pairs}. *)

val pairs_batch :
  Impls.batch_impl ->
  threads:int ->
  iters:int ->
  batch:int ->
  unit ->
  run_result
(** Batch pairs (docs/BATCHING.md): each round batch-enqueues [batch]
    fresh values then batch-dequeues [batch]; [iters] counts elements
    per thread ([iters / batch] rounds), so the run moves the same
    element volume as {!pairs} at equal [iters]. A short batch dequeue
    is retried on the remainder (each shortfall counted once in
    [deq_empties], ten million in a row fail the run) — strict
    backends never return short here, the sharded front-end's
    non-atomic sweep may. Validation: enqueued =
    dequeued and the queue ends empty. *)

val p_enq :
  ?seed:int ->
  Impls.impl ->
  threads:int ->
  iters:int ->
  unit ->
  run_result
(** "50% enqueues": queue prefilled with 1000 elements; each thread
    flips a private fair coin per iteration (seeded by [seed], default
    42).
    Validation: prefill + enqueues - successful dequeues = leftovers. *)

val repeat : runs:int -> (unit -> run_result) -> float list
(** Completion times of [runs] repetitions (the paper averages ten). *)
