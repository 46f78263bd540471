(** The paper's two benchmarks (§4), generalized.

    - {!pairs}: "enqueue-dequeue pairs" — the queue starts empty and each
      thread iteratively performs an enqueue followed by a dequeue.
    - {!p_enq}: "50% enqueues" — the queue starts with [prefill]
      elements and each thread flips a private fair coin per iteration.

    Every run validates element conservation: the numbers of successful
    operations must balance with the final queue length, and in [pairs]
    no dequeue may observe an empty queue (each thread's dequeue is
    preceded by its own enqueue, so the queue is provably non-empty at
    every dequeue linearization point). A violation raises, failing the
    benchmark loudly — performance numbers from a broken queue are
    worthless. *)

type counters = {
  mutable enqs : int;
  mutable deq_hits : int;
  mutable deq_empties : int;
}

type gc_stats = {
  minor_words : float;
      (** words allocated through the minor heaps of all workers *)
  promoted_words : float;  (** of those, words that survived to the major heap *)
  minor_collections : int;  (** global stop-the-world minor collections *)
  major_collections : int;  (** major cycles completed *)
}

type run_result = {
  seconds : float;
  total_ops : int;
  per_thread : counters array;
  gc : gc_stats;
}

(* Completion times read CLOCK_MONOTONIC ([Wfq_benchmark.Clock]): an
   NTP step inside a run would silently stretch or shrink a wall-clock
   measurement. *)
let now_ns = Wfq_benchmark.Clock.now

let spawn_and_time ~threads worker =
  (* Settle the GC first: garbage left by earlier benchmarks would
     otherwise be collected during this measurement, inflating it by an
     amount that depends on run order rather than on the queue. *)
  Gc.full_major ();
  (* The main domain is barrier participant [threads]: it records t0 the
     instant all workers are released and t1 when the last one joins. *)
  let barrier = Barrier.create (threads + 1) in
  (* Allocation counters are per-domain in OCaml 5, so each worker
     samples its own deltas around the loop and the deltas are summed.
     [minor_words] must come from [Gc.minor_words] (which reads the
     live allocation pointer) — the [Gc.quick_stat] field is only
     flushed at the domain's minor collections, so a worker whose whole
     run fits in one young generation would report 0. [promoted_words]
     has no such gap: promotion happens only during a minor collection,
     exactly when the stat is flushed. Collection counts are global
     events (a minor collection stops the world across domains) and are
     therefore deltaed once, from the main domain, around the whole
     run. *)
  let minor_w = Array.make threads 0.0 in
  let promoted_w = Array.make threads 0.0 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            Barrier.wait barrier;
            let w0 = Gc.minor_words () in
            let s0 = Gc.quick_stat () in
            worker tid;
            let s1 = Gc.quick_stat () in
            minor_w.(tid) <- Gc.minor_words () -. w0;
            promoted_w.(tid) <- s1.Gc.promoted_words -. s0.Gc.promoted_words))
  in
  Barrier.wait barrier;
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  Array.iter Domain.join domains;
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  ( float_of_int (t1 - t0) *. 1e-9,
    {
      minor_words = sum minor_w;
      promoted_words = sum promoted_w;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let fresh_counters threads =
  Array.init threads (fun _ -> { enqs = 0; deq_hits = 0; deq_empties = 0 })

let sum_by counters f = Array.fold_left (fun acc c -> acc + f c) 0 counters

(** Count elements left by draining with [dequeue] (observers like
    [to_list] are not part of {!Impls.BENCH_QUEUE}). *)
let drain (type a) (module Q : Impls.BENCH_QUEUE with type t = a) (q : a) =
  let rec go n =
    match Q.dequeue q ~tid:0 with Some _ -> go (n + 1) | None -> n
  in
  go 0

let pairs (module Q : Impls.BENCH_QUEUE) ~threads ~iters () =
  if threads <= 0 || iters <= 0 then invalid_arg "Workload.pairs";
  let q = Q.create ~num_threads:(threads + 1) in
  let counters = fresh_counters threads in
  let worker tid =
    let c = counters.(tid) in
    for i = 1 to iters do
      Q.enqueue q ~tid ((tid * iters) + i);
      c.enqs <- c.enqs + 1;
      match Q.dequeue q ~tid with
      | Some _ -> c.deq_hits <- c.deq_hits + 1
      | None -> c.deq_empties <- c.deq_empties + 1
    done
  in
  let seconds, gc = spawn_and_time ~threads worker in
  let empties = sum_by counters (fun c -> c.deq_empties) in
  if empties > 0 then
    failwith
      (Printf.sprintf "%s: %d impossible empty dequeues in pairs workload"
         Q.name empties);
  let leftover = drain (module Q) q in
  if leftover <> 0 then
    failwith
      (Printf.sprintf "%s: %d elements left after balanced pairs workload"
         Q.name leftover);
  { seconds; total_ops = 2 * threads * iters; per_thread = counters; gc }

(* A dequeue or batch dequeue that stays empty or short this many
   times in a row fails the run: a wait-free queue that holds the
   element cannot miss it that often. *)
let max_retries = 10_000_000

(* Pairs for relaxed queues (the sharded front-end): each iteration
   still enqueues then dequeues, but a [None] is retried rather than
   declared impossible — a non-atomic shard sweep may miss elements in
   flight even though the global queue is never empty. Misses are
   tallied in [deq_empties]; conservation still holds exactly. *)
let pairs_relaxed (module Q : Impls.BENCH_QUEUE) ~threads ~iters () =
  if threads <= 0 || iters <= 0 then invalid_arg "Workload.pairs_relaxed";
  let q = Q.create ~num_threads:(threads + 1) in
  let counters = fresh_counters threads in
  let worker tid =
    let c = counters.(tid) in
    for i = 1 to iters do
      Q.enqueue q ~tid ((tid * iters) + i);
      c.enqs <- c.enqs + 1;
      let rec take retries =
        match Q.dequeue q ~tid with
        | Some _ -> c.deq_hits <- c.deq_hits + 1
        | None ->
            c.deq_empties <- c.deq_empties + 1;
            if retries >= max_retries then
              failwith
                (Printf.sprintf
                   "%s: dequeue still empty after %d sweeps in \
                    relaxed-pairs workload"
                   Q.name retries)
            else take (retries + 1)
      in
      take 0
    done
  in
  let seconds, gc = spawn_and_time ~threads worker in
  let enqs = sum_by counters (fun c -> c.enqs) in
  let hits = sum_by counters (fun c -> c.deq_hits) in
  if enqs <> hits then
    failwith
      (Printf.sprintf "%s: relaxed pairs imbalance (%d enq, %d deq)"
         Q.name enqs hits);
  let leftover = drain (module Q) q in
  if leftover <> 0 then
    failwith
      (Printf.sprintf
         "%s: %d elements left after balanced relaxed-pairs workload"
         Q.name leftover);
  { seconds; total_ops = 2 * threads * iters; per_thread = counters; gc }

(* Batch pairs: each round batch-enqueues [batch] fresh values, then
   batch-dequeues [batch]. [iters] counts elements per thread, so a run
   moves the same element volume as {!pairs} at the same [iters] — the
   per-item-vs-batch comparison divides identical work. A short batch
   dequeue is retried on the remainder (tallied in [deq_empties]): the
   strict backends never return short here — every thread holds [batch]
   outstanding elements at its dequeue, so the queue is provably
   non-empty — but the sharded front-end's non-atomic sweep may miss
   elements in flight, exactly as in {!pairs_relaxed}. *)
let pairs_batch (module Q : Impls.BATCH_BENCH_QUEUE) ~threads ~iters ~batch () =
  if threads <= 0 || iters <= 0 || batch <= 0 || iters < batch then
    invalid_arg "Workload.pairs_batch";
  let rounds = iters / batch in
  let q = Q.create ~num_threads:(threads + 1) in
  let counters = fresh_counters threads in
  let worker tid =
    let c = counters.(tid) in
    for round = 0 to rounds - 1 do
      let base = (tid * iters) + (round * batch) in
      Q.enqueue_batch q ~tid (List.init batch (fun i -> base + i));
      c.enqs <- c.enqs + batch;
      let rec take want retries =
        if want > 0 then begin
          let got = List.length (Q.dequeue_batch q ~tid ~n:want) in
          c.deq_hits <- c.deq_hits + got;
          if got < want then begin
            c.deq_empties <- c.deq_empties + 1;
            if retries >= max_retries then
              failwith
                (Printf.sprintf
                   "%s: batch dequeue still short after %d sweeps" Q.name
                   retries)
            else take (want - got) (retries + 1)
          end
        end
      in
      take batch 0
    done
  in
  let seconds, gc = spawn_and_time ~threads worker in
  let enqs = sum_by counters (fun c -> c.enqs) in
  let hits = sum_by counters (fun c -> c.deq_hits) in
  if enqs <> hits then
    failwith
      (Printf.sprintf "%s: batch pairs imbalance (%d enq, %d deq)" Q.name
         enqs hits);
  let leftover =
    let rec go n =
      match Q.dequeue q ~tid:0 with Some _ -> go (n + 1) | None -> n
    in
    go 0
  in
  if leftover <> 0 then
    failwith
      (Printf.sprintf "%s: %d elements left after balanced batch pairs"
         Q.name leftover);
  {
    seconds;
    total_ops = 2 * threads * rounds * batch;
    per_thread = counters;
    gc;
  }

(* Elements in the queue before a {!p_enq} run starts. *)
let prefill = 1000

let p_enq ?(seed = 42) (module Q : Impls.BENCH_QUEUE) ~threads ~iters () =
  if threads <= 0 || iters <= 0 then invalid_arg "Workload.p_enq";
  let q = Q.create ~num_threads:(threads + 1) in
  for i = 1 to prefill do
    Q.enqueue q ~tid:0 i
  done;
  let counters = fresh_counters threads in
  let worker tid =
    let rng = Wfq_primitives.Rng.split_for ~seed ~tid in
    let c = counters.(tid) in
    for i = 1 to iters do
      if Wfq_primitives.Rng.bool rng then begin
        Q.enqueue q ~tid ((tid * iters) + i);
        c.enqs <- c.enqs + 1
      end
      else
        match Q.dequeue q ~tid with
        | Some _ -> c.deq_hits <- c.deq_hits + 1
        | None -> c.deq_empties <- c.deq_empties + 1
    done
  in
  let seconds, gc = spawn_and_time ~threads worker in
  let enqs = sum_by counters (fun c -> c.enqs) in
  let hits = sum_by counters (fun c -> c.deq_hits) in
  let leftover = drain (module Q) q in
  if prefill + enqs - hits <> leftover then
    failwith
      (Printf.sprintf
         "%s: conservation violated (prefill %d + enq %d - deq %d <> left %d)"
         Q.name prefill enqs hits leftover);
  { seconds; total_ops = threads * iters; per_thread = counters; gc }

(** Repeat a measurement [runs] times (paper: ten) and return the list of
    completion times in seconds. *)
let repeat ~runs f = List.init runs (fun _ -> (f ()).seconds)
