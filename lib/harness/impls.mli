(** Registry of benchmarked queue algorithms as first-class modules,
    specialized to [int] payloads (the paper's setting). Series names
    match the paper's figure legends. *)

module type BENCH_QUEUE = sig
  type t

  val name : string
  val create : num_threads:int -> t
  val enqueue : t -> tid:int -> int -> unit
  val dequeue : t -> tid:int -> int option
end

type impl = (module BENCH_QUEUE)

module type BATCH_BENCH_QUEUE = sig
  include BENCH_QUEUE

  val enqueue_batch : t -> tid:int -> int list -> unit
  val dequeue_batch : t -> tid:int -> n:int -> int list
end
(** A benchmarked queue with first-class batch operations
    (docs/BATCHING.md). *)

type batch_impl = (module BATCH_BENCH_QUEUE)

val of_backend :
  ?label:string -> (module Wfq_core.Queue_intf.BACKEND) -> batch_impl
(** Any backend — a {!Wfq_core.Backends} entry or a
    {!Wfq_shard.Shard.as_backend} configuration — as a bench impl, its
    functions packed directly (no closure-record hop). The display name
    defaults to the backend's label. A bounded backend's [enqueue]
    retries [try_enqueue] until the queue has room (backpressure); an
    unbounded one's is the backend's own. *)

val unbatched : batch_impl -> impl
(** Forget the batch operations. *)

val registered : string -> impl
(** [registered id] is {!of_backend} of [Wfq_core.Backends.find id]
    under its registered label, without the batch operations. *)

val lf : impl
(** Michael-Scott lock-free queue — the paper's baseline ("LF"). *)

val wf_base : impl
(** Base Kogan-Petrank wait-free queue ("base WF"). *)

val wf_opt1 : impl
(** Optimization 1 only: cyclic single-thread helping ("opt WF (1)"). *)

val wf_opt2 : impl
(** Optimization 2 only: atomic phase counter ("opt WF (2)"). *)

val wf_opt12 : impl
(** Both optimizations ("opt WF (1+2)"): the registry's ["kp-opt12"]. *)

val shard_series : impl list
(** Series for the shard-scaling bench: opt WF (1+2) vs the sharded
    front-end ([lib/shard], {!Wfq_shard.Shard.as_backend} over
    ["kp-opt12"] shards) at 1/2/4/8 tid-affine shards ("WF shard-K")
    plus 8 round-robin shards ("WF shard-8 (rr)"). Relaxed FIFO:
    benchmark it with {!Workload.pairs_relaxed}, not {!Workload.pairs}
    (a non-atomic sweep may observe empty under concurrency). *)

val fps_bench_series : impl list
(** Series for the fps bench: LF, base WF, opt WF (1+2), WF fps (the
    registry's ["fps"]: lock-free Michael-Scott rounds until
    {!Wfq_core.Kp_queue_fps.default_max_failures} failures, then the KP
    helping slow path), WF fps pooled (["fps-pooled"]), and the
    fast-path budget sweep "WF fps mf=K" for K in 1, 8, 64, 1024. *)

val alloc_series : impl list
(** Series for the allocation-rate bench ([wfq_bench alloc]): LF,
    opt WF (1+2), WF fps and WF fps pooled, so the last pair's words/op
    delta isolates segment-pool recycling. *)

val ring_series : impl list
(** Series for the ring bench ([wfq_bench ring]): opt WF (1+2), WF
    fps pooled (the throughput baseline) and "WF ring", the bounded
    ring ({!Wfq_core.Ring_queue}) with 8192 slots, whose [enqueue] on a
    full ring retries [try_enqueue] until there is room. The bench's
    guard is the ring's own words/op (at most 3.52 on one domain,
    spread at most 0.2 across widths). *)

val polylog_series : impl list
(** Series for the crossover bench ([wfq_bench polylog]): opt WF (1+2),
    WF fps pooled and WF polylog ({!Wfq_core.Polylog_queue}: O(log{^ 2}
    p) steps per operation against the KP family's O(p) helping
    scans). *)

val batch_series : batch_impl list
(** Series for the batch bench ([wfq_bench figures --batch k]): "WF fps
    per-item" (the registry's ["fps-pooled"] with batches looped one
    element at a time, the amortization baseline and the CI guard's
    denominator) against the native batches of "WF fps batch"
    (["fps-pooled"]), "opt WF (1+2) batch" (["kp-opt12"]), "WF ring
    batch" (8192 slots) and "WF shard-4 (rr) batch" (round-robin spread
    routing; relaxed FIFO, so a batch dequeue may return short under
    concurrency and the batch workload retries the remainder). *)

val batch_name : batch_impl -> string
val name : impl -> string
