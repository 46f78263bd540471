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

val wf_shard : int -> impl
(** Sharded front-end ([lib/shard]) with the given shard count,
    tid-affine policy (shard = tid mod N, steal on empty), over
    ["kp-opt12"] shards ({!Wfq_shard.Shard.as_backend}). Relaxed FIFO: benchmark it with
    {!Workload.pairs_relaxed}, not {!Workload.pairs} (a non-atomic
    sweep may observe empty under concurrency). *)

val wf_shard_rr : int -> impl
(** Same front-end with the round-robin fetch-and-add ticket policy. *)

val shard_series : impl list
(** Series for the shard-scaling bench: opt WF (1+2) vs the sharded
    front-end at 1/2/4/8 shards plus the 8-shard round-robin variant. *)

val wf_fps : impl
(** Fast-path/slow-path KP queue ("WF fps", the registry's ["fps"]):
    lock-free Michael-Scott rounds until
    {!Wfq_core.Kp_queue_fps.default_max_failures} failures, then the KP
    helping slow path (opt 1+2). Wait-free, linearizable, strict FIFO —
    safe with {!Workload.pairs}. *)

val wf_fps_pooled : impl
(** {!wf_fps} with node recycling ("WF fps pooled", the
    registry's ["fps-pooled"]). *)

val wf_fps_mf : int -> impl
(** Same with an explicit [max_failures] budget ("WF fps mf=K"). *)

val wf_fps_series : impl list
(** The fast-path budget sweep: max_failures ∈ 1, 8, 64, 1024. *)

val fps_bench_series : impl list
(** Series for the fps bench: LF, base WF, opt WF (1+2), WF fps, WF fps
    pooled, plus {!wf_fps_series}. *)

val alloc_series : impl list
(** Series for the allocation-rate bench ([wfq_bench alloc]): LF,
    opt WF (1+2), WF fps and WF fps pooled, so the last pair's words/op
    delta isolates segment-pool recycling. *)

val wf_ring : impl
(** Bounded-memory wait-free ring ({!Wfq_core.Ring_queue}, "WF ring"):
    8192 pre-allocated slots, default fast-path budget. No node per
    element, but each operation allocates its slot record (3.50
    words/op on pairs); [enqueue] on a full ring retries [try_enqueue]
    until there is room (no benchmark workload approaches the bound).
    Strict FIFO — safe with {!Workload.pairs}. *)

val ring_series : impl list
(** Series for the ring bench ([wfq_bench ring]): opt WF (1+2), WF
    fps pooled (the throughput baseline) and the ring. The bench's
    guard is the ring's own words/op (at most 3.52 on one domain,
    spread at most 0.2 across widths). *)

val wf_polylog : impl
(** Polylog-step tournament-tree queue ({!Wfq_core.Polylog_queue},
    "WF polylog"): O(log{^ 2} p) steps per operation vs the KP
    family's O(p) helping scans. Unbounded, strict FIFO — safe with
    {!Workload.pairs}. Append-only block logs (no reclamation), so
    sized runs only. *)

val polylog_series : impl list
(** Series for the crossover bench ([wfq_bench polylog]): opt WF (1+2),
    WF fps pooled, WF polylog. *)

val fps_per_item : batch_impl
(** "WF fps per-item": {!fps_batch}'s queue with batches looped one
    element at a time — the amortization baseline every batch-native
    series is compared against (and the CI guard's denominator). *)

val fps_batch : batch_impl
(** "WF fps batch": the registry's ["fps-pooled"], native batch
    operations — one fast-path CAS (or one slow-path descriptor) per
    whole batch. *)

val kp_batch : batch_impl
(** "opt WF (1+2) batch": the registry's ["kp-opt12"] native
    batches. *)

val ring_batch : batch_impl
(** "WF ring batch": the bounded ring's native batches (8192 slots). *)

val shard_batch : batch_impl
(** "WF shard-4 (rr) batch": the sharded front-end, round-robin spread
    routing. Relaxed FIFO — a batch dequeue may return short under
    concurrency, so the batch workload retries the remainder. *)

val batch_series : batch_impl list
(** Series for the batch bench ([wfq_bench figures --batch k]):
    {!fps_per_item} vs the four batch-native backends. *)

val batch_name : batch_impl -> string
val name : impl -> string
