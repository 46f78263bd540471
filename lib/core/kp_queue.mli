(** The Kogan-Petrank wait-free MPMC queue (PPoPP 2011) — this
    repository's core contribution.

    A linearizable FIFO queue supporting any number of concurrent
    enqueuers and dequeuers, in which {e every} operation completes in a
    bounded number of steps regardless of the scheduling of other
    threads (bounded wait-freedom). Built over Michael & Scott's
    lock-free queue plus a phase-based helping scheme: each thread
    publishes an operation descriptor stamped with a monotonically
    growing phase, and threads help all pending operations with phase ≤
    their own before returning.

    Construction-time policies select the paper's §3.3 optimizations.

    Thread identity: every participating thread must own a distinct
    [tid] in [0, num_threads) for the duration of its operations (use
    [Wfq_registry] for dynamic thread populations). All operations are
    safe to call concurrently from any number of domains. *)

type help_policy = Kp_helping.help_policy =
  | Help_all  (** base algorithm: help every pending operation with a
                  smaller-or-equal phase (paper L36-47) *)
  | Help_one_cyclic
      (** optimization 1: help at most one other pending operation per
          call, choosing candidates cyclically *)

type phase_policy = Kp_helping.phase_policy =
  | Phase_scan  (** base algorithm: scan the state array ([maxPhase]) *)
  | Phase_counter
      (** optimization 2: shared counter bumped by a result-ignored CAS
          (paper footnote 3); duplicate phases are harmless *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): help-event and
    descriptor-CAS-failure counters, a phase-lag histogram, the
    lost-Phase_counter-bump counter and a batch-size histogram — the
    metrics of the {!Kp_helping} engine, which {!Kp_queue_fps} exports
    under the same names. Writes are per-tid single-writer
    plain cells only — an instrumented queue performs no extra
    shared-cell (atomic) traffic, so its DPOR traces are identical to an
    uninstrumented one's. *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its metrics under
    [prefix ^ ".help_events"/".phase_lag"/".desc_cas_failures"/
    ".phase_cas_lost"/".batch_size"]. [slots] must be the queue's
    [num_threads]. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val name : string

  val create : num_threads:int -> unit -> 'a t
  (** The paper's base configuration: [Help_all] + [Phase_scan].
      [num_threads] may be a non-strict upper bound on the
      number of participating threads. *)

  val create_with :
    ?pool:bool ->
    ?pool_segment:int ->
    ?pool_quarantine:bool ->
    ?obsv:metrics ->
    help:help_policy ->
    phase:phase_policy ->
    num_threads:int ->
    unit ->
    'a t
  (** Full control over the §3.3 policy space. Raises [Invalid_argument]
      for [num_threads <= 0] or a non-positive [pool_segment].

      [pool] (default [false]) recycles list nodes {e and} operation
      descriptors through per-domain {!Wfq_primitives.Segment_pool}s,
      cutting steady-state allocation to the payload boxes. Claim-CAS
      safety comes from the epoch tag in each node's [deq_tid];
      pointer-CAS safety from the pool's quarantine. [pool_quarantine:false]
      disables the quarantine (and with it descriptor recycling, which
      is only sound under quarantine), leaving the epoch tag as the sole
      defense — meant exclusively for model-checking the tag in
      isolation, never for production use. [pool_segment] sets the
      carve-batch size (default
      {!Wfq_primitives.Segment_pool.Make.default_segment_size}).

      [obsv] (default: none) attaches an instrumentation handle built
      with {!metrics}; omitting it compiles every instrumentation site
      down to a no-op match arm. *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** Wait-free linearizable FIFO insert, linearized at the successful
      CAS appending the node (paper Definition 1). *)

  val dequeue : 'a t -> tid:int -> 'a option
  (** Wait-free linearizable FIFO remove. [None] iff the queue was empty
      at the linearization point (the paper throws [EmptyException]). *)

  (** {2 Batch operations}

      One phase pick and one descriptor publication cover the whole
      batch (docs/BATCHING.md): a batch enqueue pre-links its nodes
      into a chain and appends it with the single linearizing list CAS
      (3 CASes per batch instead of per element, with [tail] fixed in
      one jump); a batch dequeue drives one [want = n] descriptor whose
      per-element claims accumulate values in the descriptor itself, so
      helpers can complete the remaining suffix of a stalled batch.
      Wait-free like the single operations, with the per-operation step
      bound scaled by the batch size. *)

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** Enqueue all elements, list head first. The whole batch linearizes
      at one list CAS: its elements are contiguous in FIFO order, with
      no other operation interleaved among them. [enqueue_batch t []]
      is a no-op. *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** Dequeue up to [n] elements, in FIFO order. Each element
      linearizes at its own claim CAS (the batch as a whole is {e not}
      atomic — other dequeuers may interleave between elements); a
      result shorter than [n] means the queue was observed empty at the
      final element's linearization point. Raises [Invalid_argument]
      for negative [n]. *)

  (** {2 Quiescent observers}

      Exact only when no operation is in flight; under concurrency they
      are best-effort snapshots (tests and diagnostics). *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Verify the internal invariants that must hold at quiescence:
      [tail] reachable from [head], no dangling node, no pending
      descriptor. *)

  (** {2 White-box probes (tests)} *)

  val hot_cells : 'a t -> Obj.t list
  (** [head], [tail], the phase counter and the state slots: the cells
      every domain CASes, for tests of where they land in the heap. *)

  val phase_of : 'a t -> tid:int -> int
  (** Phase of the thread's latest operation. *)

  val pending_of : 'a t -> tid:int -> bool
  (** Whether the thread's descriptor is still pending. *)

  val pool_stats :
    'a t -> ((int * int * int) * (int * int * int) option) option
  (** Pool telemetry at quiescence, [None] for unpooled queues:
      [(reused, fresh, parked)] for the node pool, then the same for the
      descriptor pool when descriptor recycling is active ([None] under
      [pool_quarantine:false]). [parked] counts objects currently
      sitting in free stacks or quarantine. *)

  val register_pool_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the node (and, when active, descriptor) pools' live
      counters and gauges under [prefix ^ ".nodes.*"] / [".descs.*"];
      no-op for unpooled queues. *)

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** The uniform {!Queue_intf.RUN_QUEUE} registration: a
      [prefix ^ ".depth"] gauge (polls [length] at snapshot time only)
      plus {!register_pool_metrics}. The [?obsv] handle registers its
      own metrics at construction; together they cover every diagnostic
      the queue produces. *)
end
