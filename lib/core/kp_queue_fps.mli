(** Fast-path/slow-path Kogan-Petrank queue: a linearizable wait-free
    MPMC FIFO whose uncontended operations run as plain (lock-free)
    Michael-Scott CAS rounds, falling back to the paper's phase-based
    helping slow path only after [max_failures] failed attempts — the
    fast-path/slow-path methodology of Kogan & Petrank (PPoPP 2012), as
    deployed by wCQ (arXiv:2201.02179).

    Wait-freedom is preserved: the fast path is bounded by
    [max_failures], and every operation (fast or slow) checks a shared
    [slow_pending] counter — one atomic load, the only fast-path
    overhead — and helps a pending slow-path operation when one exists,
    so a thread on the slow path is helped after at most [num_threads]
    operations of any peer. See docs/FASTPATH.md for the full handshake
    and the progress argument.

    Thread identity: as for {!Kp_queue}, every participating thread owns
    a distinct [tid] in [0, num_threads). *)

val default_max_failures : int
(** Fast-path attempt budget used by {!Make.create} (64 — past a handful
    of failed CAS rounds the helping scheme is cheaper than continued
    spinning, and a small budget keeps the worst-case latency tight). *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): the slow path's helping-engine
    metrics, under the same names as {!Kp_queue.metrics}, plus the path
    diagnostics the always-on hit/entry counters don't capture:
    fast-path CAS rounds consumed per operation and fast-dequeue claim
    handoffs. Writes are per-tid single-writer plain cells — no extra
    shared-cell traffic. *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its metrics under
    [prefix ^ ".help_events"/".phase_lag"/".desc_cas_failures"/
    ".phase_cas_lost"/".batch_size"] (the helping engine's, as for
    {!Kp_queue}) and [".fast_rounds"/".claim_handoffs"/".batch_cas"].
    [batch_size] is a histogram of elements per batch operation;
    [batch_cas] counts the CASes issued by fast-path batch owners, so
    [batch_cas / sum(batch_size)] is the amortized CAS-per-element
    figure (docs/BATCHING.md). [slots] must be the queue's
    [num_threads]. *)

(** Test-only seeded bugs: each reinstates a known-fatal deviation from
    the fast/slow compatibility handshake (docs/FASTPATH.md), so the
    model checker's ability to find and shrink them is itself testable.
    Never pass in production code. *)
type fault = Kp_helping.fault =
  | Stale_helper_caller_phase
      (** helpers help at the caller's phase bound instead of the
          descriptor's own — the livelock documented in
          docs/FASTPATH.md, un-fixed *)
  | Fast_deq_no_claim
      (** fast-path dequeues swing [head] without claiming the
          sentinel's [deq_tid] — races a slow dequeue that already
          claimed the same sentinel into delivering one element twice *)
  | Untagged_pool_claim
      (** node recycling without the epoch tag: the pool reset restores
          the plain [-1] claim word instead of bumping the node's
          incarnation, so a dequeuer that stalled across the node's
          recycle can claim its next incarnation with a stale reference
          (the recycle-ABA the tag exists to prevent). Only meaningful
          together with [~pool:true]. *)
  | Batch_partial_publish
      (** fast-path batch enqueue severs the pre-linked chain after its
          first node before the link CAS: one element is published, the
          suffix silently dropped, the caller told everything went in —
          the conservation violation the batch DPOR litmuses find and
          shrink. Only fires on fast-path batches of two or more
          elements. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val name : string

  val create : num_threads:int -> unit -> 'a t
  (** Default configuration: [default_max_failures] fast rounds, slow
      path running the paper's fastest variant ([Help_one_cyclic] +
      [Phase_counter]). *)

  val create_with :
    ?max_failures:int ->
    ?fault:fault ->
    ?pool:bool ->
    ?pool_segment:int ->
    ?pool_quarantine:bool ->
    ?obsv:metrics ->
    help:Kp_queue.help_policy ->
    phase:Kp_queue.phase_policy ->
    num_threads:int ->
    unit ->
    'a t
  (** The policies are {!Kp_queue}'s: they configure the slow
      path only, the {!Kp_helping} engine both queues run.
      [max_failures] is the number of failed fast-path rounds tolerated
      before falling back (default {!default_max_failures}); [0] skips
      the fast path entirely, degenerating to {!Kp_queue} behaviour.
      [fault] (default [None]) injects a {!fault} — tests only.

      [pool] (default [false]) recycles nodes and descriptors through
      per-domain {!Wfq_primitives.Segment_pool}s exactly as in
      {!Kp_queue.Make.create_with}: epoch tags defend the claim CAS,
      quarantine defends the pointer CASes. [pool_quarantine:false]
      (sim/model-checking only) leaves the tag as the sole defense and
      disables descriptor recycling; [pool_segment] sets the carve-batch
      size. Raises [Invalid_argument] for [num_threads <= 0], negative
      [max_failures] or a non-positive [pool_segment].

      [obsv] (default: none) attaches an instrumentation handle built
      with {!metrics}; omitting it compiles every instrumentation site
      down to a no-op match arm. *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** Wait-free linearizable FIFO insert; linearizes at the successful
      CAS appending the node, on either path. *)

  val dequeue : 'a t -> tid:int -> 'a option
  (** Wait-free linearizable FIFO remove; linearizes at the successful
      CAS claiming the sentinel's [deq_tid] (shared by both paths), or
      at an observed-empty check. *)

  (** {2 Batch operations}

      Amortize the protocol over k elements (docs/BATCHING.md). A batch
      enqueue pre-links its nodes into a chain and publishes it with
      the {e single} linearizing append CAS — 2 CASes per uncontended
      batch instead of 2 per element — falling back to one slow-path
      descriptor that adopts the whole chain. A batch dequeue's fast
      path grabs a whole prefix: it claims the sentinel once, walks the
      immutable next chain (capped at the observed tail) collecting up
      to [n] values, and jumps [head] over the prefix with one CAS — 2
      CASes per uncontended grab instead of 2 per element. If a helper
      swings [head] first, exactly the claimed first element is
      delivered; the remaining want retries under the shared fast-round
      budget, then collects under one [want] slow-path descriptor that
      helpers can complete. Wait-free like the single operations. *)

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** Enqueue all elements, list head first; the batch linearizes at
      one list CAS (elements contiguous in FIFO order, nothing
      interleaved among them). [enqueue_batch t []] is a no-op. *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** Dequeue up to [n] elements in FIFO order. A successful fast-path
      grab linearizes its whole prefix at the head-jump CAS; elements
      taken on the retry and slow paths linearize at their own claim
      CASes. The batch is {e not} an atomic multi-dequeue — other
      dequeuers may interleave between those points — and a result
      shorter than [n] means the queue was observed empty at the final
      element's linearization point. Raises [Invalid_argument] for
      negative [n]. *)

  (** {2 Quiescent observers} (exact only at quiescence) *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** List invariants plus: no pending descriptor, [slow_pending = 0]. *)

  (** {2 White-box probes (tests)} *)

  val max_failures : 'a t -> int

  val fast_path_hits : 'a t -> int
  (** Operations completed on the fast path (including observed-empty
      dequeues), all threads. Exact at quiescence. *)

  val fast_path_hits_of : 'a t -> tid:int -> int

  val slow_path_entries : 'a t -> int
  (** Operations that exhausted [max_failures] and fell back to the
      slow path, all threads. Exact at quiescence. *)

  val slow_path_entries_of : 'a t -> tid:int -> int

  val pending_of : 'a t -> tid:int -> bool
  (** Whether [tid]'s slow-path descriptor is currently pending. *)

  val phase_of : 'a t -> tid:int -> int
  (** Phase of [tid]'s latest slow-path operation ([-1] if none). *)

  val pool_stats :
    'a t -> ((int * int * int) * (int * int * int) option) option
  (** Pool telemetry at quiescence, [None] for unpooled queues:
      [(reused, fresh, parked)] for the node pool, then the same for the
      descriptor pool when descriptor recycling is active ([None] under
      [pool_quarantine:false]). *)

  val debug_dump : 'a t -> unit
  (** Print head/tail/descriptor state to stdout (quiescent debugging). *)

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** The uniform {!Queue_intf.RUN_QUEUE} registration: a
      [prefix ^ ".depth"] gauge (polls [length] at snapshot time only),
      the always-on path counters ([prefix ^ ".fast_hits"] /
      [".slow_entries"]) and, when pooled, the node/descriptor pools'
      counters and gauges ([".nodes.*"] / [".descs.*"]). *)
end
