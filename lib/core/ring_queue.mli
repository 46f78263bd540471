(** Bounded-memory wait-free MPMC ring (the wCQ direction:
    arXiv:2201.02179 and "Memory-Optimal Non-Blocking Queues").

    A fixed-capacity slot array replaces the KP family's linked list:
    no node per element (elements live in pre-allocated padded slots)
    and array locality on the hot path. It is not allocation-free: a
    fast operation allocates the fresh slot record its CAS installs,
    and a dequeue the [Some] it returns — 7 words per
    enqueue/dequeue pair, 3.50 words/op on one domain (docs/RING.md
    §6).
    Each slot is one atomic cell carrying its absolute position, so a
    single physical-equality CAS installs or removes a value {e and}
    validates the lap; [head]/[tail] are position hints (lagging their
    true values by at most one) advanced by CAS after the slot
    transition they summarize. The fast path is a bounded number of
    validated slot-CAS rounds ([max_failures]); after that the
    operation publishes a KP descriptor and is driven to completion by
    the phase-helping protocol of {!Kp_queue}/{!Kp_queue_fps} (claim a
    position in the descriptor, install/take by slot CAS, publish the
    outcome before advancing the hint). Every operation — including
    enqueue-on-full and dequeue-on-empty, which linearize at validated
    slot reads — completes in a bounded number of its own steps.

    Bounded semantics: [try_enqueue] returns [false] on a full ring,
    [enqueue] raises {!Ring_full}, [dequeue] returns [None] on empty.

    Thread identity: as for {!Kp_queue}, every participating thread
    owns a distinct [tid] in [0, num_threads).

    docs/RING.md has the protocol walkthrough, the claim/rollback
    state machine and the wait-freedom argument. *)

exception Ring_full
(** Raised by [enqueue] when the ring holds [capacity] elements. *)

val default_capacity : int
(** Slot count used by {!Make.create} (1024). *)

val default_max_failures : int
(** Fast-path attempt budget used by {!Make.create} (64, as in
    {!Kp_queue_fps}). *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): slow-path entries, peer-help
    dispatches, fast-path retries, full rejections (per-tid
    single-writer counters) and an occupancy histogram sampled from
    plain position hints — no extra shared-cell traffic, invisible to
    the model checker. *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its metrics under
    [prefix ^ ".slow_entries"/".help_events"/".fast_retries"/
    ".full_rejections"/".occupancy"/".batch_size"/".batch_cas"].
    [batch_size] is a histogram of elements per batch operation;
    [batch_cas] counts the slot/hint CASes issued by fast-path batch
    owners, so [batch_cas / sum(batch_size)] is the amortized
    CAS-per-element figure (docs/BATCHING.md). [slots] must be the
    ring's [num_threads]. *)

(** Test-only seeded bug (never pass in production code): the checker's
    ability to find and shrink it is itself under test. *)
type fault =
  | Rollback_skipped
      (** The slow-path enqueue helper rolls a claimed position back
          without first validating that its own install did not land,
          so other helpers re-claim and install the value again —
          duplicate elements, caught by DPOR's conservation check. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val name : string

  val create : num_threads:int -> unit -> 'a t
  (** Default configuration: {!default_capacity} slots,
      {!default_max_failures} fast rounds. *)

  val create_with :
    ?capacity:int ->
    ?max_failures:int ->
    ?fault:fault ->
    ?obsv:metrics ->
    num_threads:int ->
    unit ->
    'a t
  (** [capacity] is the fixed slot count (the slots are allocated
      only here). [max_failures] bounds the fast path; [0] goes straight to
      the helping slow path (the all-slow configuration the DPOR
      litmuses check). Raises [Invalid_argument] for
      [num_threads <= 0], [capacity <= 0] or negative [max_failures]. *)

  val capacity : 'a t -> int

  val try_enqueue : 'a t -> tid:int -> 'a -> bool
  (** Wait-free linearizable bounded insert: [false] means the ring
      held [capacity] elements at the linearization point (a validated
      read of the still-occupied slot one lap behind the tail). *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** [try_enqueue], raising {!Ring_full} on a full ring. *)

  val dequeue : 'a t -> tid:int -> 'a option
  (** Wait-free linearizable remove; [None] means empty at the
      linearization point (a validated read of the still-free slot at
      the head position). *)

  (** {2 Batch operations}

      Per-element validated slot rounds under one shared fast-path
      budget and a single helping check; exhausting the budget
      publishes {e one} slow-path descriptor covering the whole
      remaining run, driven element-by-element by helpers. It is the
      same descriptor and the same helper a single operation's slow
      path uses, since a single operation is a run of one
      (docs/BATCHING.md). Each element linearizes at its own slot CAS
      (the batch is {e not} atomic), so batches compose with single
      operations and with each other. Wait-free with the per-operation
      step bound scaled by the batch size. *)

  val try_enqueue_batch : 'a t -> tid:int -> 'a list -> int
  (** Enqueue elements in list order, stopping at the first element
      that finds the ring full (a validated read, as for
      {!try_enqueue}); returns how many were accepted. The accepted
      prefix stays enqueued. [try_enqueue_batch t ~tid []] is [0]. *)

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** [try_enqueue_batch], raising {!Ring_full} when any element is
      rejected — the accepted prefix {e remains enqueued}; use
      {!try_enqueue_batch} when the producer can shed. *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** Dequeue up to [n] elements in FIFO order; a result shorter than
      [n] means the ring was observed empty at the final element's
      linearization point. Raises [Invalid_argument] for negative
      [n]. *)

  (** {2 Quiescent observers} — callers guarantee no concurrent
      operations; these do not linearize with running ones. *)

  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Structural audit at quiescence: hints ordered and within
      capacity, no pending descriptors, no [slow_pending] residue, and
      every slot in the exact [Free]/[Full] state its position
      interval dictates (no [Taken] residue). *)

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Uniform backend contract (PR 6): registers [prefix ^ ".depth"]
      and [prefix ^ ".capacity"] gauges. Hot-path counters come from
      passing [?obsv] at creation. *)

  (** White-box probes for tests. *)
  module Probe : sig
    val head : 'a t -> int
    val tail : 'a t -> int

    val slot_state :
      'a t -> int -> [ `Free of int | `Full of int * int | `Taken of int * int ]
    (** Slot [j]'s cell as [(position, tid)]; tid [-1] = fast path. *)

    val desc_pending : 'a t -> int -> bool

    val hot_cells : 'a t -> Obj.t list
    (** [head], [tail], [slow_pending], the phase counter, the state
        slots and slots 0 and 1, for tests of where they land in the
        heap. *)

    val tid_words : 'a t -> (Obj.t * int) list array
    (** Per tid, the plain words only that tid writes (its helping
        cursor), each as a block and a field index, for tests of where
        they land in the heap. *)
  end
end
