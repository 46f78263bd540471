(** Wait-free MPMC queue with polylogarithmic step complexity: the
    Naderibeni-Ruppert tournament-tree queue (PAPERS.md, "A Wait-free
    Queue with Polylogarithmic Step Complexity", arXiv:2305.07229). Its
    block logs grow without bound, an open point of the ROADMAP item
    "Pooled memory that pays for itself, with a certified bound".

    Where the KP family pays O(p) steps per operation in the worst
    case — the helping protocol scans the per-thread state array — this
    structure replaces per-thread helping with CAS-aggregated operation
    batches propagating up a tournament tree of height O(log p): an
    operation announces itself as a block at its thread's leaf, drives
    it to the root with at most two refresh CASes per level (the
    double-refresh lemma — if both fail, a concurrent refresh merged
    the block for us), and resolves its answer by prefix-sum arithmetic
    over the root log, O(log) binary searches per level. Every
    operation completes in O(log p · log n) of its own steps regardless
    of contention — the step-bound crossover against KP as p grows is
    certified by [Wfq_sim.Check.certify] and tabulated by
    [wfq_bench polylog].

    Blocks are natively batched: [enqueue_batch]/[dequeue_batch]
    publish one block (one tree traversal) for the whole batch.

    Unbounded semantics ([try_enqueue] always accepts). Memory caveat:
    the per-node block logs are append-only and never reclaimed — a
    queue instance grows by O(log p) blocks per operation for its whole
    lifetime (the paper's presentation; bounded-log variants exist but
    are out of scope).

    Thread identity: as for {!Kp_queue}, every participating thread
    owns a distinct [tid] in [0, num_threads) — the leaf index. *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): leaf blocks published and
    refresh CAS races lost (per-tid single-writer counters — no shared
    traffic, invisible to the model checker). *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its counters under
    [prefix ^ ".leaf_blocks"/".refresh_fails"]. [slots] must be the
    queue's [num_threads]. *)

(** Test-only seeded bug (never pass in production code): the checker's
    ability to find it is itself under test. *)
type fault =
  | No_double_refresh
      (** Propagation performs a single refresh per level, breaking the
          double-refresh lemma: a lost race can leave an announced
          block unmerged, so the op that published it spins waiting for
          its root position — caught by the model checker as a
          livelock/step-bound violation. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val name : string

  val create : num_threads:int -> unit -> 'a t

  val create_with :
    ?fault:fault -> ?obsv:metrics -> num_threads:int -> unit -> 'a t
  (** Raises [Invalid_argument] for [num_threads <= 0]. The tree is
      sized to [max 2 num_threads] rounded up to a power of two. *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  val try_enqueue : 'a t -> tid:int -> 'a -> bool
  (** Unbounded: always [true]. *)

  val dequeue : 'a t -> tid:int -> 'a option

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** One leaf block — one tree traversal — for the whole batch; the
      batch is atomic (a single root-log position covers it). *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** One leaf block for all [n] dequeues; a short result means the
      queue ran out of elements at the batch's root-log position.
      Raises [Invalid_argument] for negative [n]. *)

  (** {2 Quiescent observers} — callers guarantee no concurrent
      operations. *)

  val length : 'a t -> int
  (** O(1): the last root block's size field. *)

  val is_empty : 'a t -> bool
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Structural audit at quiescence: cumulative sums and merge ends
      monotone in every log, the root size recurrence, no filled slot
      beyond a head, and no announced operation missing from the root
      (conservation between the leaf logs and the root log). *)

  val register_metrics : 'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Uniform backend contract: [prefix ^ ".depth"] (O(1) — see
      {!length}) and [prefix ^ ".root_blocks"] gauges. Hot-path
      counters come from passing [?obsv] at creation. *)

  (** White-box probes for tests. *)
  module Probe : sig
    val leaves : 'a t -> int
    val root_blocks : 'a t -> int
    val leaf_blocks : 'a t -> tid:int -> int
    val root_size : 'a t -> int
    val node_head : 'a t -> int -> int
  end
end
