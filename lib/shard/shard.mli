(** [Wfq_shard.Shard] — a sharded, batched wait-free MPMC queue
    front-end composing [N] independent Kogan-Petrank queues.

    The KP queue is wait-free but funnels every operation through a
    single [head]/[tail] pair, so throughput flattens once a handful of
    domains contend. This subsystem fans operations out over [N]
    independent KP shards (each the fully optimized opt-(1+2) variant)
    selected by wait-free fetch-and-add tickets, trading a bounded
    amount of global FIFO order for shard-local contention.

    {2 Ordering contract (relaxed FIFO)}

    - {b Per-shard FIFO}: each shard is a linearizable FIFO queue;
      elements placed in the same shard are dequeued in insertion
      order. Batches enqueued with a contiguous policy (tid-affine or
      length-aware) stay in one shard and are consumed in order.
    - {b k-relaxed global order}: with [N > 1] shards, two elements
      enqueued into different shards may be dequeued in either order.
      The inversion is bounded: round-robin tickets place consecutive
      global enqueues on consecutive shards, so an element can be
      overtaken by at most [N - 1] ticket successors plus the elements
      ahead of it in its own shard — never unboundedly.
    - {b Strict mode}: [N = 1] ({!create_strict}) degenerates to a
      single KP shard and is a strict linearizable FIFO; ticket
      acquisition is skipped, so strict mode adds no overhead over the
      underlying queue.
    - {b Empty-sweep semantics}: a dequeue that finds its start shard
      empty sweeps every other shard ({e steal-on-empty}) before
      returning [None]. At quiescence a sweep therefore never reports
      [None] while an element is present anywhere. Under concurrency a
      sweep is not atomic: [None] means every shard was {e observed}
      empty at some instant during the sweep, which is weaker than the
      strict queue's "empty at one linearization point".

    {2 Progress}

    Every operation is wait-free: shard selection is one fetch-and-add
    (or none), and a dequeue performs at most [N] wait-free KP dequeues.
    Batches forward to the backends' native batch operations
    (docs/BATCHING.md): [dequeue_batch ~n] performs at most [N] backend
    batch dequeues — one per shard in a single sweep lap, each bounded
    by its remaining want — and [enqueue_batch] at most
    [min (length vs) N] backend batch enqueues. No operation ever
    retries unboundedly.

    Thread identity follows {!Wfq_core.Queue_intf.QUEUE}: every caller
    owns a [tid] in [0, num_threads) (see [Wfq_registry] for dynamic
    populations). *)

(** Shard-selection policy for both enqueue and dequeue start shards. *)
type policy =
  | Round_robin
      (** one global fetch-and-add ticket per operation (default):
          spreads load evenly and bounds global reordering by the shard
          count *)
  | Tid_affine
      (** shard = [tid mod N]; no shared selection state at all. With
          at least as many shards as threads this partitions the queue
          into per-thread lanes (dequeues still steal on empty). *)
  | Length_aware
      (** two-choice selection on approximate shard sizes: enqueue to
          the shorter of two sampled shards, dequeue from the longer —
          evens shard lengths under skewed producers at the cost of one
          extra counter read per operation *)

(** Per-shard queue algorithm: any backend in {!Wfq_core.Backends}, by
    id (e.g. ["fps-pooled"], ["polylog"]), in its registered
    configuration. A backend added to the registry is usable as a shard
    with no edit to this subsystem. All registered backends are
    wait-free strict FIFOs, so the front-end's ordering and progress
    contracts hold for every one of them. A bounded backend (["ring"])
    bounds each shard: [enqueue] raises its full-queue exception on a
    full shard. Default is [Registered "kp-opt12"]. *)
type backend = Registered of string

(** Per-shard operation counters (monotonic, snapshot via {!Make.stats};
    exact at quiescence, indicative under concurrency). *)
type shard_stats = {
  enqueues : int;  (** elements placed in this shard *)
  dequeues : int;  (** successful dequeues served by this shard *)
  steals : int;
      (** dequeues served by this shard after the caller's start shard
          was found empty (subset of [dequeues]) *)
  empty_sweeps : int;
      (** dequeues that started at this shard, swept every shard and
          returned [None] *)
}

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val name : string

  val create :
    ?policy:policy ->
    ?backend:backend ->
    ?shards:int ->
    num_threads:int ->
    unit ->
    'a t
  (** [create ~policy ~backend ~shards ~num_threads ()] builds a
      front-end over [shards] (default 4) independent queues of the
      given [backend] (default [Registered "kp-opt12"]), each usable by
      threads [0 .. num_threads - 1] (every thread may touch every
      shard via stealing). Default policy is {!Round_robin}. Raises
      [Invalid_argument] for [shards <= 0], [num_threads <= 0], or an
      unknown backend id; the message names the id and the known
      ones. *)

  val create_strict : num_threads:int -> unit -> 'a t
  (** Single-shard strict FIFO mode: equivalent to [create ~shards:1],
      with shard selection compiled away. *)

  val shards : 'a t -> int
  val policy : 'a t -> policy
  val backend : 'a t -> backend

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** Wait-free insert into the policy-selected shard. *)

  val dequeue : 'a t -> tid:int -> 'a option
  (** Wait-free remove: tries the policy-selected start shard, then
      sweeps the remaining shards (steal-on-empty). [None] iff every
      shard was observed empty during the sweep. *)

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** Insert a whole batch through the backends' native batch enqueue,
      with batch-aware spread-vs-keep-together routing. [Tid_affine]
      and [Length_aware] keep the batch together: one selection, one
      backend batch, the whole batch contiguous in its shard.
      [Round_robin] spreads a batch of [k >= N] elements as [N]
      contiguous sub-batches over consecutive ticket-selected shards
      (load balance at native-batch cost); smaller Round_robin batches
      keep together too — spreading them would degenerate to
      per-element sub-batches — rotating shards across successive
      batches via the ticket. Intra-batch FIFO order is preserved
      within each shard's sub-batch. With a bounded backend a full
      shard raises its full-queue exception; the elements already
      accepted remain enqueued. *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** Remove up to [n] elements with a single ticket acquisition: one
      backend-native batch dequeue per shard, asking each visited shard
      for the whole remaining want, sweeping at most one
      {!Steal_order} lap (at most [N] backend batch dequeues — the
      backend returns short only when it observed its shard empty, so
      no shard needs a second visit). Returns fewer than [n] elements
      only after the lap observed every shard empty. Elements taken
      from the same shard preserve that shard's FIFO order. *)

  (** {2 Quiescent observers} (exact only at quiescence) *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int

  val to_list : 'a t -> 'a list
  (** Contents as shard-0 front-to-back, then shard 1, … — {e not} a
      global FIFO order ([N > 1] has none). *)

  val shard_length : 'a t -> int -> int
  (** Length of one shard (quiescent). *)

  val stats : 'a t -> shard_stats array
  (** Per-shard counter snapshot, index = shard. *)

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Every shard's KP invariants, plus agreement between the stats
      counters, the approximate size counters and the actual shard
      lengths.

      {b Explicit quiescence guarantee}: the cross-checks are reported
      only if no operation was in flight when the check started and
      none started or finished while it ran (witnessed by per-tid
      operation-sequence cells each operation bumps on entry and exit).
      When concurrency is detected the check returns [Ok ()] vacuously —
      it can never fail spuriously under load. A genuinely quiescent
      caller always gets the real verdict. *)

  (** {2 White-box probes (tests)} *)

  val last_enqueue_shard : 'a t -> tid:int -> int
  (** Shard that received [tid]'s most recent completed enqueue (or the
      last element of its most recent batch); [-1] before any. *)

  val last_dequeue_shard : 'a t -> tid:int -> int
  (** Shard that served [tid]'s most recent successful dequeue (or the
      last element of its most recent non-empty batch); [-1] before
      any, and [-1] again after an empty sweep. *)

  val last_enqueue_batch_calls : 'a t -> tid:int -> int
  (** Backend batch enqueues performed by [tid]'s most recent
      [enqueue_batch]: 1 on the keep-together route, [N] on the spread
      route — the cost contract's probe. 0 before any batch. *)

  val last_dequeue_batch_calls : 'a t -> tid:int -> int
  (** Backend batch dequeues performed by [tid]'s most recent
      [dequeue_batch] — at most [N] by the single-lap cost contract
      (steal visits pre-checked empty are skipped and not counted). *)

  val tid_words : 'a t -> (Obj.t * int) list array
  (** Per tid, the plain probe words only that tid writes (its last
      shards and batch-call counts), each as a block and a field index,
      for tests of where they land in the heap. *)

  val size_cells : 'a t -> Obj.t list
  (** The per-shard size cells of [Length_aware], for the same
      tests. *)

  val in_flight : 'a t -> bool
  (** Whether any thread's operation-sequence cell is currently odd,
      i.e. some operation is observed mid-flight. Racy (a snapshot);
      exact at quiescence. *)

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the whole-queue depth gauge under [prefix ^ ".depth"] (the
      uniform [Wfq_core.Queue_intf.RUN_QUEUE] contract) plus each
      shard's live counters and depth gauge under
      [prefix ^ ".shard<i>.enqueues"/".dequeues"/".steals"/
      ".empty_sweeps"/".depth"]. *)
end

val as_backend :
  ?policy:policy ->
  ?shards:int ->
  string ->
  (module Wfq_core.Queue_intf.BACKEND)
(** [as_backend ~policy ~shards id] is the front-end over [shards]
    [Registered id] shards as a {!Wfq_core.Queue_intf.BACKEND}, so any
    client that takes a backend ([Wfq_sched.Sched.Rq_of], the bench
    harness) runs it with no adapter of its own. [create]'s [?obsv]
    registers {!Make.register_metrics}; [?pool] is ignored. Shard
    configurations are not in {!Wfq_core.Backends.all}: their order is
    relaxed, which the registry's strict-FIFO batteries would reject.
    Raises [Invalid_argument] for an unknown or bounded [id] (a full
    shard cannot report [try_enqueue]'s [false]). *)
