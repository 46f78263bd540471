(** Common signature implemented by every queue in this library.

    All operations take the caller's thread ID [tid], a small integer in
    [0, num_threads). The wait-free algorithms index their per-thread
    [state] slots by [tid]; baselines that do not need thread identity
    simply ignore it. Dynamic threads can obtain a [tid] from
    [Wfq_registry]. *)

module type QUEUE = sig
  type 'a t

  val name : string
  (** Short algorithm name used in benchmark output. *)

  val create : num_threads:int -> unit -> 'a t
  (** [create ~num_threads ()] makes an empty queue usable by threads with
      IDs [0 .. num_threads - 1]. [num_threads] may be a non-strict upper
      bound, as in the paper. *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** Linearizable FIFO insert. *)

  val dequeue : 'a t -> tid:int -> 'a option
  (** Linearizable FIFO remove; [None] iff the queue was observed empty at
      the linearization point (the paper throws [EmptyException]). *)

  val is_empty : 'a t -> bool
  (** Snapshot emptiness test. Only meaningful at quiescence (it is exact
      then); under concurrency it is a best-effort hint. *)

  val length : 'a t -> int
  (** Number of elements, by traversal. Quiescent use only. *)

  val to_list : 'a t -> 'a list
  (** Front-to-back contents. Quiescent use only. *)
end

(** Queues that expose internal-structure invariant checks for tests. *)
module type CHECKABLE_QUEUE = sig
  include QUEUE

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Verify the internal linked-list invariants that must hold once all
      operations have returned (e.g. [tail] points at the last node, no
      dangling node, [head] reaches [tail]). *)
end

(** Queues usable as scheduler run-queues ([Wfq_sched]): the core
    operations plus the uniform observability hookup. Every backend the
    scheduler can select (KP, fast-path/slow-path, the sharded
    front-end) satisfies this signature, so the scheduler — and any
    other client — gets the full metrics battery from any of them with
    one call. *)
module type RUN_QUEUE = sig
  include QUEUE

  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  (** Insert all elements, list head first, through the backend's native
      batch path (one descriptor/claim cycle amortized over the batch,
      docs/BATCHING.md). The batch's elements preserve FIFO order
      relative to each other; whether the whole batch is atomic (KP
      family: one linearizing CAS) or per-element (ring, shard spread)
      is the backend's documented choice. [enqueue_batch t ~tid []] is a
      no-op. Bounded backends raise their full-queue exception; the
      already-accepted prefix remains enqueued. *)

  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list
  (** Remove up to [n] elements in FIFO order; a short result means the
      queue was observed empty at the final element's linearization
      point. Each element linearizes individually (a batch dequeue is
      never an atomic multi-dequeue). Raises [Invalid_argument] for
      negative [n]. *)

  val register_metrics : 'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the queue's always-on diagnostics to [registry] under
      [prefix ^ ".<metric>"]. Uniform contract: at minimum a
      [prefix ^ ".depth"] gauge (polled at snapshot time only — may
      traverse), plus whatever counters the backend owns (path
      counters, pool stats, per-shard matrices). Registration is
      construction-path only; it must never add hot-path work. *)
end

(** The uniform backend signature (docs/BACKENDS.md; the ROADMAP north
    star's "one way to name a queue configuration"): one configured
    queue algorithm with the complete plumbing every
    client in the tree consumes — core ops, native batches, the bounded
    insert, quiescent observers, the structural audit, and the metrics
    hookup. A module satisfying [QUEUE_BACKEND] (wrapped in a {!BACKEND}
    and listed once in [Backends.all]) is picked up by [Wfq_shard], the
    scheduler's run-queue adapter, the lincheck
    and DPOR conformance batteries, and [wfq_bench] with zero
    per-backend edits anywhere outside [lib/core].

    Configuration (helping policy, capacity, fast-path budget, …) is
    baked into the module: a registry entry is one {e configured}
    algorithm, so clients never thread backend-specific arguments. *)
module type QUEUE_BACKEND = sig
  type 'a t

  val name : string

  val create :
    ?obsv:Wfq_obsv.Metrics.t * string ->
    ?pool:bool ->
    num_threads:int ->
    unit ->
    'a t
  (** [?obsv:(registry, prefix)] attaches the backend's hot-path
      instrumentation (and the {!RUN_QUEUE} [.depth] gauge contract) at
      construction. Every backend ignores [?pool]: whether a queue
      recycles nodes is part of its registered configuration
      ([Backends.fps]'s [pool] field). The parameter stays in the
      signature only because the benchmark's own backends
      ([benchmark/src]) implement it and forward it; it can go with
      the next change to the benchmark. *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  (** Unconditional insert; bounded backends raise their full-queue
      exception. *)

  val try_enqueue : 'a t -> tid:int -> 'a -> bool
  (** Bounded-aware insert: [false] iff the queue was full at the
      linearization point. Unbounded backends always return [true]. *)

  val dequeue : 'a t -> tid:int -> 'a option
  val enqueue_batch : 'a t -> tid:int -> 'a list -> unit
  val dequeue_batch : 'a t -> tid:int -> n:int -> 'a list

  (** Quiescent observers, as in {!QUEUE}. *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** Structural audit at quiescence; the conformance battery and the
      DPOR litmuses run it after every schedule. *)

  val register_metrics : 'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** {!RUN_QUEUE} metrics contract: at minimum [prefix ^ ".depth"]. *)
end

(** A registrable backend: {!QUEUE_BACKEND} behind the [ATOMIC] functor
    (so the same text runs on [Real_atomic] domains and on
    [Wfq_sim.Sim_atomic] under the model checker) plus the metadata the
    generic drivers need to treat it correctly. *)
module type BACKEND = sig
  val id : string
  (** Registry key, kebab-case ("kp-opt12", "fps-pooled", "polylog"). *)

  val label : string
  (** Display name used in benchmark legends ("opt WF (1+2)"). *)

  val family : string
  (** Algorithm family ("kp", "fps", "ring", "polylog"). *)

  val capacity : int option
  (** [Some c] for bounded backends: the conformance battery switches to
      the bounded-queue lincheck spec and uses [try_enqueue]. *)

  val sim_safe : bool
  (** Whether the backend may run under [Sim_atomic] (every shared
      mutable cell goes through the functor argument); [false] opts out
      of the DPOR/lincheck battery, keeping the real-domain suites.
      Every registered backend says [true]; the value stays because the
      benchmark's own backends ([benchmark/src]) define and read it. *)

  module Make (_ : Wfq_primitives.Atomic_intf.ATOMIC) : QUEUE_BACKEND
end

(** One live queue as a record of closures — the runtime-polymorphic
    view of a {!BACKEND} that lets heterogeneous clients ([Wfq_shard]'s
    shard array, the registry-driven test and bench drivers) hold any
    backend without a per-backend variant. Built by
    [Backends.instantiate]. *)
type 'a instance = {
  i_name : string;
  enq : tid:int -> 'a -> unit;
  try_enq : tid:int -> 'a -> bool;
  deq : tid:int -> 'a option;
  enq_batch : tid:int -> 'a list -> unit;
  deq_batch : tid:int -> n:int -> 'a list;
  size : unit -> int;
  empty : unit -> bool;
  dump : unit -> 'a list;
  check : unit -> (unit, string) result;
  metrics : Wfq_obsv.Metrics.t -> prefix:string -> unit;
}
