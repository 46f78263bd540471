(** Effect-based fiber scheduler over this library's wait-free queues.

    [N] workers — OCaml domains in production ({!S.run}), or arbitrary
    callers of the deterministic core ({!S.step}) under the simulator —
    each own one MPMC run-queue of fiber slices, backed by any
    {!RUN_QUEUE} (KP, fast-path/slow-path pooled, the sharded
    front-end, or the bounded ring). A worker serves its own queue
    first and, on empty,
    steals with one {!Wfq_shard.Steal_order} lap over the other
    workers' queues — the same sweep contract as the shard dequeue.

    Fibers are effect-handler coroutines: {!S.spawn} starts a new fiber
    and returns a promise, {!S.yield} requeues the current fiber behind
    its local queue, {!S.await} suspends until a promise completes
    (re-raising if the awaited fiber failed). Handlers are {e shallow}:
    every slice runs under a handler built by the worker executing it,
    so a fiber resumed by a different worker (steal, wakeup) performs
    its queue operations under the resuming domain's [tid] — the
    Kogan-Petrank thread-identity discipline — and effects the
    scheduler does not own (e.g. the simulator's yield-per-access) are
    forwarded to outer handlers, keeping the core model-checkable.

    Wait-freedom inheritance: a scheduler step adds one FAA and a few
    single-writer padded-counter stores around run-queue operations
    that are themselves wait-free, so fiber hand-off (spawn, steal,
    wakeup) is wait-free end to end; only the {e idle} worker spins —
    on the shared clamped {!Wfq_primitives.Backoff} schedule, reset the
    moment a task is found — and only while the system is genuinely
    empty of runnable tasks.

    See docs/SCHEDULER.md for the full protocol walkthrough. *)

module Steal_order = Wfq_shard.Steal_order

module type RUN_QUEUE = Wfq_core.Queue_intf.RUN_QUEUE
(** What a run-queue must provide: the {!Wfq_core.Queue_intf.QUEUE}
    operations plus the uniform [register_metrics] hookup. *)

type metrics
(** Instrumentation handle ({!Wfq_obsv}): the run-queue depth histogram
    (sampled at every push from the push/take counters) and the
    per-fiber spawn-to-completion latency histogram (recorded only when
    the scheduler also has a [?clock]). Writes are per-tid
    single-writer plain cells — no extra shared traffic, DPOR traces
    identical with or without. *)

val metrics : Wfq_obsv.Metrics.t -> prefix:string -> slots:int -> metrics
(** Create the handle and register its histograms under
    [prefix ^ ".runq_depth"] / [".fiber_latency_ns"]. [slots] must be
    the scheduler's [num_workers]. *)

(** Output signature of {!Make}. *)
module type S = sig
  type t

  type 'a promise
  (** Completion cell of one fiber: carries its value, or the exception
      that escaped its body. *)

  val name : string
  (** ["sched(<run-queue name>)"]. *)

  val create :
    ?obsv:metrics -> ?clock:(unit -> int) -> num_workers:int -> unit -> t
  (** [num_workers] fixes the worker (and run-queue) count; worker
      [tid]s are [0 .. num_workers - 1]. [clock] is a monotonic ns
      clock enabling fiber-latency recording (e.g. bechamel's
      [Monotonic_clock.now]); without it latency is not sampled.
      Raises [Invalid_argument] for [num_workers <= 0]. *)

  val num_workers : t -> int

  (** {2 Fiber context}

      These perform effects and must run inside a fiber (a computation
      started by {!run}, {!submit} or {!spawn}); outside one they raise
      [Effect.Unhandled]. *)

  val spawn : (unit -> 'a) -> 'a promise
  (** Start a new fiber on the current worker's run-queue. *)

  val spawn_many : (unit -> 'a) list -> 'a promise list
  (** Fan-out: start one fiber per body, pushing every fresh task with
      a {e single} backend-native run-queue batch
      ({!Wfq_core.Queue_intf.RUN_QUEUE.enqueue_batch}) — on the
      KP-family backends the whole fan-out linearizes at one append
      CAS. Promises are returned in body order. [spawn_many []] is
      [[]]. *)

  val yield : unit -> unit
  (** Requeue the current fiber behind its worker's local queue. *)

  val await : 'a promise -> 'a
  (** The promise's value, suspending until it completes. Re-raises the
      awaited fiber's exception if it failed. *)

  (** {2 External operations} *)

  val submit : t -> tid:int -> (unit -> 'a) -> 'a promise
  (** Enqueue a fresh fiber on worker [tid]'s run-queue from outside
      any fiber (setup code, tests). The caller must own [tid]'s slot
      for the duration of the call (quiescent setup, or the worker
      itself). *)

  val submit_batch : t -> tid:int -> (unit -> 'a) list -> 'a promise list
  (** {!submit}'s fan-out form: one run-queue batch for the whole list,
      as {!spawn_many}. Same [tid]-ownership requirement. *)

  val result : 'a promise -> ('a, exn) result option
  (** Non-blocking completion probe; [None] while the fiber runs. *)

  val run : t -> (unit -> 'a) -> 'a
  (** Execute [main] to completion: the calling domain becomes worker 0
      and [num_workers - 1] domains are spawned for the rest. Returns
      when {e every} fiber has completed, with [main]'s value (or
      re-raises its escaped exception). Do not call concurrently with
      itself or with external [submit]s. *)

  (** {2 Deterministic core}

      The worker loop decomposed for tests and the simulator: no
      domains, no spinning — the caller owns the schedule. At most one
      caller per [tid] at a time. *)

  val step : t -> tid:int -> bool
  (** Take one task (own queue, then one steal lap) and run it to its
      next suspension point. [false] iff no task was found. *)

  val drain : t -> tid:int -> int
  (** [step] until idle; the number of slices executed. Single-threaded
      completeness: with no other worker active, [drain] returning with
      {!pending_fibers}[ > 0] means some fiber is suspended on a
      promise nothing will complete — a user-level deadlock. *)

  (** {2 Probes} (racy snapshots; exact at quiescence) *)

  val pending_fibers : t -> int
  (** Fibers spawned and not yet completed (running, queued, or
      suspended). *)

  val fibers_spawned : t -> int

  val fibers_completed : t -> int

  val steal_attempts : t -> int
  (** Steal laps entered (local queue found empty). *)

  val steals_won : t -> int
  (** Tasks obtained from another worker's queue. *)

  val run_queue_depth : t -> int -> int
  (** Approximate depth of one run-queue, from the push/take counters.
      Raises [Invalid_argument] for an out-of-range index. *)

  val register_metrics : t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the always-on scheduler counters
      ([prefix ^ ".fibers_spawned"/".fibers_completed"/
      ".steal_attempts"/".steals_won"], a [".pending_fibers"] gauge)
      and, per run-queue [i], [prefix ^ ".rq<i>.pushes"/".takes"] plus
      the backend's own uniform registration under [".rq<i>"] (at
      minimum its [".depth"] gauge). *)
end

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) (Q : RUN_QUEUE) : S
(** Build a scheduler over an atomic plane and a run-queue backend.
    Instantiating [Q] over the same [A] keeps the whole system on one
    plane — mandatory for simulator runs. *)

(** {2 Run-queue backends} *)

module Rq_of
    (B : Wfq_core.Queue_intf.BACKEND)
    (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE
(** Any backend as a run-queue, in its registered default
    configuration: [Make (A) (Rq_of (B) (A))] builds a scheduler on
    backend [B] with no per-backend adapter — e.g.
    [Rq_of ((val Wfq_core.Backends.find "polylog")) (A)], or a sharded
    run-queue with [Rq_of ((val Wfq_shard.Shard.as_backend ~shards:2
    "kp-opt12")) (A)]. *)
