(** The Explore × Lincheck driver: model-check a queue implementation
    end to end — build the scenario, explore its schedules ({!Dpor} by
    default), and on every explored schedule check element conservation,
    linearizability ({!Wfq_lincheck}), and optionally a per-fiber step
    bound (wait-freedom certification). Failures arrive pre-shrunk. *)

type script =
  [ `Enq of int
  | `Try_enq of int
  | `Deq
  | `Enq_batch of int list
  | `Try_enq_batch of int list
  | `Deq_batch of int ]
  list
(** [`Try_enq] is the bounded-queue insert: it records [Done] when the
    queue accepted the element and [Rejected] when it reported full,
    and requires the queue's [try_enqueue] (and normally its
    [capacity]).

    The batch ops require the queue's corresponding [enqueue_batch] /
    [try_enqueue_batch] / [dequeue_batch]. Each expands into one
    history sub-op per element — invoked together before the batch
    runs, answered together after — so each element linearizes inside
    its interval and the checker's per-thread program-order constraint
    certifies intra-batch FIFO. [`Try_enq_batch] records [Done] for the
    accepted prefix and [Rejected] for the remainder (bounded queues
    stop at their first full observation); a short [`Deq_batch] answers
    [Empty] for its unserved suffix. The expanded element count is what
    the checker's 62-op limit bounds. *)

type 'q queue = {
  create : num_threads:int -> 'q;
  enqueue : 'q -> tid:int -> int -> unit;
  dequeue : 'q -> tid:int -> int option;
  contents : 'q -> int list;  (** quiescent snapshot, oldest first *)
  try_enqueue : ('q -> tid:int -> int -> bool) option;
  enqueue_batch : ('q -> tid:int -> int list -> unit) option;
  try_enqueue_batch : ('q -> tid:int -> int list -> int) option;
  dequeue_batch : ('q -> tid:int -> n:int -> int list) option;
  capacity : int option;
      (** bounded queues: switches the linearizability check to the
          bounded-queue specification with this capacity (conservation
          always ignores rejected enqueues) *)
  audit : ('q -> (unit, string) result) option;
      (** structural audit run after every schedule, at quiescence and
          outside the scheduler (yields ignored), once the built-in
          checks pass *)
}
(** A queue under test with every capability it has: a script op whose
    capability is [None] raises [Invalid_argument] when it runs. *)

val queue :
  create:(num_threads:int -> 'q) ->
  enqueue:('q -> tid:int -> int -> unit) ->
  dequeue:('q -> tid:int -> int option) ->
  contents:('q -> int list) ->
  ?try_enqueue:('q -> tid:int -> int -> bool) ->
  ?enqueue_batch:('q -> tid:int -> int list -> unit) ->
  ?try_enqueue_batch:('q -> tid:int -> int list -> int) ->
  ?dequeue_batch:('q -> tid:int -> n:int -> int list) ->
  ?capacity:int ->
  ?audit:('q -> (unit, string) result) ->
  unit ->
  'q queue

val backend :
  (module Wfq_core.Queue_intf.BACKEND) ->
  int Wfq_core.Queue_intf.instance queue
(** A registry entry exactly as registered, instantiated over
    {!Sim_atomic}: its batches, its bounded insert and [capacity] from
    its metadata, and its quiescent structural check as the [audit]. *)

type mode =
  | Dpor  (** one schedule per Mazurkiewicz trace; exhaustive coverage *)
  | Exhaustive  (** every interleaving — tiny scenarios only *)
  | Preemption_bounded of int
  | Pct of { count : int; change_points : int }
  | Fuzz of { seed0 : int; count : int }

type failure = {
  message : string;
  forced : int list;  (** the failing schedule, replayable as-is *)
  shrunk : Shrink.t option;
}

type report = {
  schedules : int;
  exhausted : bool;
  max_fiber_steps : int;
      (** the largest per-fiber step count seen across all explored
          schedules — the empirical wait-freedom bound for the scenario *)
  failure : failure option;
}

val make_scenario :
  queue:'q queue ->
  scripts:script list ->
  init:int list ->
  max_fiber_steps:int ref ->
  unit ->
  (unit -> unit) array * (Scheduler.result -> (unit, string) result)
(** The underlying scenario builder ([make] in {!Explore}/{!Dpor}
    terms), exposed for tests that drive an explorer directly. One fiber
    per script (fiber id = tid); [init] values are pre-enqueued outside
    the scheduled run and recorded as history of a synthetic thread. *)

val run :
  ?mode:mode ->
  ?max_schedules:int ->
  ?step_limit:int ->
  ?step_bound:int ->
  ?shrink:bool ->
  ?init:int list ->
  queue:'q queue ->
  scripts:script list ->
  unit ->
  report
(** Explore and check the scenario. [step_bound] turns on the
    wait-freedom certifier: any schedule in which some fiber exceeds the
    bound is a failure. [shrink] (default true) delta-debugs any
    failing schedule. Total operation count (scripts + init) is capped
    at 62 by the linearizability checker.

    Under [Dpor], [max_schedules] bounds total executions (complete +
    pruned); a [step_limit] hit is reported as a livelock/starvation
    failure. *)

val pp_failure : Format.formatter -> failure -> unit
(** The shrunk schedule when available, otherwise the raw message. *)

val history :
  queue:'q queue ->
  scripts:script list ->
  init:int list ->
  forced:int list ->
  Wfq_lincheck.History.completed list
(** Replay [forced] (a failure's schedule, shrunk or not) on a fresh
    {!make_scenario} scenario and return the completed history the
    checker judged, with [init] as the synthetic thread's enqueues. *)

type certificate = {
  observed_bound : int;
      (** the scenario's empirical per-fiber step bound: the largest
          per-fiber step count over every explored schedule *)
  schedules : int;
}

val certify :
  ?mode:mode ->
  ?max_schedules:int ->
  bound:int ->
  queue:'q queue ->
  scripts:script list ->
  unit ->
  (certificate, string) result
(** The per-fiber step-bound wait-freedom certifier, as a first-class
    entry point, so backends and benches can certify — the crossover
    table of [wfq_bench polylog] is built from these certificates.

    Runs {!run} with [step_bound:bound] and demands a {e complete}
    verdict: [Ok] means the exploration exhausted its schedule space
    (under [mode]'s coverage — DPOR exhausts Mazurkiewicz traces;
    [Preemption_bounded] certifies only up to its preemption budget)
    with no linearizability/conservation failure and no fiber
    exceeding [bound] steps; the certificate carries the largest count
    actually observed. [Error] reports the shrunk counterexample, or
    incompleteness if the exploration was cut off by [max_schedules]. *)
