(** End-to-end service benchmark for the fiber scheduler (Wfq_sched):
    request fan-out with mixed CPU work and queue hops, swept over
    run-queue backends and domain counts. The [wfq_bench sched]
    subcommand's engine; emits the BENCH_sched.json series. *)

type scale = {
  domains : int list;  (** worker counts swept, e.g. [[1; 2; 4]] *)
  requests : int;  (** request fibers per run *)
  fanout : int;  (** subfibers spawned (and awaited) per request *)
  work : int;  (** CPU-burn loop iterations per stage *)
  runs : int;  (** repetitions; every reported field is their median *)
}

val default : scale
(** [{domains = [1; 2; 4]; requests = 200; fanout = 8; work = 400;
    runs = 3}] *)

type line = {
  backend : string;
  domains : int;
  requests : int;
  fanout : int;
  fibers : int;  (** fibers spawned per run: 1 + requests * (1 + fanout) *)
  seconds : float;
  throughput : float;  (** requests per second *)
  fiber_p50_ns : float;  (** spawn-to-completion, scheduler histogram *)
  fiber_p99_ns : float;
  steal_attempts : int;
  steals_won : int;
}

val backends : (string * (module Wfq_sched.Sched.S)) list
(** The swept backends: [kp_opt12], [fps_pooled], [shard_rr2], [ring]
    — each the scheduler functor over that run-queue on real
    atomics. *)

val service : scale:scale -> unit -> line list
(** Run the scenario for every (backend, domain-count) pair of
    {!backends} and [scale.domains]. Each run
    verifies the fan-out answer and fiber conservation before
    reporting, so a wrong result fails loudly rather than producing a
    fast number. *)

val series : line list -> Report.series list
(** Benchmark series keyed ["<field>:<backend>"] with domain count on
    the x axis: [throughput] (requests/s), [fiber_p50_ns],
    [fiber_p99_ns], [steals] (tasks stolen), [steal_attempts] (idle
    sweeps entered — the idle-backoff study's series). *)
