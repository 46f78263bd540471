(** Systematic exploration of thread interleavings (stateless model
    checking in the style of CHESS): re-execute the program once per
    schedule, enumerating schedules by depth-first backtracking over the
    recorded scheduling decisions. *)

type report = {
  schedules : int;  (** number of complete schedules executed *)
  exhausted : bool;  (** false when [max_schedules] stopped the search *)
  failure : (int list * string) option;
      (** first failing schedule (as a [Scheduler.run ~forced] replay
          prefix) and its message *)
}

type mode = Exhaustive | Preemption_bounded of int

val exhaustive :
  ?max_schedules:int ->
  ?step_limit:int ->
  make:
    (unit ->
    (unit -> unit) array
    * (Scheduler.result -> (unit, string) result)) ->
  unit ->
  report
(** Every interleaving. Exponential in the total number of shared
    accesses — for tiny programs only (e.g. two fibers racing on a
    counter). [make] is called once per schedule and must return fresh
    state: the fiber vector and a post-run check. *)

val preemption_bounded :
  budget:int ->
  ?max_schedules:int ->
  ?step_limit:int ->
  make:
    (unit ->
    (unit -> unit) array
    * (Scheduler.result -> (unit, string) result)) ->
  unit ->
  report
(** Every schedule with at most [budget] preemptions (switches away from
    a fiber that could have continued; switching at completion points is
    free). Polynomial for fixed budget, and in practice almost all
    interleaving bugs manifest within 2-3 preemptions (Musuvathi &
    Qadeer) — this is what makes model-checking the long Kogan-Petrank
    operations tractable. *)

val pct :
  ?seed0:int ->
  ?count:int ->
  ?change_points:int ->
  ?expected_length:int ->
  ?step_limit:int ->
  make:
    (unit ->
    (unit -> unit) array
    * (Scheduler.result -> (unit, string) result)) ->
  unit ->
  report
(** PCT fuzzing ({!Scheduler.Pct}): [count] priority-based runs with
    [change_points] priority-drop points each, targeting bugs of
    preemption depth [change_points + 1] with a provable per-run hit
    probability. [expected_length] defaults to a calibration run's step
    count. *)

val fuzz :
  ?seed0:int ->
  ?count:int ->
  ?step_limit:int ->
  make:
    (unit ->
    (unit -> unit) array
    * (Scheduler.result -> (unit, string) result)) ->
  unit ->
  report
(** [count] seeded-random schedules, each checked like the systematic
    modes. For configurations too large to enumerate. *)
