(** Counterexample shrinking: delta-debug a failing scheduler decision
    trace (as reported by {!Explore} or {!Dpor}) down to a minimal
    forced replay, relying on {!Scheduler.run}[ ~forced] replay
    determinism. *)

type step = {
  s_index : int;  (** decision number within the run *)
  s_fiber : int;  (** fiber id resumed at this decision *)
  s_access : Scheduler.access option;
      (** the shared access the slice performed *)
}

type t = {
  forced : int list;  (** the minimal failing replay prefix *)
  message : string;  (** failure message of the shrunk schedule *)
  attempts : int;  (** candidate replays evaluated while shrinking *)
  original_length : int;  (** length of the trace before shrinking *)
  steps : step list;
      (** every decision of the shrunk run, for pretty-printing; the
          first [List.length forced] are the forced ones *)
}

val shrink :
  ?step_limit:int ->
  make:
    (unit ->
    (unit -> unit) array * (Scheduler.result -> (unit, string) result)) ->
  forced:int list ->
  unit ->
  t
(** Shrink the failing schedule [forced] against fresh executions from
    [make] (same contract as {!Explore}): drop trailing default choices,
    remove slices ddmin-style, then zero out remaining entries.
    Candidates are capped at 5000 replays;
    shrinking degrades gracefully when the cap bites. Any failure
    message is accepted as "still failing" — the shrunk schedule's
    message may differ from the original's (e.g. a livelock shrinking
    into a cleaner invariant violation).

    @raise Invalid_argument if [forced] does not fail to begin with. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print the minimal schedule: one line per forced decision
    (fiber id and its shared access), the count of deterministic steps
    that follow, and the failure message. Locations are numbered in the
    order they first appear in the printed trace ([#0], [#1], ...), not
    by {!Sim_atomic.loc_id}, so the text does not depend on the cells
    made earlier in the process. *)
