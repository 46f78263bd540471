(** The steal-on-empty visiting order shared by the {!Shard} dequeue
    sweep and the [Wfq_sched] work-stealing take.

    A sweep over [n] queues starting at [start] visits
    [start, start+1, ..., n-1, 0, ..., start-1]: every queue exactly
    once, neighbours first, so a stolen element comes from the closest
    non-empty victim in ring order. Keeping the order in one place pins
    it as a contract — the shard front-end's never-false-empty argument
    and the scheduler's steal fairness both assume a full single lap. *)

val visit : n:int -> start:int -> int -> int
(** [visit ~n ~start i] is the queue index visited at position [i]
    (0-based, [0 <= i < n]) of the sweep: [(start + i) mod n] computed
    with a single conditional subtraction (no division on the hot
    path). Raises [Invalid_argument] if [n <= 0], [start] is outside
    [0, n), or [i] is outside [0, n). *)

val order : n:int -> start:int -> int list
(** The whole lap as a list, [visit] at every position — for tests and
    diagnostics, not hot paths. *)
