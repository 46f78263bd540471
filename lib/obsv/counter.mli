(** Per-slot, cache-padded, {e single-writer} event counters — the one
    mechanism behind every diagnostic counter in the queue stack.

    Contract: each slot has exactly one writing domain at a time (queue
    code indexes by the executing thread's tid); slot hand-off between
    domains must synchronize through an atomic operation. Reads are
    racy snapshots: per-slot untorn, exact at writer quiescence, not a
    linearizable cut. Writers whose slot ownership is not synchronized
    must use {!Shared_counter}. *)

type t

val create : slots:int -> unit -> t
(** [slots] independent cells, each on a cache line of its own
    ({!Line.ints}).
    Raises [Invalid_argument] for [slots <= 0]. *)

val slots : t -> int

val incr : t -> slot:int -> unit
(** One plain load + store; no RMW, no fence. Caller must be the slot's
    unique current writer. *)

val add : t -> slot:int -> int -> unit
(** Like {!incr} by [n]. Negative [n] is allowed (gauge-style use). *)

val slot_value : t -> slot:int -> int
(** Racy read of one slot. *)

val slot_word : t -> slot:int -> Obj.t * int
(** The block and field index of one slot, for tests of where it lands
    in the heap. *)

val snapshot : t -> int array
(** Racy per-slot snapshot (index = slot). *)

val total : t -> int
(** Racy sum over all slots; exact once writers are quiescent. *)
