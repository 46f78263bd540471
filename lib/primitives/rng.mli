(** SplitMix64 pseudo-random number generator.

    Deterministic per seed and unshared — each benchmark thread owns a
    private generator, so random workloads (the paper's "50% enqueues")
    need no synchronization and replay exactly. *)

type t

val create : seed:int -> t
(** A fresh generator; equal seeds give equal streams. *)

val split_for : seed:int -> tid:int -> t
(** Derive an independent per-thread stream from a run seed. *)

val next_int64 : t -> int64
(** Next 64 bits of the stream. *)

val below : t -> int -> int
(** [below t n] is uniform-ish in [0, n). Raises [Invalid_argument] when
    [n <= 0]. *)

val bool : t -> bool
(** A fair coin — the paper's per-iteration enqueue/dequeue choice. *)

val float : t -> float
(** Uniform in [0, 1). *)
