(** Atomic cells wrapped in records padded past one cache line.

    Per-thread slots allocated back-to-back (like the entries of the
    paper's [state] array) can false-share a cache line. A [Padded.t] is
    a record of nine words (72 bytes): the pointer to its atomic cell
    plus seven filler words. What that guarantees is narrow: two
    {e records} never share a 64-byte line. The atomic cell itself is a
    separate two-word block, and the padding does not control where it
    lives. While the cells are young they sit next to their records, so
    consecutively made cells are about 88 bytes apart. Once a major
    collection has promoted them, the major heap packs two-word blocks
    together: four cells made in a row were measured 16 bytes apart
    after [Gc.full_major ()], next to two other atomics made just
    before them. Long-lived cells are therefore {e not} kept off each
    other's lines. Doing that needs a padded allocation of the cell
    itself, which [ATOMIC] does not offer. *)

type 'a t

val make : 'a -> 'a t
val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val compare_and_set : 'a t -> 'a -> 'a -> bool
val fetch_and_add : int t -> int -> int

(** Padded cells over an arbitrary {!Atomic_intf.ATOMIC} implementation,
    satisfying [ATOMIC] itself — the form the queue functors use to pad
    their per-thread descriptor arrays on whatever atomic plane (real,
    counted, simulated) they were instantiated with. *)
module Make (A : Atomic_intf.ATOMIC) : Atomic_intf.ATOMIC
