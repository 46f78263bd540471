(** Instrumented [ATOMIC] wrapper counting shared-memory operations —
    the executable cost model behind the paper's §3.3 discussion. Exact
    in single-domain use; each functor application owns independent
    counters. *)

type counters = {
  reads : int;
  writes : int;
  cas_success : int;
  cas_failure : int;
  exchanges : int;
  fetch_adds : int;
}

val zero : counters
val total : counters -> int
val pp : Format.formatter -> counters -> unit

(** Epoch tags: a small signed payload (>= -1) and an incarnation
    counter packed into one immediate int, so a CAS on an [int A.t] cell
    validates both atomically. This is the ABA defense for recycled
    queue nodes ([Segment_pool]): resetting a node bumps the epoch in
    its claim word, so a stalled helper's claim CAS — whose expected
    word carries the {e old} epoch — fails instead of claiming the new
    incarnation. Epoch 0 packs to the raw value, so the initial state of
    tagged and untagged cells coincides. *)
module Epoch : sig
  val bits : int
  (** Payload width; payloads must lie in [-1, 2^(bits-1) - 1]. *)

  val max_value : int

  val pack : epoch:int -> int -> int
  (** [pack ~epoch v] = [epoch lsl bits + v]. Raises [Invalid_argument]
      on an out-of-range payload. *)

  val epoch : int -> int
  (** Incarnation counter of a packed word. *)

  val value : int -> int
  (** Payload of a packed word. [value (pack ~epoch v) = v]. *)

  val with_value : int -> int -> int
  (** [with_value p v]: [p]'s epoch, payload [v]. *)
end

module Make (Base : Atomic_intf.ATOMIC) : sig
  include Atomic_intf.ATOMIC

  val reset : unit -> unit
  val snapshot : unit -> counters
end
