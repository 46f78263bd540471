(** Abstraction over atomic shared-memory cells.

    Every concurrent algorithm in this repository is written as a functor
    over {!module-type:ATOMIC} so that the exact same algorithm text runs on

    - {!Real_atomic}, a thin wrapper around [Stdlib.Atomic], for production
      use and benchmarks; and
    - [Wfq_sim.Sim_atomic], a deterministic single-threaded implementation
      that yields to a scheduler before every shared-memory access, for
      model checking, linearizability checking and stall-injection tests.

    The semantics mirror [Stdlib.Atomic] (and Java's [AtomicReference],
    which the paper's pseudocode uses): [compare_and_set] compares with
    physical equality, so CAS on freshly-allocated descriptor records
    succeeds only against the exact value previously read. *)

module type ATOMIC = sig
  type 'a t
  (** A shared memory cell holding a value of type ['a]. *)

  val make : 'a -> 'a t
  (** [make v] allocates a new cell initialized to [v]. *)

  val make_padded : 'a -> 'a t
  (** [make_padded v] is [make v] in a cell that keeps other heap
      objects off its cache line, for a cell that more than one domain
      writes on a hot path. Only the real plane pads; the others
      delegate, so no simulator step or counted access changes. *)

  type 'a embedded
  (** The type of a record field that is a cell. A record whose field
      0 is an ['a embedded] is itself a cell holding an ['a], reached
      with {!first}; an [int embedded] in any other field is reached
      with {!get_int_field}, {!set_int_field} and {!cas_int_field}. On
      the real plane the field is the value itself, so the record
      needs no cell block of its own; under the simulator it holds a
      separate cell. *)

  val embed : 'a -> 'a embedded
  (** [embed v] is the initial value of an embedded field holding [v].
      Like [make], building the record is no scheduling point and no
      counted access. *)

  val first : 'r -> 'a t
  (** [first r] is the cell in field 0 of the record [r], which must
      have been built with an ['a embedded] from {!embed} or
      {!embed_cyclic} in that field. Every read and write of the field
      goes through [first]; the field is never read as a plain record
      field. Each access through [first] is one access to one cell, as
      on a [make] cell. *)

  val embed_cyclic : ('a embedded -> 'a) -> 'a
  (** [embed_cyclic f] is the record [r = f e], where [f] puts [e] in
      [r]'s field 0, and the cell [first r] holds [r] itself: a list
      node whose [next] is the node. The store happens before the
      record can be shared, so, like [make], it is no scheduling point
      and no counted access. *)

  val get_int_field : 'r -> int -> int
  (** [get_int_field r i] atomically reads field [i] of the record [r],
      which must have been built with an [int embedded] from {!embed}
      in that field. Every read and write of such a field goes through
      these three functions; it is never read as a plain record field.
      Each access is one access to one cell, as on a [make] cell. *)

  val set_int_field : 'r -> int -> int -> unit
  (** [set_int_field r i v]: atomic write of field [i], as {!set}. *)

  val cas_int_field : 'r -> int -> int -> int -> bool
  (** [cas_int_field r i expected desired]: {!compare_and_set} on
      field [i]. *)

  val get : 'a t -> 'a
  (** Atomic read. *)

  val set : 'a t -> 'a -> unit
  (** Atomic write. *)

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set cell expected desired] atomically installs
      [desired] iff the current value is physically equal to [expected].
      Returns [true] on success. *)

  val exchange : 'a t -> 'a -> 'a
  (** [exchange cell v] atomically swaps the contents with [v] and
      returns the previous value. *)

  val fetch_and_add : int t -> int -> int
  (** [fetch_and_add cell d] atomically adds [d] to an integer cell and
      returns the previous value. *)
end
