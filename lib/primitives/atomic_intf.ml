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

  val make_cyclic : ('a t -> 'a) -> 'a
  (** [make_cyclic f] allocates a cell [c], stores [v = f c] in it and
      returns [v]: a value holding a cell that holds the value, such as
      a list node whose [next] is the node itself. The store happens
      before the cell can be shared, so, like [make], it is no
      scheduling point and no counted access. *)

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
