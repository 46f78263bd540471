(** Kogan-Petrank queue with hazard-pointer memory reclamation and node
    pooling — the paper's §3.4, fully integrated.

    Functionally identical to [Kp_queue] (wait-free linearizable MPMC
    FIFO), but dequeued nodes are retired through hazard pointers and
    recycled through per-thread node pools instead of being left to the
    GC: the deployment story for non-GC runtimes, exercised here under
    OCaml so the protocol is testable (a recycled node's fields are
    mutated, so any protocol race corrupts data observably).

    It runs on the same helping engine as [Kp_queue], in the optimized
    §3.3 configuration (atomic phase counter, cyclic single-thread
    helping). Differences from the GC variant, per §3.4: the operation
    descriptor carries the dequeued {e value}, so callers never touch
    retired nodes; descriptor node references count as hazard roots;
    every traversal pointer is slot-protected and re-validated once
    (a failed re-validation ends the helping round, not a retry loop). A
    thread's pool parks at most [Segment_pool.max_parked] nodes; the GC
    takes any more. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  module Hp : module type of Wfq_hazard.Hazard.Make (A)

  type 'a t

  val name : string

  val create : ?scan_threshold:int -> num_threads:int -> unit -> 'a t
  (** [scan_threshold] overrides the hazard-pointer scan trigger (tests
      use 1-8 to force recycling pressure). *)

  val enqueue : 'a t -> tid:int -> 'a -> unit
  val dequeue : 'a t -> tid:int -> 'a option

  (** {2 Quiescent observers} *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val to_list : 'a t -> 'a list

  val check_quiescent_invariants : 'a t -> (unit, string) result
  (** [tail] reachable from [head], nothing past [tail], and no state
      slot left pending. *)

  (** {2 Reclamation introspection} *)

  val flush_reclamation : 'a t -> unit
  (** Force all deferred scans; quiescent use. *)

  val reclamation_stats : 'a t -> Hp.stats

  val pool_stats : 'a t -> int * int * int
  (** (pool reuses, fresh allocations, currently parked): the node
      pool's figures in {!Kp_queue_fps.Make.pool_stats}'s order. *)
end
