(** Michael & Scott's lock-free queue (PODC 1996) — the baseline the
    paper compares against ("LF" in its figures).

    Linearizable MPMC FIFO; lock-free but not wait-free: an individual
    thread's CAS can lose arbitrarily often while the system as a whole
    makes progress (demonstrated by a simulator test). [tid] is
    ignored. Nodes are left to the GC, as in the paper. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) :
  Queue_intf.CHECKABLE_QUEUE
