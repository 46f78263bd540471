(** Coarse-grained baseline: [Stdlib.Queue] under a single mutex. The
    simplest correct concurrent queue; the tests use it as the reference
    implementation in differential tests and as a sanity baseline. *)

include Wfq_core.Queue_intf.QUEUE
