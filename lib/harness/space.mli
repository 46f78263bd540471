(** Live-space measurement for Figure 10. The static footprint counts
    the words reachable from a built queue; the sampled one, the OCaml
    equivalent of the paper's [-verbose:gc], is [Gc.full_major]
    followed by [Gc.stat ()].live_words. *)

val live_words : unit -> int
(** Live heap words after a full major collection. *)

val footprint : Impls.impl -> size:int -> int
(** Heap words attributable to a queue holding [size] elements: the
    words reachable from it ([Obj.reachable_words]), which on a
    single-domain heap matches live words after building it minus live
    words before, without the collector's noise. *)

val footprint_active : Impls.impl -> size:int -> iters:int -> samples:int -> int
(** Like {!footprint} but averaged over samples taken while an
    enqueue-dequeue workload runs over the filled queue — closer to the
    paper's mid-benchmark sampling. *)

type alloc_profile = {
  words_per_op : float;  (** minor-heap words allocated per operation *)
  promoted_per_op : float;  (** of those, words promoted to the major heap *)
  minor_collections : int;
  major_collections : int;
  total_ops : int;
}
(** Allocation {e rate} (heap churn per operation), complementing the
    live-space {e footprint} above. *)

val profile_of_result : Workload.run_result -> alloc_profile
(** Derive the profile from any workload's result. *)

val alloc_profile : Impls.impl -> threads:int -> iters:int -> alloc_profile
(** {!profile_of_result} over one run of the enqueue-dequeue-pairs
    workload (conservation-checked, as always). *)
