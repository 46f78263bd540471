(** Live-space measurement for Figure 10: the words reachable from a
    built queue. *)

val footprint : Impls.impl -> size:int -> int
(** Heap words attributable to a queue holding [size] elements: the
    words reachable from it ([Obj.reachable_words]), which on a
    single-domain heap matches live words after building it minus live
    words before, without the collector's noise. *)

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
