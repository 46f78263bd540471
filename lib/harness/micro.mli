(** Single-thread micro-benchmarks ([wfq_bench micro]): the Bechamel
    groups [fig7-pairs], [fig8-50pc-enq], [fig9-optimizations] and
    [fig10-enqueue-alloc] (ns and minor words per operation), then the
    counted-atomics table (reads/writes/CAS per uncontended operation,
    the cost model behind Figure 9). *)

val run : unit -> unit
