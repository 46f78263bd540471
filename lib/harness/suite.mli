(** Benchmark suites as data ([wfq_bench]'s subcommands and the
    [BENCH_*.json] files they write). A suite is its output file, its
    title, its parts and its guards:

    - a {e sweep} part runs a workload over a list of {!Impls} rows at
      each thread count, interleaving the rows' repetitions, and
      projects the per-row medians (seconds, minor GCs, words/op, ...)
      into series labelled [<prefix>-<projection>:<row>];
    - a {e custom} part computes its series directly (fig. 10's space
      ratio, polylog's certified step table, sched, open-loop, stats).

    Every file is [{"title", "meta", "series": [{"label", "points":
    [[x, y], ...]}]}], plus [metrics] in [BENCH_stats.json]. {!validate}
    checks a file's shape against its suite and {!guard} its numbers;
    [wfq_bench check] runs both. *)

type scale = {
  threads : int list;  (** x axis of the sweeps *)
  iters : int;  (** iterations per thread *)
  runs : int;  (** repetitions per point (median) *)
  sizes : int list;  (** x axis of fig. 10 (initial queue size) *)
  batch : int option;  (** batch size of the batch parts; [None] skips them *)
}

val quick : scale
(** Container-friendly default preserving the paper's shapes. *)

val paper : scale
(** The paper's parameters: 1..16 threads, 1M iterations, 10 runs,
    queue sizes 10^0..10^7. *)

type bench = {
  series : Report.series list;
  meta : (string * string) list;
  members : (string * Wfq_benchmark.Json.t) list;
      (** top-level members besides title, meta and series *)
}
(** The contents of one [BENCH_*.json] file. *)

type part

type t = {
  name : string;  (** the [wfq_bench] subcommand *)
  doc : string;
  file : string option;  (** written by [--json] *)
  title : string;
  threads : int list option;
      (** thread axis when neither [--threads] nor [--paper] is given
          (default: {!quick}'s) *)
  info : (string * string) list;  (** fixed meta entries *)
  parts : part list;
  guards : (bench -> string list) list;
}

val takes_batch : t -> bool
(** Whether the suite has a batch part ([--batch K]). *)

val table : t list
(** The scale-driven suites, one per subcommand: fig7, fig8, fig9,
    fig10, figures, shard, fps, alloc, ring and polylog. *)

val sched : Sched_bench.scale -> t
(** The scheduler service scenario, [BENCH_sched.json]. *)

val open_loop :
  config:Open_loop.config ->
  rates:float list ->
  knee_mult:float ->
  (module Wfq_core.Queue_intf.BACKEND) list ->
  t
(** The open-loop sweep over [rates] (events/s; [config.rate] is
    ignored), [BENCH_latency_openloop.json]. Its meta's [knee] entry
    records each backend's saturation knee, the first load whose
    sojourn p99 exceeds [knee_mult] x the lowest load's. *)

val stats : threads:int -> iters:int -> runs:int -> t
(** The observability snapshot, [BENCH_stats.json]: the overhead
    rows as [overhead_ratio:<queue>], [disabled_ns_per_op:<queue>] and
    [enabled_ns_per_op:<queue>], the budget as meta, and the metric
    registry as the [metrics] member. *)

val run : ?csv:bool -> ?json:bool -> scale -> t -> bench
(** Run every part, print its tables (and CSV blocks with [csv]), and
    with [json] write the suite's file. A note goes to stderr when the
    minor heap is below the canonical 8M words
    ([OCAMLRUNPARAM='s=8M']); the meta records the actual size. *)

val labels : t -> (string * string) list -> string list
(** The suite's series labels, given the meta of a file it wrote: its
    rows under each projection (the batch parts' only when the meta
    records a batch size, the open-loop backends as the meta's knee
    entries list them). *)

val find : string -> t option
(** The suite that writes the file with this base name. *)

val of_json : Wfq_benchmark.Json.t -> bench
(** Read a [BENCH_*.json] document; raises
    [Wfq_benchmark.Json.Parse_error] if it is not one. *)

val validate : t -> bench -> string list
(** Shape violations: the labels must be the suite's rows (batch parts
    only when the meta records a batch size), no series may be empty or
    repeated, and each series' x axis must be its part's axis as
    recorded in the meta ([threads], [sizes], [domains], [rates]) or
    fixed by the part. *)

val guard : t -> bench -> string list
(** The suite's guards on a valid file, one message per violation. *)

val check : string -> string list
(** {!validate}, then {!guard}, on the file at a path, chosen by its
    base name among every suite's file. [[]] means it passes. *)
