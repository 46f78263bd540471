(** Named-metric registry: create-or-attach metrics under unique names,
    snapshot them as JSON or a human report. Registration is
    mutex-guarded (construction paths only); reads are racy aggregate
    snapshots that never block writers and perform no shared-cell
    traffic visible to the model checker. *)

type metric =
  | Counter of Counter.t
  | Shared of Shared_counter.t
  | Histogram of Histogram.t
  | Gauge of (unit -> int)  (** polled on every snapshot *)

type t

val create : unit -> t

val register : t -> string -> metric -> unit
(** Attach an existing metric under [name]. Raises [Invalid_argument]
    on a duplicate name. *)

val counter : t -> name:string -> slots:int -> Counter.t
(** Create and register in one step; same for the three below. *)

val shared_counter : t -> name:string -> slots:int -> Shared_counter.t
val histogram : t -> name:string -> slots:int -> Histogram.t
val gauge : t -> name:string -> (unit -> int) -> unit

val entries : t -> (string * metric) list
(** Registration order. *)

val find : t -> string -> metric option

val value : t -> string -> int option
(** Scalar snapshot: counter total, gauge poll, histogram count. *)

val histogram_summary : t -> string -> Histogram.summary option

val to_json : t -> string
(** [{"metrics": [{"name", "type", ...}, ...]}] — counters carry
    [total] + per-slot [slots], histograms [count]/[p50]/[p99]/[max] +
    non-empty [buckets] as [[lower_bound, count]] pairs, gauges
    [value]. *)

val dump : t -> out_channel -> unit
(** One line per metric, aligned (the human [debug_dump] analogue). *)
