(* The benchmark's single table: queue configurations, workloads and
   metrics. BENCHMARK.json and the [describe --table] text are generated
   from it, the runner prints exactly these names, and [compare] takes
   its bounds from here, so none of them can drift from the others. *)

module Queue_intf = Wfq_core.Queue_intf

(* --- configurations ------------------------------------------------- *)

(* The sharded front-end as a registry-shaped backend, so every
   configuration reaches the pairs loops through [Backends.instantiate]
   and the scheduler through [Sched.Rq_of]: two round-robin shards over
   the registered paper queue. *)
module Shard_rr2 : Queue_intf.BACKEND = struct
  let id = "shard-rr2"
  let label = "2 round-robin shards over kp-opt12"
  let family = "shard"
  let capacity = None
  let sim_safe = true

  module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
    module S = Wfq_shard.Shard.Make (A)
    include S

    let create ?obsv ?pool:_ ~num_threads () =
      let q =
        S.create ~policy:Wfq_shard.Shard.Round_robin
          ~backend:(Wfq_shard.Shard.Registered "kp-opt12") ~shards:2
          ~num_threads ()
      in
      Option.iter (fun (r, p) -> S.register_metrics q r ~prefix:p) obsv;
      q

    let try_enqueue t ~tid v =
      S.enqueue t ~tid v;
      true
  end
end

type config = {
  id : string;
  backend : (module Queue_intf.BACKEND);
  strict : bool;
      (** linearizable FIFO: per-producer order is checked *)
  about : string;
}

let registered id about =
  { id; backend = Wfq_core.Backends.find id; strict = true; about }

let configs =
  [
    registered "kp-opt12" "the paper's queue, opt (1+2)";
    registered "fps-pooled" "fast-path/slow-path queue with segment pools";
    registered "ring" "bounded wait-free ring, 1024 slots";
    {
      id = "shard-rr2";
      backend = (module Shard_rr2);
      strict = false;
      about = "Wfq_shard, 2 round-robin shards over Registered \"kp-opt12\"";
    };
  ]

let config_ids = List.map (fun c -> c.id) configs

let find_config id =
  match List.find_opt (fun c -> c.id = id) configs with
  | Some c -> c
  | None -> invalid_arg ("unknown configuration " ^ id)

(* --- run shape ------------------------------------------------------ *)

let domains = 2
let backlog = 1_000_000
let handoff_rate = 100_000
let fanout_min = 4
let fanout_max = 12

(* One run of a workload measures [run_seconds] in all, split evenly
   over [rounds] x configurations cells. Each cell is a fresh process
   that sets up, warms up for [warmup_s] and measures; the rounds cycle
   through the configurations, so a slow spell of the host lands on
   every configuration instead of on all rounds of one, and each metric
   is the median over a configuration's rounds. Four rounds keep a run
   of backlog, each of whose rounds prefills a million elements and
   drains them, under 30 s; six or twelve rounds did not narrow the
   ten-run spreads of the gated metrics, which follow the host's speed
   as it drifts over minutes, longer than a run. *)
let run_seconds = 12
let rounds = 4
let warmup_s = 0.2

(* --- workloads ------------------------------------------------------ *)

type workload = { name : string; loop : string; load : string; why : string }

let workloads =
  [
    {
      name = "pairs";
      loop = "closed";
      load = "2 domains x (enqueue; dequeue) on an empty queue";
      why =
        "Fig. 7: both domains collide on one head and tail, so helping, CAS \
         retries and hot pool reuse do the most work";
    };
    {
      name = "backlog";
      loop = "closed";
      load =
        "the pairs loop on a queue prefilled with 1,000,000 elements (the \
         ring: its capacity less 4)";
      why =
        "Figs. 8/10: head and tail far apart, so helping idles; nodes live \
         through 1M ops, get promoted and come back from the pool cold";
    };
    {
      name = "handoff";
      loop = "open";
      load =
        "1 producer domain -> 1 consumer domain, seeded Poisson arrivals at \
         100,000 events/s";
      why =
        "each domain touches one end of an almost always empty queue; \
         latency is timed from the intended send time";
    };
    {
      name = "fanout";
      loop = "closed";
      load =
        "Sched on 2 workers, 1 client fiber; a request burns CPU, \
         spawn_many's 4-12 yielding subfibers, awaits them, burns CPU";
      why =
        "the only workload on the scheduler: every request's subfibers \
         cross the run-queues and the steal path between the two workers";
    };
  ]

let workload_names = List.map (fun w -> w.name) workloads

(* --- metrics -------------------------------------------------------- *)

type better = Higher | Lower

type metric = {
  name : string;  (** [base.config], or [base] for a whole-workload metric *)
  base : string;  (** the name a round reports the value under *)
  config : string option;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end only *)
  layer : string;
  only : string option;
      (** the one workload a per-layer metric exists on; [None]: all *)
  meaning : string;
  moves : string;  (** the end-to-end metric it should move, and where *)
}

let better_string = function Higher -> "higher" | Lower -> "lower"

(* Regression bound of each gated metric, as a share of the parent's
   median: three times the widest interquartile spread of ten runs on
   any workload, rounded up to 5%, and at most 0.25, the most
   BENCHMARK.json allows. On the 2-vCPU host of results/, the sets of
   ten runs made while this benchmark took shape spread by up to 11%
   (latencies) and 7% (kp-opt12's and shard-rr2's heaps), so those get
   the cap, as does [setup_s], which must have the widest bound. The
   ring's heap spread by at most 4%. *)
let bound base config =
  match (base, config) with
  | "peak_heap_mb", "ring" -> 0.15
  | ("latency_p50_us" | "peak_heap_mb" | "setup_s"), _ -> 0.25
  | _ -> invalid_arg base

(* (base, unit, better, meaning). Every run of a workload reports every
   end-to-end metric, so each must mean something on every workload: a
   per-configuration throughput would be the offered rate on handoff,
   and on the three closed loops, each with one client per domain, it
   is the inverse of the latency. The latency is the one timing kept. *)
let e2e_bases =
  [
    ( "latency_p50_us",
      "us",
      Lower,
      "median completion time of the workload's unit of work: an \
       enqueue-dequeue pair (pairs, backlog), an event from its intended send \
       time to its dequeue (handoff), a request (fanout)" );
    ("peak_heap_mb", "MB", Lower, "Gc top_heap_words of a round's process, in MB");
  ]

(* End-to-end metrics too unsteady on the host of results/ to be gated,
   with the reason. They are reported with the per-layer metrics, from
   the untraced rounds, as [ungated.<base>.<config>]. *)
let ungated =
  [
    ( "peak_heap_mb",
      "fps-pooled",
      "not gated: a domain descheduled in the middle of an operation holds \
       back the segment pools' reuse, so on pairs a round's heap ranged over \
       3.7-12 MB; its ten-run spread reached 29-48%" );
  ]

let gated_configs base =
  List.filter
    (fun c -> not (List.exists (fun (b, c', _) -> b = base && c' = c) ungated))
    config_ids

let e2e_metric (base, unit, better, meaning) ~name ~config ~bound ~moves =
  {
    name;
    base;
    config;
    unit;
    better;
    bound;
    layer = "end-to-end";
    only = None;
    meaning;
    moves;
  }

let end_to_end =
  List.concat_map
    (fun ((base, _, _, _) as b) ->
      List.map
        (fun c ->
          e2e_metric b ~name:(base ^ "." ^ c) ~config:(Some c)
            ~bound:(Some (bound base c)) ~moves:"")
        (gated_configs base))
    e2e_bases
  @ [
      e2e_metric
        ( "setup_s",
          "s",
          Lower,
          "sum over configurations of the median time of the layers' set-up \
           calls: creating the queue (on fanout, the scheduler) and, on \
           backlog, prefilling it; domain spawns are left out" )
        ~name:"setup_s" ~config:None ~bound:(Some (bound "setup_s" "")) ~moves:"";
    ]

let ungated_metrics =
  List.map
    (fun (base, c, why) ->
      let b = List.find (fun (b, _, _, _) -> b = base) e2e_bases in
      e2e_metric b ~name:("ungated." ^ base ^ "." ^ c) ~config:(Some c) ~bound:None
        ~moves:why)
    ungated

(* (base, unit, better, layer, configurations, only, meaning, moves) *)
let layer_bases =
  let lat = "latency_p50_us" in
  [
    ("core.enq_ns_p50", "ns", Lower, "core", config_ids, None,
     "median enqueue call (fanout: run-queue pushes)",
     lat ^ " on pairs, backlog and handoff");
    ("core.enq_ns_p99", "ns", Lower, "core", config_ids, None,
     "p99 enqueue call", lat ^ " on pairs and backlog");
    ("core.deq_ns_p50", "ns", Lower, "core", config_ids, None,
     "median dequeue call that returned an element (fanout: run-queue takes)",
     lat ^ " on pairs, backlog and handoff");
    ("core.deq_ns_p99", "ns", Lower, "core", config_ids, None,
     "p99 dequeue call that returned an element", lat ^ " on pairs and backlog");
    ("core.busy_frac", "ratio", Lower, "core", config_ids, None,
     "share of domain time spent inside queue calls", lat ^ " on pairs and backlog");
    ("core.deq_empty_frac", "ratio", Lower, "core", config_ids, None,
     "share of dequeue calls that found the queue empty",
     "nothing on handoff, where the consumer polls");
    ("core.enq_refused_frac", "ratio", Lower, "core", [ "ring" ], None,
     "share of try_enq calls refused by a full queue (then retried)",
     lat ^ ".ring on backlog");
    ("help.slow_frac", "ratio", Lower, "helping", [ "fps-pooled"; "ring" ], None,
     "slow-path entries per queue op", lat ^ " on pairs; unchanged on backlog");
    ("help.help_events_per_op", "ratio", Lower, "helping", [ "kp-opt12"; "ring" ],
     None, "peer-help dispatches per queue op",
     lat ^ " on pairs; unchanged on backlog");
    ("help.cas_fail_per_op", "ratio", Lower, "helping",
     [ "kp-opt12"; "fps-pooled"; "ring" ], None,
     "lost descriptor CASes (kp), contended fast rounds (fps), fast retries \
      (ring) per queue op",
     lat ^ " on pairs; unchanged on backlog");
    ("pool.node_hit_frac", "ratio", Higher, "segment pool", [ "fps-pooled" ], None,
     "node allocations served from the pool",
     lat ^ ".fps-pooled on backlog (and ungated.peak_heap_mb.fps-pooled)");
    ("pool.desc_hit_frac", "ratio", Higher, "segment pool", [ "fps-pooled" ], None,
     "descriptor allocations served from the pool",
     lat ^ ".fps-pooled on backlog (and ungated.peak_heap_mb.fps-pooled)");
    ("shard.steal_frac", "ratio", Lower, "shard", [ "shard-rr2" ], None,
     "dequeues served after the start shard was empty",
     lat ^ ".shard-rr2 on pairs and backlog");
    ("shard.empty_sweep_frac", "ratio", Lower, "shard", [ "shard-rr2" ], None,
     "dequeues that swept every shard and found none",
     lat ^ ".shard-rr2 on pairs and backlog");
    ("shard.imbalance", "ratio", Lower, "shard", [ "shard-rr2" ], None,
     "largest shard's enqueues over the mean, minus 1",
     "peak_heap_mb.shard-rr2 on backlog");
    ("sched.steal_win_frac", "ratio", Higher, "scheduler", config_ids, None,
     "steal sweeps that found a task (fanout; 0 elsewhere)", lat ^ " on fanout");
    ("sched.offmain_frac", "ratio", Higher, "scheduler", config_ids, None,
     "share of subfibers run on the second worker (fanout; 0 elsewhere)",
     lat ^ " on fanout");
    ("sched.await_frac", "ratio", Lower, "scheduler", config_ids, None,
     "share of request time spent awaiting subfibers (fanout; 0 elsewhere)",
     lat ^ " on fanout");
    ("gc.minor_words_per_op", "words", Lower, "OCaml GC", config_ids, None,
     "minor-heap words allocated per op (op: queue call, event or request)",
     lat ^ " and peak_heap_mb on backlog; " ^ lat ^ " on fanout");
    ("gc.promoted_words_per_op", "words", Lower, "OCaml GC", config_ids, None,
     "words promoted to the major heap per op", lat ^ " and peak_heap_mb on backlog");
    ("gc.minor_per_s", "1/s", Lower, "OCaml GC", config_ids, None,
     "stop-the-world minor collections per second", lat ^ " on pairs and fanout");
    ("gc.major_collections", "count", Lower, "OCaml GC", config_ids, None,
     "major cycles completed in the measured window",
     lat ^ " and peak_heap_mb on backlog");
    ("gen.late_frac", "ratio", Lower, "generator", config_ids, None,
     "share of sends more than 10 us behind the intended time (handoff; 0 \
      elsewhere)",
     "nothing: the error bar on " ^ lat ^ " for handoff");
    ("gen.solo_frac", "ratio", Lower, "generator", config_ids, None,
     "share of 1 ms batches of pairs whose samples were dropped because the \
      other domain completed no pair meanwhile (pairs, backlog; 0 elsewhere)",
     "nothing: the error bar on " ^ lat ^ " for pairs and backlog");
    ("tail.p99_us", "us", Lower, "end-to-end tail", config_ids, None,
     "p99 of the " ^ lat ^ " samples (untraced run)", "nothing yet: set by host steal");
    ("tail.p999_us", "us", Lower, "end-to-end tail", config_ids, None,
     "p99.9 of the " ^ lat ^ " samples (untraced run)", "nothing yet");
    ("tail.over_100us_frac", "ratio", Lower, "end-to-end tail", config_ids, None,
     "share of " ^ lat ^ " samples above 100 us (untraced run)", "nothing yet");
    (* Times that exist on one workload only. They are printed and kept
       in results.json, but are not in BENCHMARK.json, whose per-layer
       metrics every run reports. *)
    ("gen.lag_p50_us", "us", Lower, "generator", config_ids, Some "handoff",
     "median send lag behind the intended time",
     "nothing: the error bar on " ^ lat ^ " for handoff");
    ("gen.lag_p99_us", "us", Lower, "generator", config_ids, Some "handoff",
     "p99 send lag behind the intended time", "nothing");
    ("sched.spawn_ns_p50", "ns", Lower, "scheduler", config_ids, Some "fanout",
     "median spawn_many call", lat ^ " on fanout");
    ("sched.await_us_p50", "us", Lower, "scheduler", config_ids, Some "fanout",
     "median time a request waits for its subfibers", lat ^ " on fanout");
    ("sched.yield_ns_p50", "ns", Lower, "scheduler", config_ids, Some "fanout",
     "median yield, from suspension to resumption", lat ^ " on fanout");
  ]

let overhead =
  {
    name = "trace.overhead_frac";
    base = "trace.overhead_frac";
    config = None;
    unit = "ratio";
    better = Lower;
    bound = None;
    layer = "tracing";
    only = None;
    meaning =
      "mean over configurations of the traced rounds' latency_p50_us over \
       the untraced rounds', minus 1";
    moves = "nothing";
  }

let per_layer =
  ungated_metrics
  @ List.concat_map
    (fun (base, unit, better, layer, cs, only, meaning, moves) ->
      List.map
        (fun c ->
          {
            name = base ^ "." ^ c;
            base;
            config = Some c;
            unit;
            better;
            bound = None;
            layer;
            only;
            meaning;
            moves;
          })
        cs)
    layer_bases
  @ [ overhead ]

(* The per-layer metrics every traced run reports. *)
let per_layer_common = List.filter (fun m -> m.only = None) per_layer

(* Whether a metric is taken from the untraced rounds: the end-to-end
   ones, gated or not, and those of layers the tracing itself would
   disturb. *)
let untraced m =
  List.mem m.layer [ "end-to-end"; "OCaml GC"; "generator"; "end-to-end tail" ]

let applies workload m =
  match m.only with None -> true | Some w -> w = workload

let find_metric name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

(* --- BENCHMARK.json and the human table ----------------------------- *)

let benchmark_json () =
  let open Json in
  let metric m =
    Obj
      ([
         ("name", Str m.name);
         ("unit", Str m.unit);
         ("better", Str (better_string m.better));
       ]
      @ match m.bound with Some b -> [ ("bound", Num b) ] | None -> [])
  in
  Obj
    [
      ("command", Arr [ Str "sh"; Str "benchmark/run.sh" ]);
      ("paths", Arr [ Str "benchmark" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr
          (List.map
             (fun (w : workload) -> Obj [ ("name", Str w.name); ("why", Str w.why) ])
             workloads) );
      ("end_to_end", Arr (List.map metric end_to_end));
      ("per_layer", Arr (List.map metric per_layer_common));
    ]

let table () =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "Configurations (the .<config> suffix):\n\n";
  List.iter (fun c -> p "- `%s`: %s\n" c.id c.about) configs;
  p "\nWorkloads (every one runs every configuration):\n\n";
  p "| name | loop | load | why |\n|---|---|---|---|\n";
  List.iter
    (fun (w : workload) -> p "| `%s` | %s | %s | %s |\n" w.name w.loop w.load w.why)
    workloads;
  p "\nEnd-to-end metrics (gated; untraced run):\n\n";
  p "| metric | configs | unit | better | bound | meaning |\n";
  p "|---|---|---|---|---|---|\n";
  let pct x = Printf.sprintf "%.0f%%" (100. *. x) in
  List.iter
    (fun (base, unit, better, meaning) ->
      let configs = gated_configs base in
      let bounds = List.map (bound base) configs in
      p "| `%s.<config>` | %s | %s | %s | %s | %s |\n" base
        (if configs = config_ids then "all" else String.concat ", " configs)
        unit (better_string better)
        (if List.for_all (( = ) (List.hd bounds)) bounds then pct (List.hd bounds)
         else
           String.concat ", "
             (List.map2 (fun c b -> Printf.sprintf "%s %s" c (pct b)) configs bounds))
        meaning)
    e2e_bases;
  List.iter
    (fun m ->
      if m.config = None then
        p "| `%s` | - | %s | %s | %s | %s |\n" m.name m.unit (better_string m.better)
          (pct (Option.value m.bound ~default:0.))
          m.meaning)
    end_to_end;
  p "\nPer-layer metrics (traced run, not gated):\n\n";
  p "| metric | unit | layer | configs | workloads | meaning | should move |\n";
  p "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun m ->
      p "| `%s` | %s | %s | %s | all | %s | %s |\n" m.name m.unit m.layer
        (Option.value m.config ~default:"-")
        m.meaning m.moves)
    ungated_metrics;
  List.iter
    (fun (base, unit, _, layer, cs, only, meaning, moves) ->
      p "| `%s` | %s | %s | %s | %s | %s | %s |\n" base unit layer
        (if cs = config_ids then "all" else String.concat ", " cs)
        (Option.value only ~default:"all")
        meaning moves)
    layer_bases;
  p "| `%s` | %s | %s | - | all | %s | %s |\n" overhead.name overhead.unit
    overhead.layer overhead.meaning overhead.moves;
  Buffer.contents b
