(* Parameterized benchmark CLI: regenerate individual paper figures with
   custom thread counts, iteration counts and repetitions.

     wfq_bench fig7 --threads 1,2,4,8 --iters 100000 --runs 5
     wfq_bench fig10 --sizes 1,100,10000
     wfq_bench all --paper --csv
*)

open Cmdliner
module F = Wfq_harness.Figures
module R = Wfq_harness.Report

let ints_of_string s =
  String.split_on_char ',' s
  |> List.filter (fun x -> x <> "")
  |> List.map int_of_string

let threads_arg =
  let doc = "Comma-separated thread counts (x axis of figs. 7-9)." in
  Arg.(value & opt (some string) None & info [ "threads" ] ~docv:"LIST" ~doc)

let iters_arg =
  let doc = "Iterations per thread." in
  Arg.(value & opt (some int) None & info [ "iters" ] ~docv:"N" ~doc)

(* The stats subcommand runs at one domain count (it snapshots one
   configuration, it does not sweep an axis), so --threads is a single
   int there rather than the comma list of the figure commands. *)
let threads_single_arg =
  let doc = "Number of worker domains (default 4)." in
  Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"N" ~doc)

let runs_arg =
  let doc = "Repetitions averaged per data point (paper: 10)." in
  Arg.(value & opt (some int) None & info [ "runs" ] ~docv:"N" ~doc)

let sizes_arg =
  let doc = "Comma-separated initial queue sizes (fig. 10)." in
  Arg.(value & opt (some string) None & info [ "sizes" ] ~docv:"LIST" ~doc)

let batch_arg =
  let doc =
    "Also run the batch-native decomposition at this batch size: the \
     per-item WF fps baseline vs the native enqueue_batch/dequeue_batch \
     of the fps, KP, ring and sharded backends on the batch pairs \
     workload (docs/BATCHING.md). Adds batch:-prefixed series to the \
     tables and the JSON."
  in
  Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"K" ~doc)

let paper_arg =
  let doc = "Use the paper's full parameters (1..16 threads, 1M iters, 10 runs)." in
  Arg.(value & flag & info [ "paper" ] ~doc)

let csv_arg =
  let doc = "Also print machine-readable CSV blocks." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let json_arg =
  let doc =
    "Also write the series as machine-readable JSON (shard series go to \
     BENCH_shard.json; the perf trajectory across PRs is diffed from \
     these files)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let build_scale paper threads iters runs sizes : F.scale =
  let base = if paper then F.paper else F.quick in
  {
    threads =
      (match threads with Some t -> ints_of_string t | None -> base.threads);
    iters = Option.value iters ~default:base.iters;
    runs = Option.value runs ~default:base.runs;
    sizes =
      (match sizes with Some s -> ints_of_string s | None -> base.sizes);
  }

let emit ~csv ~title ~y_label series =
  R.print_table ~title ~x_label:"threads" ~y_label series;
  if csv then R.print_csv ~title series

let run_figure which paper threads iters runs sizes csv =
  let scale = build_scale paper threads iters runs sizes in
  (match which with
  | `Fig7 | `All ->
      emit ~csv ~title:"Figure 7: enqueue-dequeue pairs" ~y_label:"seconds"
        (F.fig7 ~scale ())
  | _ -> ());
  (match which with
  | `Fig8 | `All ->
      emit ~csv ~title:"Figure 8: 50% enqueues" ~y_label:"seconds"
        (F.fig8 ~scale ())
  | _ -> ());
  (match which with
  | `Fig9 | `All ->
      emit ~csv ~title:"Figure 9: impact of the optimizations"
        ~y_label:"seconds" (F.fig9 ~scale ())
  | _ -> ());
  (match which with
  | `Fig10 | `All ->
      let series = F.fig10 ~scale () in
      R.print_table ~title:"Figure 10: live space overhead (WF / LF)"
        ~x_label:"queue size" ~y_label:"live-words ratio" series;
      if csv then R.print_csv ~title:"fig10" series
  | _ -> ());
  match which with
  | `Extended | `All ->
      emit ~csv ~title:"Extension: all implementations (pairs)"
        ~y_label:"seconds"
        (F.extended_pairs ~scale ())
  | _ -> ()

(* Shard-scaling series (lib/shard): the sharded front-end vs the best
   unsharded variant on the relaxed pairs workload. Default thread axis
   reaches 8 domains, where sharding must pay off. *)
(* On a small host, stop-the-world minor collections synchronized
   across 8 domains dominate the default-arena (256k-word) run time and
   bury the queue-level differences in noise; an 8M-word minor heap
   removes that floor and roughly halves wall time at 8 domains. The
   arena is reserved at runtime startup, so it can only be set from the
   environment ([Gc.set] after startup measurably does nothing here):

     OCAMLRUNPARAM='s=8M' wfq_bench shard --json

   The actual arena size is recorded in the JSON meta so results are
   never compared across environments by accident. *)
let canonical_minor_heap_words = 8 * 1024 * 1024

let run_shard paper threads iters runs sizes csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical shard-bench \
       environment is OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let scale = build_scale paper threads iters runs sizes in
  let scale =
    if threads = None && not paper then
      { scale with threads = [ 1; 2; 4; 8 ] }
    else scale
  in
  let title = "Shard scaling: enqueue-dequeue pairs (relaxed)" in
  let series = F.shard_scaling ~scale () in
  emit ~csv ~title ~y_label:"seconds" series;
  if json then begin
    let meta =
      [
        ("workload", "pairs_relaxed");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("aggregation", "median, interleaved run order");
        ("minor_heap_words", string_of_int minor_words);
        ("y", "seconds");
      ]
    in
    R.write_json ~path:"BENCH_shard.json" ~title ~meta series;
    print_endline "wrote BENCH_shard.json"
  end

let prefix_labels p =
  List.map (fun s -> { s with R.label = p ^ ":" ^ s.R.label })

(* Fast-path/slow-path series: WF fps (unpooled and pooled) and its
   max_failures sweep vs the acceptance baselines (LF, base WF, opt WF
   (1+2)) on the strict pairs workload. Same canonical environment as
   the shard bench. *)
let run_fps paper threads iters runs sizes batch csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical fps-bench environment \
       is OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let scale = build_scale paper threads iters runs sizes in
  let scale =
    if threads = None && not paper then
      { scale with threads = [ 1; 2; 4; 8 ] }
    else scale
  in
  let title = "Fast-path/slow-path: enqueue-dequeue pairs" in
  let { F.time; minor_gcs } = F.fps_scaling_gc ~scale () in
  emit ~csv ~title ~y_label:"seconds" time;
  emit ~csv ~title:"Fast-path/slow-path: minor collections per run"
    ~y_label:"minor gcs" minor_gcs;
  let batch_series =
    match batch with
    | None -> []
    | Some k ->
        (* The batch workload needs at least one full round per thread. *)
        let bscale = { scale with F.iters = max scale.F.iters k } in
        let b = F.batch_decomposition ~scale:bscale ~batch:k () in
        emit ~csv
          ~title:(Printf.sprintf "Batch pairs (k=%d): per-item vs native" k)
          ~y_label:"seconds" b.F.batch_time;
        prefix_labels "batch" b.F.batch_time
        @ prefix_labels "batch-minor-gcs" b.F.batch_minor_gcs
  in
  if json then begin
    let meta =
      [
        ("workload", "pairs; batch: series are the batch pairs workload");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("batch",
         match batch with None -> "none" | Some k -> string_of_int k);
        ("aggregation", "median, interleaved run order");
        ("minor_heap_words", string_of_int minor_words);
        ("y", "seconds; minor-gcs: series are collections per run");
      ]
    in
    R.write_json ~path:"BENCH_fps.json" ~title ~meta
      (time @ prefix_labels "minor-gcs" minor_gcs @ batch_series);
    print_endline "wrote BENCH_fps.json"
  end

(* Allocation-rate decomposition: words/op and induced GC work of each
   family's headline member vs its segment-pooled counterpart. Unlike
   the timing benches this is robust to host noise — allocation counts
   are near-deterministic — so it is also the CI guard's data source
   (pooled must never allocate more words/op than unpooled). *)
let run_alloc paper threads iters runs sizes csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical alloc-bench \
       environment is OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let scale = build_scale paper threads iters runs sizes in
  let scale =
    if threads = None && not paper then
      { scale with threads = [ 1; 2; 4; 8 ] }
    else scale
  in
  let title = "Allocation decomposition: enqueue-dequeue pairs" in
  let a = F.alloc_decomposition ~scale () in
  emit ~csv ~title:"Allocation: minor-heap words per operation"
    ~y_label:"words/op" a.F.words_per_op;
  emit ~csv ~title:"Allocation: words promoted to the major heap per op"
    ~y_label:"promoted/op" a.F.promoted_per_op;
  emit ~csv ~title:"Allocation: minor collections per run"
    ~y_label:"minor gcs" a.F.minor_collections;
  emit ~csv ~title:"Allocation: major collections per run"
    ~y_label:"major gcs" a.F.major_collections;
  if json then begin
    let meta =
      [
        ("workload", "pairs");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("aggregation", "median, interleaved run order");
        ("minor_heap_words", string_of_int minor_words);
        ("y",
         "per series-label prefix: words_per_op, promoted_per_op \
          (words/operation); minor_gcs, major_gcs (collections/run)");
      ]
    in
    R.write_json ~path:"BENCH_alloc.json" ~title ~meta
      (prefix_labels "words_per_op" a.F.words_per_op
      @ prefix_labels "promoted_per_op" a.F.promoted_per_op
      @ prefix_labels "minor_gcs" a.F.minor_collections
      @ prefix_labels "major_gcs" a.F.major_collections);
    print_endline "wrote BENCH_alloc.json"
  end

(* Bounded-memory ring decomposition: the ring backend vs the linked
   families' pooled floor on the strict pairs workload — completion
   time, words/op and minor collections from one interleaved
   collection. The words/op series is the ring-smoke CI guard's data
   source: the ring's steady state allocates nothing, so its words/op
   must stay flat and sit strictly below "opt WF (1+2) pooled" (the
   BENCH_alloc floor) at every thread count, and below "WF fps pooled"
   once domains contend (the fps fast path's uncontended allocation
   dropped under the ring's ABA-proofing floor when its retry-loop
   closures were lifted — see EXPERIMENTS.md). *)
let run_ring paper threads iters runs sizes csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical ring-bench \
       environment is OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let scale = build_scale paper threads iters runs sizes in
  let scale =
    if threads = None && not paper then
      { scale with threads = [ 1; 2; 4; 8 ] }
    else scale
  in
  let r = F.ring_decomposition ~scale () in
  emit ~csv ~title:"Ring: enqueue-dequeue pairs" ~y_label:"seconds"
    r.F.ring_time;
  emit ~csv ~title:"Ring: minor-heap words per operation"
    ~y_label:"words/op" r.F.ring_words_per_op;
  emit ~csv ~title:"Ring: minor collections per run" ~y_label:"minor gcs"
    r.F.ring_minor_gcs;
  if json then begin
    let meta =
      [
        ("workload", "pairs");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("aggregation", "median, interleaved run order");
        ("minor_heap_words", string_of_int minor_words);
        ("y",
         "per series-label prefix: time (seconds), words_per_op \
          (words/operation), minor_gcs (collections/run)");
      ]
    in
    R.write_json ~path:"BENCH_ring.json"
      ~title:"Bounded ring vs pooled linked queues (pairs)" ~meta
      (prefix_labels "time" r.F.ring_time
      @ prefix_labels "words_per_op" r.F.ring_words_per_op
      @ prefix_labels "minor_gcs" r.F.ring_minor_gcs);
    print_endline "wrote BENCH_ring.json"
  end

(* Polylog crossover (Polylog_queue vs the KP family): the measured
   half is the usual interleaved pairs sweep over polylog_series; the
   asymptotic half is a certified step-bound-vs-p table built from
   Wfq_sim.Check.certify on the simulator plane.

   The certification scenario is one active enq+deq fiber among p
   registered threads — deterministic, so DPOR certifies it from a
   single schedule, and it isolates exactly the structural
   p-dependence the paper's bounds are about: the base KP queue scans
   all p state slots per operation (Phase_scan + Help_all) even with
   nobody else running, so its certified bound is Theta(p) (measured:
   43 + 4p), while the polylog tree only grows by one level per
   doubling of p (one +~71-step propagate stage), i.e. Theta(log p)
   with large constants. The table runs p up to 128, past their
   crossover. kp-opt12 and fps appear as flat reference rows: their
   optimizations amortize the helping scan off the solo path (the
   adversarial O(p) cost remains, but needs p concurrently pending
   ops, which no tractable exhaustive exploration reaches — the
   contended p=2 certificates live in wfq_check's litmus library and
   test_polylog instead).

   The growth guard — polylog's certified bound must grow strictly
   slower from the smallest to the largest p than kp-base's — is the
   polylog-smoke CI gate. *)
module Qi = Wfq_core.Queue_intf
module Bks = Wfq_core.Backends
module Ck = Wfq_sim.Check
module Sim_kp = Wfq_core.Kp_queue.Make (Wfq_sim.Sim_atomic)

let cert_sim_ops (module Bk : Qi.BACKEND) : int Qi.instance Ck.ops =
  {
    Ck.create =
      (fun ~num_threads ->
        Bks.instantiate_with
          (module Wfq_sim.Sim_atomic)
          (module Bk)
          ~num_threads ());
    enqueue = (fun i ~tid v -> i.Qi.enq ~tid v);
    dequeue = (fun i ~tid -> i.Qi.deq ~tid);
    contents = (fun i -> i.Qi.dump ());
  }

(* The paper's base configuration is where the Theta(p) scans live; it
   is deliberately not in the registry (its Help_all slow path has
   million-trace DPOR scenarios that would sink every registry-driven
   battery), so the bench builds it directly. *)
let kp_base_sim_ops : int Sim_kp.t Ck.ops =
  {
    Ck.create = (fun ~num_threads -> Sim_kp.create ~num_threads ());
    enqueue = (fun q ~tid v -> Sim_kp.enqueue q ~tid v);
    dequeue = (fun q ~tid -> Sim_kp.dequeue q ~tid);
    contents = Sim_kp.to_list;
  }

let certified_bound (type q) name (queue : q Ck.ops) ~p =
  let scripts = [ `Enq 1; `Deq ] :: List.init (p - 1) (fun _ -> []) in
  match
    Ck.certify ~mode:Ck.Dpor ~max_schedules:10_000 ~bound:1_000_000 ~queue
      ~scripts ()
  with
  | Ok c -> c.Ck.observed_bound
  | Error msg ->
      Printf.eprintf "certify %s at p=%d failed: %s\n%!" name p msg;
      exit 2

let cert_ps = [ 2; 4; 8; 16; 32; 64; 128 ]

let cert_rows : (string * (int -> int)) list =
  [
    ("kp-base", fun p -> certified_bound "kp-base" kp_base_sim_ops ~p);
    ( "kp-opt12",
      fun p ->
        certified_bound "kp-opt12" (cert_sim_ops (Bks.find "kp-opt12")) ~p );
    ( "fps-pooled",
      fun p ->
        certified_bound "fps-pooled"
          (cert_sim_ops (Bks.find "fps-pooled"))
          ~p );
    ( "polylog",
      fun p ->
        certified_bound "polylog" (cert_sim_ops (Bks.find "polylog")) ~p );
  ]

let cert_table () =
  List.map
    (fun (label, bound_at) ->
      {
        R.label;
        points =
          List.map
            (fun p -> (float_of_int p, float_of_int (bound_at p)))
            cert_ps;
      })
    cert_rows

let cert_bound_at series id p =
  let s = List.find (fun s -> s.R.label = id) series in
  List.assoc (float_of_int p) s.R.points

(* growth of the certified bound from the smallest to the largest p *)
let cert_growth series id =
  cert_bound_at series id (List.fold_left max 0 cert_ps)
  -. cert_bound_at series id (List.fold_left min max_int cert_ps)

let run_polylog paper threads iters runs sizes csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical polylog-bench \
       environment is OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let scale = build_scale paper threads iters runs sizes in
  let scale =
    if threads = None && not paper then
      { scale with threads = [ 1; 2; 4; 8 ] }
    else scale
  in
  let title = "Polylog crossover: enqueue-dequeue pairs" in
  let { F.time; minor_gcs } = F.polylog_crossover_gc ~scale () in
  emit ~csv ~title ~y_label:"seconds" time;
  emit ~csv ~title:"Polylog crossover: minor collections per run"
    ~y_label:"minor gcs" minor_gcs;
  Printf.printf
    "\ncertified per-fiber step bounds (simulator, one active enq+deq \
     fiber among p registered threads, DPOR-exhaustive):\n%!";
  let cert = cert_table () in
  R.print_table ~title:"Certified step bound vs p" ~x_label:"p"
    ~y_label:"max steps/fiber" cert;
  if csv then R.print_csv ~title:"cert_steps" cert;
  let poly_growth = cert_growth cert "polylog" in
  let kp_growth = cert_growth cert "kp-base" in
  let guard_ok = poly_growth < kp_growth in
  let p_lo = List.fold_left min max_int cert_ps in
  let p_hi = List.fold_left max 0 cert_ps in
  Printf.printf
    "growth guard (p=%d -> p=%d): polylog +%.0f steps vs kp-base \
     +%.0f steps — %s\n%!"
    p_lo p_hi poly_growth kp_growth
    (if guard_ok then "OK (polylog grows strictly slower)"
     else "** GUARD FAILED **");
  (match
     List.find_opt
       (fun p -> cert_bound_at cert "polylog" p < cert_bound_at cert "kp-base" p)
       cert_ps
   with
  | Some p ->
      Printf.printf
        "crossover: polylog's certified bound drops below kp-base's at \
         p=%d (%.0f vs %.0f steps)\n%!"
        p
        (cert_bound_at cert "polylog" p)
        (cert_bound_at cert "kp-base" p)
  | None ->
      Printf.printf
        "crossover: not reached by p=%d (polylog %.0f vs kp-base %.0f \
         steps)\n%!"
        p_hi
        (cert_bound_at cert "polylog" p_hi)
        (cert_bound_at cert "kp-base" p_hi));
  if json then begin
    let meta =
      [
        ("workload", "pairs; cert_steps: series are certified bounds");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("aggregation", "median, interleaved run order");
        ("minor_heap_words", string_of_int minor_words);
        ("cert_scenario",
         "one active enq+deq fiber among p registered threads \
          (structural per-op p-dependence; contended p=2 certificates \
          live in wfq_check dpor --queue polylog)");
        ("cert_mode", "Dpor, exhaustive (deterministic scenario)");
        ("cert_growth_guard",
         Printf.sprintf
           "polylog +%.0f vs kp-base +%.0f steps (p=%d->%d): %s"
           poly_growth kp_growth p_lo p_hi
           (if guard_ok then "ok" else "FAILED"));
        ("y",
         "seconds; minor-gcs: collections per run; cert_steps: max \
          certified steps/fiber vs p");
      ]
    in
    R.write_json ~path:"BENCH_polylog.json" ~title ~meta
      (time
      @ prefix_labels "minor-gcs" minor_gcs
      @ prefix_labels "cert_steps" cert);
    print_endline "wrote BENCH_polylog.json"
  end;
  if not guard_ok then exit 1

let polylog_cmd =
  let term =
    Term.(
      const run_polylog
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg
      $ csv_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "polylog"
       ~doc:
         "Helping-cost crossover: the polylog tournament-tree queue \
          (Polylog_queue, O(log^2 p) steps/op) vs opt WF (1+2) and WF \
          fps pooled on the pairs workload, plus the certified \
          step-bound-vs-p table (Wfq_sim.Check.certify, solo fiber \
          among p threads, up to p=128) with the growth guard \
          (polylog must grow strictly slower than base KP); --json \
          writes BENCH_polylog.json. Exits 1 on guard failure.")
    term

(* Observability snapshot: instrumented multi-domain runs populating the
   Wfq_obsv metric registry (phase lag, slow-path rate, pool hit rate,
   shard steals, ...), a human report, the disabled-vs-enabled overhead
   guard, and --json for the BENCH_stats.json artifact CI diffs. *)
let run_stats threads iters runs json =
  let module OB = Wfq_harness.Obsv_bench in
  let threads = Option.value threads ~default:4 in
  let iters = Option.value iters ~default:20_000 in
  let runs = Option.value runs ~default:50 in
  Printf.printf
    "collecting instrumented runs (%d domains x %d iters per queue)...\n%!"
    threads iters;
  let reg, lines = OB.collect ~threads ~iters () in
  print_endline "";
  print_endline "=== metric registry ===";
  Wfq_obsv.Metrics.dump reg stdout;
  print_endline "";
  print_endline "=== per-queue timings ===";
  List.iter
    (fun l ->
      Printf.printf "%-12s %d domains  %9d ops  %8.3f s  %10.0f ops/s\n"
        l.OB.queue l.OB.threads l.OB.ops l.OB.seconds
        (float_of_int l.OB.ops /. l.OB.seconds))
    lines;
  print_endline "";
  Printf.printf "=== overhead guard (budget: enabled/disabled <= %.2f) ===\n%!"
    OB.overhead_budget;
  let overheads = OB.measure_overhead ~iters ~runs () in
  List.iter
    (fun o ->
      Printf.printf
        "%-12s disabled %8.1f ns/op   enabled %8.1f ns/op   ratio %.4f%s\n"
        o.OB.oh_queue o.OB.disabled_ns_per_op o.OB.enabled_ns_per_op
        o.OB.ratio
        (if o.OB.ratio > OB.overhead_budget then "  ** OVER BUDGET **"
         else ""))
    overheads;
  if json then begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf
      "  \"title\": \"Observability snapshot: instrumented pairs runs\",\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"meta\": {\"threads\": %d, \"iters\": %d, \"runs\": %d, \
          \"workload\": \"pairs (shard_rr4: relaxed)\", \
          \"latency_unit\": \"ns (bechamel monotonic clock)\", \
          \"minor_heap_words\": %d},\n"
         threads iters runs (Gc.get ()).Gc.minor_heap_size);
    Buffer.add_string buf "  \"runs\": [\n";
    List.iteri
      (fun i l ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"queue\": \"%s\", \"threads\": %d, \"iters\": %d, \
              \"seconds\": %g, \"ops\": %d}"
             l.OB.queue l.OB.threads l.OB.iters l.OB.seconds l.OB.ops))
      lines;
    Buffer.add_string buf "\n  ],\n";
    Buffer.add_string buf
      (Printf.sprintf "  \"overhead\": {\"budget\": %g, \"queues\": [\n"
         OB.overhead_budget);
    List.iteri
      (fun i o ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"queue\": \"%s\", \"disabled_ns_per_op\": %g, \
              \"enabled_ns_per_op\": %g, \"ratio\": %g}"
             o.OB.oh_queue o.OB.disabled_ns_per_op o.OB.enabled_ns_per_op
             o.OB.ratio))
      overheads;
    Buffer.add_string buf "\n  ]},\n  ";
    Wfq_obsv.Metrics.to_json_body buf reg;
    Buffer.add_string buf "\n}\n";
    let oc = open_out "BENCH_stats.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    print_endline "wrote BENCH_stats.json"
  end

(* Scheduler service scenario (lib/sched): request fan-out with mixed
   CPU work and queue hops over the effect-based fiber scheduler, swept
   across run-queue backends and domain counts. *)
let domains_arg =
  let doc = "Comma-separated worker-domain counts (default 1,2,4)." in
  Arg.(value & opt (some string) None & info [ "domains" ] ~docv:"LIST" ~doc)

let requests_arg =
  let doc = "Request fibers per run (default 200)." in
  Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)

let fanout_arg =
  let doc = "Subfibers spawned and awaited per request (default 8)." in
  Arg.(value & opt (some int) None & info [ "fanout" ] ~docv:"N" ~doc)

let work_arg =
  let doc = "CPU-burn loop iterations per request stage (default 400)." in
  Arg.(value & opt (some int) None & info [ "work" ] ~docv:"N" ~doc)

let run_sched domains requests fanout work runs csv json =
  let module SB = Wfq_harness.Sched_bench in
  let scale =
    {
      SB.domains =
        (match domains with
        | Some d -> ints_of_string d
        | None -> SB.default.SB.domains);
      requests = Option.value requests ~default:SB.default.SB.requests;
      fanout = Option.value fanout ~default:SB.default.SB.fanout;
      work = Option.value work ~default:SB.default.SB.work;
      runs = Option.value runs ~default:SB.default.SB.runs;
    }
  in
  let lines = SB.service ~scale () in
  Printf.printf
    "%-12s %7s %9s %12s %12s %12s %8s\n" "backend" "domains" "fibers"
    "req/s" "p50 ns" "p99 ns" "steals";
  List.iter
    (fun l ->
      Printf.printf "%-12s %7d %9d %12.0f %12.0f %12.0f %8d\n"
        l.SB.backend l.SB.domains l.SB.fibers l.SB.throughput
        l.SB.fiber_p50_ns l.SB.fiber_p99_ns l.SB.steals_won)
    lines;
  let title = "Scheduler service scenario: request fan-out" in
  let series = SB.series lines in
  if csv then R.print_csv ~title series;
  if json then begin
    let meta =
      [
        ("workload", "request fan-out; subfibers yield once + cpu burn");
        ("domains",
         String.concat ","
           (List.map string_of_int scale.SB.domains));
        ("requests", string_of_int scale.SB.requests);
        ("fanout", string_of_int scale.SB.fanout);
        ("work", string_of_int scale.SB.work);
        ("runs", string_of_int scale.SB.runs);
        ("aggregation", "median over runs, per field");
        ("minor_heap_words",
         string_of_int (Gc.get ()).Gc.minor_heap_size);
        ("x", "worker domains");
        ("y",
         "per series-label prefix: throughput (requests/s), \
          fiber_p50_ns / fiber_p99_ns (spawn-to-completion), steals \
          (tasks stolen per run)");
      ]
    in
    R.write_json ~path:"BENCH_sched.json" ~title ~meta series;
    print_endline "wrote BENCH_sched.json"
  end

let sched_cmd =
  let term =
    Term.(
      const run_sched
      $ domains_arg $ requests_arg $ fanout_arg $ work_arg $ runs_arg
      $ csv_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "End-to-end service scenario on the effect-based fiber scheduler \
          (lib/sched): request fan-out with CPU work and queue hops over \
          the kp_opt12 / fps_pooled / shard_rr2 / ring run-queue \
          backends; --json writes BENCH_sched.json.")
    term

let stats_cmd =
  let term =
    Term.(const run_stats $ threads_single_arg $ iters_arg $ runs_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Observability snapshot (Wfq_obsv): run instrumented pairs \
          workloads over opt WF (1+2), WF fps (pooled and forced-slow), \
          the sharded front-end and the tid registry; print the metric \
          registry and the 2% overhead guard; --json writes \
          BENCH_stats.json.")
    term

let alloc_cmd =
  let term =
    Term.(
      const run_alloc
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ csv_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Allocation-rate decomposition: minor-heap words/op, promoted \
          words/op and collection counts for LF / opt WF (1+2) / WF fps \
          against their segment-pooled counterparts; --json writes \
          BENCH_alloc.json.")
    term

let ring_cmd =
  let term =
    Term.(
      const run_ring
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ csv_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "ring"
       ~doc:
         "Bounded-memory ring (Ring_queue) vs opt WF (1+2), its pooled \
          counterpart and WF fps pooled: completion time, words/op and \
          minor collections on the pairs workload; --json writes \
          BENCH_ring.json (the ring-smoke CI guard's input).")
    term

let fps_cmd =
  let term =
    Term.(
      const run_fps
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ batch_arg
      $ csv_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "fps"
       ~doc:
         "Fast-path/slow-path queue (Kp_queue_fps) vs LF / base WF / opt \
          WF (1+2), with the max_failures sweep; --batch K adds the \
          batch-native decomposition; --json writes BENCH_fps.json.")
    term

(* All paper figures in one canonical dataset (bench hygiene: one file
   to diff across PRs for the core figures, alongside the per-extension
   BENCH_*.json files). *)
let run_figures paper threads iters runs sizes batch csv json =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  let scale = build_scale paper threads iters runs sizes in
  (* The _gc variants project time and GC activity from the same runs,
     so the GC columns cost no extra benchmarking. *)
  let f7 = F.fig7_gc ~scale () in
  let f8 = F.fig8_gc ~scale () in
  let f9 = F.fig9_gc ~scale () in
  let f10 = F.fig10 ~scale () in
  emit ~csv ~title:"Figure 7: enqueue-dequeue pairs" ~y_label:"seconds"
    f7.F.time;
  emit ~csv ~title:"Figure 7 (GC): minor collections per run"
    ~y_label:"minor gcs" f7.F.minor_gcs;
  emit ~csv ~title:"Figure 8: 50% enqueues" ~y_label:"seconds" f8.F.time;
  emit ~csv ~title:"Figure 8 (GC): minor collections per run"
    ~y_label:"minor gcs" f8.F.minor_gcs;
  emit ~csv ~title:"Figure 9: impact of the optimizations" ~y_label:"seconds"
    f9.F.time;
  emit ~csv ~title:"Figure 9 (GC): minor collections per run"
    ~y_label:"minor gcs" f9.F.minor_gcs;
  R.print_table ~title:"Figure 10: live space overhead (WF / LF)"
    ~x_label:"queue size" ~y_label:"live-words ratio" f10;
  let batch_series =
    match batch with
    | None -> []
    | Some k ->
        let bscale = { scale with F.iters = max scale.F.iters k } in
        let b = F.batch_decomposition ~scale:bscale ~batch:k () in
        emit ~csv
          ~title:(Printf.sprintf "Batch pairs (k=%d): per-item vs native" k)
          ~y_label:"seconds" b.F.batch_time;
        emit ~csv
          ~title:
            (Printf.sprintf "Batch pairs (k=%d, GC): minor collections" k)
          ~y_label:"minor gcs" b.F.batch_minor_gcs;
        prefix_labels "batch" b.F.batch_time
        @ prefix_labels "batch-minor-gcs" b.F.batch_minor_gcs
  in
  if json then begin
    let series =
      prefix_labels "fig7" f7.F.time
      @ prefix_labels "fig7-minor-gcs" f7.F.minor_gcs
      @ prefix_labels "fig8" f8.F.time
      @ prefix_labels "fig8-minor-gcs" f8.F.minor_gcs
      @ prefix_labels "fig9" f9.F.time
      @ prefix_labels "fig9-minor-gcs" f9.F.minor_gcs
      @ prefix_labels "fig10" f10
      @ batch_series
    in
    let meta =
      [
        ("workloads",
         "fig7/fig9 pairs; fig8 p_enq; fig10 live-space ratio; batch: \
          series are the batch pairs workload (docs/BATCHING.md)");
        ("threads",
         String.concat "," (List.map string_of_int scale.threads));
        ("iters", string_of_int scale.iters);
        ("runs", string_of_int scale.runs);
        ("batch",
         match batch with None -> "none" | Some k -> string_of_int k);
        ("aggregation",
         "mean, sequential run order; batch: median, interleaved");
        ("minor_heap_words", string_of_int minor_words);
        ("x", "threads for fig7-9 and batch labels; initial queue size \
               for fig10");
        ("y",
         "seconds for fig7-9 and batch; live-words ratio for fig10; \
          *-minor-gcs series are minor collections per run");
      ]
    in
    R.write_json ~path:"BENCH_figures.json"
      ~title:"Paper figures 7-10 (combined)" ~meta series;
    print_endline "wrote BENCH_figures.json"
  end

let figures_cmd =
  let term =
    Term.(
      const run_figures
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ batch_arg
      $ csv_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Every paper figure (7-10) in one run; --batch K adds the \
          batch-native decomposition (per-item WF fps vs native batch \
          backends); --json writes the combined BENCH_figures.json with \
          figN- and batch-prefixed series labels.")
    term

let shard_cmd =
  let term =
    Term.(
      const run_shard
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ csv_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Shard-count scaling of the sharded front-end (lib/shard) vs opt \
          WF (1+2); --json writes BENCH_shard.json.")
    term

let figure_cmd which name doc =
  let term =
    Term.(
      const (run_figure which)
      $ paper_arg $ threads_arg $ iters_arg $ runs_arg $ sizes_arg $ csv_arg)
  in
  Cmd.v (Cmd.info name ~doc) term

(* Open-loop latency sweep (docs/LATENCY.md): seeded arrival schedules
   drive every registry backend at fixed offered loads, and every
   latency is measured from the event's intended send time on the
   monotonic clock — a saturated or stalled queue shows the queueing
   delay it caused instead of silently throttling the load generator
   (coordinated omission). The sojourn-p99-vs-load curve's saturation
   knee is the headline SLO statistic and the CI gate's input. *)
module OL = Wfq_harness.Open_loop
module Arr = Wfq_harness.Arrivals

let floats_of_string s =
  String.split_on_char ',' s
  |> List.filter (fun x -> x <> "")
  |> List.map float_of_string

let rates_arg =
  let doc = "Comma-separated offered loads in events/second (x axis)." in
  Arg.(
    value
    & opt string "2000,4000,8000,16000"
    & info [ "rates" ] ~docv:"LIST" ~doc)

let events_arg =
  let doc = "Events per (backend, rate) point." in
  Arg.(value & opt int 4000 & info [ "events" ] ~docv:"N" ~doc)

let producers_arg =
  let doc = "Producer domains following the arrival schedule." in
  Arg.(value & opt int 1 & info [ "producers" ] ~docv:"N" ~doc)

let consumers_arg =
  let doc = "Consumer domains." in
  Arg.(value & opt int 1 & info [ "consumers" ] ~docv:"N" ~doc)

let pattern_arg =
  let doc =
    "Arrival pattern: $(b,poisson) (exponential interarrivals) or \
     $(b,burst) (on/off Markov-modulated; see --duty, --burst-len)."
  in
  Arg.(
    value
    & opt (enum [ ("poisson", `Poisson); ("burst", `Burst) ]) `Poisson
    & info [ "pattern" ] ~docv:"NAME" ~doc)

let duty_arg =
  let doc = "Burst pattern: fraction of time spent in the ON state." in
  Arg.(value & opt float 0.2 & info [ "duty" ] ~docv:"F" ~doc)

let burst_len_arg =
  let doc = "Burst pattern: mean events per ON burst." in
  Arg.(value & opt int 32 & info [ "burst-len" ] ~docv:"N" ~doc)

let skew_arg =
  let doc =
    "Producer-affinity skew: events are assigned to producers with \
     Zipf-like weights (i+1)^-skew; 0 is uniform."
  in
  Arg.(value & opt float 0.0 & info [ "skew" ] ~docv:"F" ~doc)

let seed_arg =
  let doc = "Schedule seed (deterministic arrivals per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let stall_us_arg =
  let doc =
    "Inject a slow consumer: consumer 0 goes dark for this many \
     microseconds after its --stall-after-th dequeue (0 disables)."
  in
  Arg.(value & opt int 0 & info [ "stall-us" ] ~docv:"US" ~doc)

let stall_after_arg =
  let doc = "Dequeues by consumer 0 before the injected stall." in
  Arg.(value & opt int 100 & info [ "stall-after" ] ~docv:"N" ~doc)

let knee_mult_arg =
  let doc =
    "Saturation-knee multiplier: the knee is the first offered load \
     whose sojourn p99 exceeds this multiple of the lowest load's p99."
  in
  Arg.(value & opt float 4.0 & info [ "knee-mult" ] ~docv:"F" ~doc)

let knee_floor_arg =
  let doc =
    "Regression gate: exit 3 if any backend's saturation knee falls \
     below this offered load (events/s). A backend whose tail never \
     crosses the knee threshold passes."
  in
  Arg.(value & opt (some float) None & info [ "knee-floor" ] ~docv:"RATE" ~doc)

let backends_arg =
  let doc =
    "Comma-separated registry backend ids to sweep (default: all; see \
     --list-backends)."
  in
  Arg.(value & opt (some string) None & info [ "backends" ] ~docv:"LIST" ~doc)

let run_openloop rates events producers consumers pattern duty burst_len skew
    seed stall_us stall_after knee_mult knee_floor backends json =
  let rates = List.sort_uniq compare (floats_of_string rates) in
  if rates = [] then begin
    prerr_endline "latency-openloop: --rates must name at least one load";
    exit 2
  end;
  let pattern =
    match pattern with
    | `Poisson -> Arr.Poisson
    | `Burst -> Arr.Burst { duty; burst_len }
  in
  let stall =
    if stall_us > 0 then
      Some { OL.victim = 0; after = stall_after; duration_ns = stall_us * 1000 }
    else None
  in
  let selected =
    match backends with
    | None -> Bks.all
    | Some ids ->
        String.split_on_char ',' ids
        |> List.filter (fun x -> x <> "")
        |> List.map Bks.find
  in
  Printf.printf
    "open-loop sweep: %s arrivals, %d events/point, %dP/%dC, skew %g, \
     seed %d%s\n\n"
    (Arr.pattern_name pattern) events producers consumers skew seed
    (match stall with
    | None -> ""
    | Some s ->
        Printf.sprintf ", stall %dus after %d dequeues"
          (s.OL.duration_ns / 1000) s.OL.after);
  Printf.printf "%-16s %10s %10s %12s %12s %12s %12s\n" "backend" "offered"
    "achieved" "enq p99 ns" "soj p50 ns" "soj p99 ns" "soj p999 ns";
  let results =
    List.map
      (fun (module B : Qi.BACKEND) ->
        let impl = Wfq_harness.Impls.(unbatched (of_backend (module B))) in
        let pts =
          List.map
            (fun rate ->
              let cfg =
                {
                  OL.producers;
                  consumers;
                  rate;
                  events;
                  pattern;
                  skew;
                  seed;
                  stall;
                }
              in
              let r = OL.run cfg impl in
              Printf.printf
                "%-16s %10.0f %10.0f %12.0f %12.0f %12.0f %12.0f\n%!" B.id
                rate r.OL.achieved_rate r.OL.enq.OL.p99 r.OL.sojourn.OL.p50
                r.OL.sojourn.OL.p99 r.OL.sojourn.OL.p999;
              (rate, r))
            rates
        in
        (B.id, pts))
      selected
  in
  let knees =
    List.map
      (fun (id, pts) ->
        ( id,
          OL.knee ~mult:knee_mult
            (List.map (fun (rate, r) -> (rate, r.OL.sojourn.OL.p99)) pts) ))
      results
  in
  Printf.printf
    "\nsaturation knees (first load with sojourn p99 > %gx the lowest \
     load's):\n"
    knee_mult;
  List.iter
    (fun (id, knee) ->
      match knee with
      | Some k -> Printf.printf "  %-16s %10.0f events/s\n" id k
      | None -> Printf.printf "  %-16s %10s\n" id "not reached")
    knees;
  if json then begin
    let series =
      List.concat_map
        (fun (id, pts) ->
          let line name proj =
            {
              R.label = name ^ ":" ^ id;
              points = List.map (fun (rate, r) -> (rate, proj r)) pts;
            }
          in
          [
            line "enq_p50" (fun r -> r.OL.enq.OL.p50);
            line "enq_p99" (fun r -> r.OL.enq.OL.p99);
            line "enq_p999" (fun r -> r.OL.enq.OL.p999);
            line "sojourn_p50" (fun r -> r.OL.sojourn.OL.p50);
            line "sojourn_p99" (fun r -> r.OL.sojourn.OL.p99);
            line "sojourn_p999" (fun r -> r.OL.sojourn.OL.p999);
            line "achieved_rate" (fun r -> r.OL.achieved_rate);
          ])
        results
    in
    let meta =
      [
        ("workload", "open-loop arrivals; latency from intended send time");
        ("pattern", Arr.pattern_name pattern);
        ("rates", String.concat "," (List.map string_of_float rates));
        ("events", string_of_int events);
        ("producers", string_of_int producers);
        ("consumers", string_of_int consumers);
        ("skew", string_of_float skew);
        ("seed", string_of_int seed);
        ("stall",
         (match stall with
         | None -> "none"
         | Some s ->
             Printf.sprintf "victim 0, %d ns after %d dequeues"
               s.OL.duration_ns s.OL.after));
        ("knee_mult", string_of_float knee_mult);
        ("knee",
         String.concat "; "
           (List.map
              (fun (id, knee) ->
                Printf.sprintf "%s=%s" id
                  (match knee with
                  | Some k -> Printf.sprintf "%.0f" k
                  | None -> "none"))
              knees));
        ("minor_heap_words", string_of_int (Gc.get ()).Gc.minor_heap_size);
        ("x", "offered load, events/s");
        ("y",
         "per series-label prefix: enq_* (enqueue completion - intended \
          send, ns), sojourn_* (dequeue completion - intended send, \
          ns), achieved_rate (events/s)");
      ]
    in
    R.write_json ~path:"BENCH_latency_openloop.json"
      ~title:"Open-loop latency vs offered load" ~meta series;
    print_endline "wrote BENCH_latency_openloop.json"
  end;
  match knee_floor with
  | None -> ()
  | Some floor ->
      let regressed =
        List.filter_map
          (fun (id, knee) ->
            match knee with Some k when k < floor -> Some (id, k) | _ -> None)
          knees
      in
      if regressed <> [] then begin
        List.iter
          (fun (id, k) ->
            Printf.eprintf
              "knee regression: %s saturates at %.0f events/s (floor \
               %.0f)\n%!"
              id k floor)
          regressed;
        exit 3
      end

let openloop_cmd =
  let term =
    Term.(
      const run_openloop
      $ rates_arg $ events_arg $ producers_arg $ consumers_arg $ pattern_arg
      $ duty_arg $ burst_len_arg $ skew_arg $ seed_arg $ stall_us_arg
      $ stall_after_arg $ knee_mult_arg $ knee_floor_arg $ backends_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "latency-openloop"
       ~doc:
         "Open-loop SLO latency sweep: seeded Poisson or burst arrivals \
          drive each registry backend at fixed offered loads; p50/p99/p999 \
          of enqueue latency and end-to-end sojourn are measured from the \
          intended send time (coordinated-omission-safe, docs/LATENCY.md) \
          and the sojourn-p99 saturation knee is reported per backend. \
          --json writes BENCH_latency_openloop.json; --knee-floor RATE \
          exits 3 if any backend's knee regresses below RATE.")
    term

let cmds =
  [
    figure_cmd `Fig7 "fig7" "Enqueue-dequeue pairs benchmark (paper Fig. 7).";
    figure_cmd `Fig8 "fig8" "50% enqueues benchmark (paper Fig. 8).";
    figure_cmd `Fig9 "fig9" "Optimization ablation (paper Fig. 9).";
    figure_cmd `Fig10 "fig10" "Live-space overhead (paper Fig. 10).";
    figure_cmd `Extended "extended"
      "All implementations on the pairs benchmark (extension).";
    shard_cmd;
    sched_cmd;
    openloop_cmd;
    fps_cmd;
    polylog_cmd;
    ring_cmd;
    alloc_cmd;
    stats_cmd;
    figures_cmd;
    figure_cmd `All "all" "Every figure in sequence.";
  ]

(* wfq_bench --list-backends: the registry, one row per backend — the
   single source of truth the benches, the conformance battery, the
   shard front-end and the scheduler all instantiate from. *)
let print_backends () =
  Printf.printf "%-16s %-22s %-8s %-10s %s\n" "id" "label" "family"
    "capacity" "sim";
  List.iter
    (fun (module B : Wfq_core.Queue_intf.BACKEND) ->
      Printf.printf "%-16s %-22s %-8s %-10s %s\n" B.id B.label B.family
        (match B.capacity with
        | None -> "unbounded"
        | Some c -> string_of_int c)
        (if B.sim_safe then "yes" else "no"))
    Wfq_core.Backends.all

let list_backends_arg =
  let doc =
    "List every backend registered in Wfq_core.Backends (id, label, \
     family, capacity, simulator-safety) and exit."
  in
  Arg.(value & flag & info [ "list-backends" ] ~doc)

let default =
  Term.(
    ret
      (const (fun list ->
           if list then begin
             print_backends ();
             `Ok ()
           end
           else `Help (`Pager, None))
      $ list_backends_arg))

let () =
  let info =
    Cmd.info "wfq_bench" ~version:"1.0"
      ~doc:
        "Benchmarks for the Kogan-Petrank wait-free queue reproduction \
         (PPoPP 2011)."
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
