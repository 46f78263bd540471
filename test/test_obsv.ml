(* Tests for the Wfq_obsv observability layer and the counter-migration
   bugfixes that ride on it:

   - counter/histogram/metrics unit behaviour, including the exactness
     contract: single-writer Counter slots and multi-writer
     Shared_counter slots both sum to exact totals at quiescence;
   - the Registry.acquisitions fix — the old plain [int array] dropped
     increments under concurrent acquire; the Shared_counter replacement
     must account every acquisition exactly;
   - the Shard.check_quiescent_invariants fix — the check must be
     impossible to fail spuriously while operations are in flight;
   - Phase_counter per-thread phase monotonicity, with the lost-bump
     CAS counter surfacing footnote-3 races instead of losing them;
   - DPOR/scheduler invisibility: instrumented queues perform the same
     shared-memory steps as plain ones (obsv cells are plain OCaml
     slots, not Sim_atomic cells), and metric reads take no scheduler
     steps at all — they cannot deadlock or linearize into queue
     operations. *)

module O = Wfq_obsv
module S = Wfq_sim.Scheduler
module SA = Wfq_sim.Sim_atomic
module Ck = Wfq_sim.Check
module KpSim = Wfq_core.Kp_queue.Make (SA)
module Kp = Wfq_core.Kp_queue.Make (Wfq_primitives.Real_atomic)
module Fq = Wfq_core.Kp_queue_fps.Make (Wfq_primitives.Real_atomic)
module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Counter / Shared_counter units                                     *)
(* ------------------------------------------------------------------ *)

let test_counter_basic () =
  let c = O.Counter.create ~slots:3 () in
  Alcotest.(check int) "fresh total" 0 (O.Counter.total c);
  O.Counter.incr c ~slot:0;
  O.Counter.add c ~slot:2 41;
  O.Counter.incr c ~slot:2;
  Alcotest.(check int) "slot 0" 1 (O.Counter.slot_value c ~slot:0);
  Alcotest.(check int) "slot 1" 0 (O.Counter.slot_value c ~slot:1);
  Alcotest.(check int) "slot 2" 42 (O.Counter.slot_value c ~slot:2);
  Alcotest.(check int) "total" 43 (O.Counter.total c);
  Alcotest.(check (array int)) "snapshot" [| 1; 0; 42 |]
    (O.Counter.snapshot c);
  Alcotest.check_raises "slots <= 0"
    (Invalid_argument "Obsv.Counter.create: slots") (fun () ->
      ignore (O.Counter.create ~slots:0 ()))

(* The single-writer contract end to end on real domains: one domain
   per slot, exact totals once the writers join. *)
let test_counter_single_writer_exact () =
  let domains = 4 and n = 25_000 in
  let c = O.Counter.create ~slots:domains () in
  Array.init domains (fun slot ->
      Domain.spawn (fun () ->
          for _ = 1 to n do
            O.Counter.incr c ~slot
          done))
  |> Array.iter Domain.join;
  Alcotest.(check int) "exact total" (domains * n) (O.Counter.total c);
  Array.iter
    (fun v -> Alcotest.(check int) "exact slot" n v)
    (O.Counter.snapshot c)

(* Shared_counter tolerates what Counter forbids: many domains on the
   SAME slot, still exact. This is the mechanism behind the
   Registry.acquisitions fix. *)
let test_shared_counter_multi_writer_exact () =
  let domains = 4 and n = 25_000 in
  let c = O.Shared_counter.create ~slots:2 () in
  Array.init domains (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to n do
            O.Shared_counter.incr c ~slot:0
          done))
  |> Array.iter Domain.join;
  Alcotest.(check int) "exact contended slot" (domains * n)
    (O.Shared_counter.slot_value c ~slot:0);
  Alcotest.(check int) "exact total" (domains * n) (O.Shared_counter.total c)

(* ------------------------------------------------------------------ *)
(* Histogram units                                                    *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %d" v)
        b (O.Histogram.bucket_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (1 lsl 40, 40) ]

let test_histogram_summary () =
  let h = O.Histogram.create ~slots:2 () in
  for _ = 1 to 97 do
    O.Histogram.record h ~slot:0 1
  done;
  for _ = 1 to 3 do
    O.Histogram.record h ~slot:1 1_000_000
  done;
  let s = O.Histogram.summary h in
  Alcotest.(check int) "count" 100 s.O.Histogram.count;
  Alcotest.(check int) "max exact" 1_000_000 s.O.Histogram.max;
  Alcotest.(check bool) "p50 in low bucket" true (s.O.Histogram.p50 <= 2.0);
  Alcotest.(check bool) "p99 reaches the outlier bucket" true
    (s.O.Histogram.p99 >= 500_000.0);
  Alcotest.(check int) "merged sums to count" 100
    (Array.fold_left ( + ) 0 (O.Histogram.merged h))

(* Direct quantile reads — the open-loop latency engine reads
   p50/p99/p99.9 straight off the recording the metrics registry
   snapshots, so the bucket-representative arithmetic is pinned here. *)
let test_histogram_percentile () =
  let h = O.Histogram.create ~slots:1 () in
  Alcotest.(check (float 0.0)) "empty histogram" 0.0
    (O.Histogram.percentile h 99.0);
  (* 999 samples in bucket 9 (512..1023), 1 sample in bucket 20: p99.9
     has rank 1000 and must walk into the outlier bucket, whose
     representative is 1.5 * 2^20. *)
  for _ = 1 to 999 do
    O.Histogram.record h ~slot:0 600
  done;
  O.Histogram.record h ~slot:0 (1 lsl 20);
  let repr b = 1.5 *. float_of_int (1 lsl b) in
  Alcotest.(check (float 0.0)) "p50 bucket representative" (repr 9)
    (O.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p99 still in main bucket" (repr 9)
    (O.Histogram.percentile h 99.0);
  Alcotest.(check (float 0.0)) "p99.9 reaches the outlier" (repr 20)
    (O.Histogram.percentile h 99.9);
  Alcotest.(check (float 0.0)) "p100 = top occupied bucket" (repr 20)
    (O.Histogram.percentile h 100.0);
  (* representative is within its bucket: 1.5x-accurate for any sample *)
  Alcotest.(check bool) "p50 within 1.5x of the exact median" true
    (repr 9 /. 600.0 <= 1.5 && 600.0 /. repr 9 <= 1.5);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Obsv.Histogram.percentile: p out of range")
    (fun () -> ignore (O.Histogram.percentile h 100.5))

(* ------------------------------------------------------------------ *)
(* Metrics registry units                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let reg = O.Metrics.create () in
  let c = O.Metrics.counter reg ~name:"q.events" ~slots:2 in
  let h = O.Metrics.histogram reg ~name:"q.lat" ~slots:2 in
  O.Metrics.gauge reg ~name:"q.depth" (fun () -> 7);
  O.Counter.add c ~slot:1 5;
  O.Histogram.record h ~slot:0 3;
  Alcotest.(check (option int)) "counter value" (Some 5)
    (O.Metrics.value reg "q.events");
  Alcotest.(check (option int)) "gauge value" (Some 7)
    (O.Metrics.value reg "q.depth");
  Alcotest.(check (option int)) "histogram count as value" (Some 1)
    (O.Metrics.value reg "q.lat");
  Alcotest.(check (option int)) "missing" None (O.Metrics.value reg "nope");
  Alcotest.(check int) "entries in registration order" 3
    (List.length (O.Metrics.entries reg));
  (match O.Metrics.histogram_summary reg "q.lat" with
  | Some s -> Alcotest.(check int) "summary count" 1 s.O.Histogram.count
  | None -> Alcotest.fail "histogram_summary");
  let json = O.Metrics.to_json reg in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("json has " ^ sub) true (contains_sub json sub))
    [ "\"q.events\""; "\"q.lat\""; "\"q.depth\""; "\"total\": 5" ];
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Obsv.Metrics.register: duplicate metric q.events")
    (fun () -> ignore (O.Metrics.counter reg ~name:"q.events" ~slots:1))

(* ------------------------------------------------------------------ *)
(* Satellite: Registry.acquisitions exactness under churn             *)
(* ------------------------------------------------------------------ *)

let test_registry_churn_exact () =
  let domains = 4 and rounds = 10_000 in
  let rg = Wfq_registry.Registry.create ~capacity:domains in
  Array.init domains (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to rounds do
            Wfq_registry.Registry.with_tid rg (fun (_ : int) -> ())
          done))
  |> Array.iter Domain.join;
  (* The old plain int array lost increments exactly here: [domains]
     writers bumping the same hot slots. Exact or the fix regressed. *)
  Alcotest.(check int) "every acquisition accounted" (domains * rounds)
    (Wfq_registry.Registry.total_acquisitions rg);
  Alcotest.(check int) "none held" 0 (Wfq_registry.Registry.held rg)

(* ------------------------------------------------------------------ *)
(* Satellite: shard check cannot fail spuriously mid-flight           *)
(* ------------------------------------------------------------------ *)

let test_shard_check_never_spurious () =
  let workers = 2 in
  let t =
    Sh.create ~policy:Wfq_shard.Shard.Round_robin ~shards:4
      ~num_threads:workers ()
  in
  let stop = Atomic.make false in
  let doms =
    Array.init workers (fun tid ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              Sh.enqueue t ~tid !i;
              ignore (Sh.dequeue t ~tid : int option)
            done))
  in
  (* Hammer the checker while operations are genuinely in flight: the
     quiescence witness must turn every mid-flight snapshot into a
     vacuous Ok, never an Error. *)
  for _ = 1 to 20_000 do
    match Sh.check_quiescent_invariants t with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("spurious mid-flight failure: " ^ m)
  done;
  Atomic.set stop true;
  Array.iter Domain.join doms;
  (* At real quiescence the check is live again and must still pass. *)
  Alcotest.(check bool) "no ops in flight" false (Sh.in_flight t);
  match Sh.check_quiescent_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("quiescent failure: " ^ m)

(* ------------------------------------------------------------------ *)
(* Satellite: Phase_counter monotonicity + lost-bump visibility       *)
(* ------------------------------------------------------------------ *)

(* Footnote 3's result-ignored CAS may lose the bump (two threads share
   a phase) but each thread's own phase sequence must still strictly
   increase: the counter ends >= the claimed phase whether or not the
   CAS won. The obsv counter makes the losses visible; the probe makes
   the monotonicity checkable. *)
let test_phase_counter_monotone () =
  let workers = 3 and per = 5_000 in
  let reg = O.Metrics.create () in
  let q =
    Kp.create_with
      ~obsv:(Wfq_core.Kp_queue.metrics reg ~prefix:"kp" ~slots:workers)
      ~help:Wfq_core.Kp_queue.Help_one_cyclic
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:workers ()
  in
  let ok = Array.make workers true in
  Array.init workers (fun tid ->
      Domain.spawn (fun () ->
          let last = ref (-1) in
          for i = 1 to per do
            Kp.enqueue q ~tid i;
            let p = Kp.phase_of q ~tid in
            if p <= !last then ok.(tid) <- false;
            last := p;
            ignore (Kp.dequeue q ~tid : int option);
            let p = Kp.phase_of q ~tid in
            if p <= !last then ok.(tid) <- false;
            last := p
          done))
  |> Array.iter Domain.join;
  Array.iteri
    (fun tid good ->
      Alcotest.(check bool)
        (Printf.sprintf "tid %d phases strictly increase" tid)
        true good)
    ok;
  (* The lost-bump counter exists and is consistent: lost bumps cannot
     exceed the number of phase claims that raced for the counter. *)
  match O.Metrics.value reg "kp.phase_cas_lost" with
  | None -> Alcotest.fail "kp.phase_cas_lost not registered"
  | Some lost ->
      Alcotest.(check bool) "lost bumps within bound" true
        (lost >= 0 && lost <= 2 * workers * per)

(* ------------------------------------------------------------------ *)
(* Satellite: DPOR / scheduler invisibility of the obsv plane         *)
(* ------------------------------------------------------------------ *)

let kp_ops ~obsv =
  Ck.queue
    ~create:(fun ~num_threads ->
      let obsv =
        if obsv then
          Some
            (Wfq_core.Kp_queue.metrics (O.Metrics.create ()) ~prefix:"kp"
               ~slots:num_threads)
        else None
      in
      KpSim.create_with ?obsv ~help:Wfq_core.Kp_queue.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads ())
    ~enqueue:KpSim.enqueue ~dequeue:KpSim.dequeue ~contents:KpSim.to_list ()

(* Obsv cells are plain OCaml slots, not Sim_atomic cells: an
   instrumented queue takes the same shared-memory steps as a plain
   one, so DPOR explores the same Mazurkiewicz traces with the same
   per-fiber step counts. If instrumentation ever grew a shared atomic,
   the schedule count would shift and this pins it. *)
let test_dpor_invisibility () =
  let explore obsv =
    Ck.run ~mode:Ck.Dpor ~max_schedules:200_000 ~queue:(kp_ops ~obsv)
      ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
      ()
  in
  let plain = explore false and inst = explore true in
  (match inst.Ck.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "instrumented exploration failed: %a" Ck.pp_failure f);
  Alcotest.(check bool) "both exhausted" true
    (plain.Ck.exhausted && inst.Ck.exhausted);
  Alcotest.(check int) "same schedule count" plain.Ck.schedules
    inst.Ck.schedules;
  Alcotest.(check int) "same max fiber steps" plain.Ck.max_fiber_steps
    inst.Ck.max_fiber_steps

(* Same property at the raw scheduler level, plus the reader side: a
   fiber that snapshots metrics concurrently with queue operations
   performs zero shared accesses — it cannot block, be blocked, or
   perturb the queue fibers' schedule. *)
let test_scheduler_steps_and_reader () =
  let reg = O.Metrics.create () in
  let observed = ref (-1) in
  let run ~obsv ~reader =
    let obsv =
      if obsv then
        Some (Wfq_core.Kp_queue.metrics (O.Metrics.create ()) ~prefix:"kp"
                ~slots:2)
      else None
    in
    let q =
      KpSim.create_with ?obsv ~help:Wfq_core.Kp_queue.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:2 ()
    in
    let f0 () = KpSim.enqueue q ~tid:0 1 in
    let f1 () = ignore (KpSim.dequeue q ~tid:1 : int option) in
    let fibers =
      if reader then
        [| f0; f1;
           (fun () ->
             (* Plain loads only: no Sim_atomic access, no yield. *)
             observed := List.length (O.Metrics.entries reg))
        |]
      else [| f0; f1 |]
    in
    S.run ~strategy:S.First_enabled fibers
  in
  let plain = run ~obsv:false ~reader:false in
  let inst = run ~obsv:true ~reader:false in
  Alcotest.(check bool) "plain finished" true
    (plain.S.outcome = S.All_finished);
  Alcotest.(check bool) "instrumented finished" true
    (inst.S.outcome = S.All_finished);
  Alcotest.(check int) "identical scheduler step count" plain.S.total_steps
    inst.S.total_steps;
  let withr = run ~obsv:true ~reader:true in
  Alcotest.(check bool) "reader run finished" true
    (withr.S.outcome = S.All_finished);
  Alcotest.(check bool) "reader completed" true (!observed >= 0);
  (* The reader fiber contributes only its startup slice: metric reads
     are invisible to the schedule. *)
  Alcotest.(check int) "reader takes one scheduler step" 1
    withr.S.steps.(2);
  Alcotest.(check int) "queue fibers unperturbed"
    (inst.S.steps.(0) + inst.S.steps.(1))
    (withr.S.steps.(0) + withr.S.steps.(1))

(* ------------------------------------------------------------------ *)
(* Instrumented end-to-end smoke: metrics actually populate           *)
(* ------------------------------------------------------------------ *)

let test_instrumented_fps_populates () =
  let workers = 2 and per = 2_000 in
  let reg = O.Metrics.create () in
  let q =
    Fq.create_with ~max_failures:0
      ~obsv:(Wfq_core.Kp_queue_fps.metrics reg ~prefix:"fps" ~slots:workers)
      ~help:Wfq_core.Kp_queue.Help_one_cyclic
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:workers ()
  in
  Fq.register_metrics q reg ~prefix:"fps";
  Array.init workers (fun tid ->
      Domain.spawn (fun () ->
          for i = 1 to per do
            Fq.enqueue q ~tid i;
            ignore (Fq.dequeue q ~tid : int option)
          done))
  |> Array.iter Domain.join;
  (* max_failures = 0: every operation must take the slow path, and the
     always-on counters agree with the registry view exactly. *)
  Alcotest.(check int) "all ops slow" (2 * workers * per)
    (Fq.slow_path_entries q);
  Alcotest.(check (option int)) "registry sees the same"
    (Some (2 * workers * per))
    (O.Metrics.value reg "fps.slow_entries");
  Alcotest.(check (option int)) "no fast hits" (Some 0)
    (O.Metrics.value reg "fps.fast_hits")

(* ------------------------------------------------------------------ *)
(* One metric set for the Kogan-Petrank family                        *)
(* ------------------------------------------------------------------ *)

(* Both KP registry configurations run the same helping engine, so both
   export its metrics under the same names; fps adds its fast-path
   diagnostics and always-on path counters next to them. *)
let kp_core_metrics =
  [ "help_events"; "phase_lag"; "desc_cas_failures"; "phase_cas_lost";
    "batch_size"; "depth" ]

let family_metrics =
  [
    ("kp-opt12", kp_core_metrics);
    ( "fps-pooled",
      kp_core_metrics
      @ [ "fast_rounds"; "claim_handoffs"; "batch_cas"; "slow_entries";
          "fast_hits"; "nodes.reused" ] );
  ]

let test_family_metrics_registered (id, names) () =
  let reg = O.Metrics.create () in
  let q =
    Wfq_core.Backends.instantiate_with
      (module Wfq_primitives.Real_atomic)
      (Wfq_core.Backends.find id) ~obsv:(reg, id) ~num_threads:2 ()
  in
  q.Wfq_core.Queue_intf.enq ~tid:0 1;
  ignore (q.deq ~tid:1 : int option);
  List.iter
    (fun n ->
      let name = id ^ "." ^ n in
      Alcotest.(check bool) (name ^ " registered") true
        (O.Metrics.value reg name <> None))
    names

let () =
  Alcotest.run "obsv"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "single-writer exact" `Quick
            test_counter_single_writer_exact;
          Alcotest.test_case "shared multi-writer exact" `Quick
            test_shared_counter_multi_writer_exact;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "summary" `Quick test_histogram_summary;
          Alcotest.test_case "direct percentile reads" `Quick
            test_histogram_percentile;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "bugfixes",
        [
          Alcotest.test_case "registry churn exact" `Quick
            test_registry_churn_exact;
          Alcotest.test_case "shard check never spurious" `Quick
            test_shard_check_never_spurious;
          Alcotest.test_case "phase counter monotone" `Quick
            test_phase_counter_monotone;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "dpor traces identical" `Quick
            test_dpor_invisibility;
          Alcotest.test_case "scheduler steps + racy reader" `Quick
            test_scheduler_steps_and_reader;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fps metrics populate" `Quick
            test_instrumented_fps_populates;
        ] );
      ( "kp-family",
        List.map
          (fun ((id, _) as row) ->
            Alcotest.test_case (id ^ " metric names") `Quick
              (test_family_metrics_registered row))
          family_metrics );
    ]
