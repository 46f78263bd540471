(* Scheduler test suite, in three tiers:

   1. Deterministic single-worker unit tests on real atomics: the
      [step]/[drain] core makes fiber interleaving a plain function of
      the run-queue's FIFO order, so spawn/yield/await orderings, the
      await fast path, exception routing and fiber-count conservation
      are all pinned exactly.
   2. Real parallel runs: [run] at 4 domains with conservation checks,
      and the deterministic 3-worker steal test pinning that an idle
      worker's sweep visits victims in {!Wfq_shard.Steal_order} order.
   3. The simulator plane: the same functor instantiated over
      [Sim_atomic], first deterministically (forwarding of the sim's
      yield-per-access effects through the scheduler's shallow
      handlers), then DPOR litmuses for the two racy hand-offs the
      scheduler adds on top of the queues — steal (two workers racing
      to dequeue the same fiber) and spawn/await/complete (waiter CAS
      vs completion exchange). No fiber may be lost or run twice. *)

module A = Wfq_primitives.Real_atomic
module SA = Wfq_sim.Sim_atomic
module S = Wfq_sim.Scheduler
module D = Wfq_sim.Dpor
module M = Wfq_obsv.Metrics
module Sched = Wfq_sched.Sched
(* Every run-queue comes through the uniform Rq_of adapter: registry
   entries by id, the sharded front-end through Shard.as_backend. *)
module Kp_backend = (val Wfq_core.Backends.find "kp-opt12")
module Fps_backend = (val Wfq_core.Backends.find "fps-pooled")
module Poly_backend = (val Wfq_core.Backends.find "polylog")

module Shard_backend =
  (val Wfq_shard.Shard.as_backend ~policy:Wfq_shard.Shard.Round_robin
         ~shards:2 "kp-opt12")

module Kp_sched = Sched.Make (A) (Sched.Rq_of (Kp_backend) (A))
module Fps_sched = Sched.Make (A) (Sched.Rq_of (Fps_backend) (A))
module Shard_sched = Sched.Make (A) (Sched.Rq_of (Shard_backend) (A))
module Sim_sched = Sched.Make (SA) (Sched.Rq_of (Kp_backend) (SA))
module Poly_sched = Sched.Make (A) (Sched.Rq_of (Poly_backend) (A))

exception Boom

(* ------------------------------------------------------------------ *)
(* Single-worker deterministic core                                    *)
(* ------------------------------------------------------------------ *)

let test_yield_ordering () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let _ =
    Kp_sched.submit t ~tid:0 (fun () ->
        log "A0";
        Kp_sched.yield ();
        log "A1")
  in
  let _ = Kp_sched.submit t ~tid:0 (fun () -> log "B") in
  let slices = Kp_sched.drain t ~tid:0 in
  (* A yields behind B: one FIFO run-queue fixes the order exactly. *)
  Alcotest.(check (list string))
    "yield goes behind the queue" [ "A0"; "B"; "A1" ] (List.rev !trace);
  Alcotest.(check int) "A took 2 slices, B took 1" 3 slices;
  Alcotest.(check int) "no fiber pending" 0 (Kp_sched.pending_fibers t);
  Alcotest.(check int) "2 spawned" 2 (Kp_sched.fibers_spawned t);
  Alcotest.(check int) "2 completed" 2 (Kp_sched.fibers_completed t)

let test_spawn_await_ordering () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        log "P0";
        let c =
          Kp_sched.spawn (fun () ->
              log "C";
              21 * 2)
        in
        let v = Kp_sched.await c in
        log "P1";
        v)
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  (* The parent runs up to the await, suspends (the child has not run
     yet), the child completes, the parent is woken with the value. *)
  Alcotest.(check (list string))
    "await suspends until the child completes" [ "P0"; "C"; "P1" ]
    (List.rev !trace);
  Alcotest.(check bool) "value delivered" true
    (Kp_sched.result pr = Some (Ok 42));
  Alcotest.(check int) "conservation" 0 (Kp_sched.pending_fibers t)

let test_await_completed_fast_path () =
  let t = Kp_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> log "C") in
        (* Two yields run the child to completion before the await, so
           the await takes the already-completed fast path: the parent
           continues in the same slice, no suspension. *)
        Kp_sched.yield ();
        Kp_sched.yield ();
        Kp_sched.await c;
        log "P")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  Alcotest.(check (list string)) "child first" [ "C"; "P" ] (List.rev !trace);
  Alcotest.(check bool) "done" true (Kp_sched.result pr = Some (Ok ()))

let test_conservation_tree () =
  (* A binary spawn tree of depth 4: 2^5 - 1 = 31 fibers, every one
     spawned and completed exactly once, result = leaf count. *)
  let t = Kp_sched.create ~num_workers:1 () in
  let module K = Kp_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  let pr = K.submit t ~tid:0 (fun () -> tree 4) in
  ignore (K.drain t ~tid:0 : int);
  Alcotest.(check bool) "16 leaves" true (K.result pr = Some (Ok 16));
  Alcotest.(check int) "31 fibers spawned" 31 (K.fibers_spawned t);
  Alcotest.(check int) "31 fibers completed" 31 (K.fibers_completed t);
  Alcotest.(check int) "none pending" 0 (K.pending_fibers t);
  Alcotest.(check int) "run-queue drained" 0 (K.run_queue_depth t 0)

let test_await_failed_child () =
  let t = Kp_sched.create ~num_workers:1 () in
  let pr =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> raise Boom) in
        match Kp_sched.await c with
        | () -> "returned"
        | exception Boom -> "caught")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  (* The child fails after the parent suspends: the wakeup is a Cancel
     task, re-raising Boom at the parent's await point. *)
  Alcotest.(check bool) "await re-raises the child's exception" true
    (Kp_sched.result pr = Some (Ok "caught"));
  Alcotest.(check int) "both fibers completed" 2 (Kp_sched.fibers_completed t);
  (* And the already-failed fast path: the promise is completed before
     the await, which must discontinue immediately. *)
  let pr2 =
    Kp_sched.submit t ~tid:0 (fun () ->
        let c = Kp_sched.spawn (fun () -> raise Boom) in
        Kp_sched.yield ();
        Kp_sched.yield ();
        match Kp_sched.await c with
        | () -> "returned"
        | exception Boom -> "caught late")
  in
  ignore (Kp_sched.drain t ~tid:0 : int);
  Alcotest.(check bool) "failed fast path re-raises too" true
    (Kp_sched.result pr2 = Some (Ok "caught late"))

let test_run_single_domain () =
  let t = Kp_sched.create ~num_workers:1 () in
  let module K = Kp_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  Alcotest.(check int) "run returns main's value" 8 (K.run t (fun () -> tree 3));
  Alcotest.(check int) "conservation" 0 (K.pending_fibers t)

let test_run_reraises () =
  let t = Kp_sched.create ~num_workers:1 () in
  Alcotest.check_raises "main's exception escapes run" Boom (fun () ->
      Kp_sched.run t (fun () -> raise Boom))

(* Same spawn/await tree on the Rq_of-adapted polylog run-queue: the
   registry backend drives the scheduler with no per-backend adapter. *)
let test_run_rq_of_polylog () =
  let t = Poly_sched.create ~num_workers:1 () in
  let module K = Poly_sched in
  let rec tree d =
    if d = 0 then 1
    else
      let a = K.spawn (fun () -> tree (d - 1)) in
      let b = K.spawn (fun () -> tree (d - 1)) in
      K.await a + K.await b
  in
  Alcotest.(check int) "run returns main's value" 8 (K.run t (fun () -> tree 3));
  Alcotest.(check int) "conservation" 0 (K.pending_fibers t)

(* ------------------------------------------------------------------ *)
(* Stealing                                                           *)
(* ------------------------------------------------------------------ *)

let test_steal_follows_steal_order () =
  (* Worker 0's queue is empty; queues 1 and 2 hold one fiber each. Its
     steal sweep must visit victims in Steal_order order: 1 then 2. *)
  let t = Kp_sched.create ~num_workers:3 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let _ = Kp_sched.submit t ~tid:1 (fun () -> log "q1") in
  let _ = Kp_sched.submit t ~tid:2 (fun () -> log "q2") in
  Alcotest.(check int) "queue 1 loaded" 1 (Kp_sched.run_queue_depth t 1);
  Alcotest.(check int) "queue 2 loaded" 1 (Kp_sched.run_queue_depth t 2);
  Alcotest.(check bool) "first step steals" true (Kp_sched.step t ~tid:0);
  Alcotest.(check (list string)) "victim 1 first" [ "q1" ] (List.rev !trace);
  Alcotest.(check bool) "second step steals" true (Kp_sched.step t ~tid:0);
  Alcotest.(check (list string))
    "then victim 2" [ "q1"; "q2" ] (List.rev !trace);
  Alcotest.(check bool) "then idle" false (Kp_sched.step t ~tid:0);
  Alcotest.(check int) "two wins" 2 (Kp_sched.steals_won t);
  (* 3 attempts: the two winning sweeps plus the final idle one. *)
  Alcotest.(check int) "three sweeps entered" 3 (Kp_sched.steal_attempts t)

let test_multidomain_stress () =
  (* 4 domains over the pooled fast-path/slow-path backend: a 32-wide
     fan-out with a yield inside each subfiber, summed by awaits.
     Everything beyond worker 0 arrives by stealing. *)
  let module F = Fps_sched in
  let t = F.create ~num_workers:4 () in
  let total =
    F.run t (fun () ->
        let ps =
          List.init 32 (fun i ->
              F.spawn (fun () ->
                  F.yield ();
                  i))
        in
        List.fold_left (fun acc p -> acc + F.await p) 0 ps)
  in
  Alcotest.(check int) "fan-out sum" 496 total;
  Alcotest.(check int) "33 spawned" 33 (F.fibers_spawned t);
  Alcotest.(check int) "33 completed" 33 (F.fibers_completed t);
  Alcotest.(check int) "none pending" 0 (F.pending_fibers t);
  let depths = List.init 4 (fun i -> F.run_queue_depth t i) in
  Alcotest.(check (list int)) "all queues drained" [ 0; 0; 0; 0 ] depths

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

(* The uniform RUN_QUEUE contract, exercised through all three
   backends: the scheduler's metrics dump must contain the scheduler
   counters plus, for every per-worker run-queue, its push/take
   counters and the backend-registered depth gauge. *)
let metric_names (module Sch : Sched.S) =
  let t = Sch.create ~num_workers:2 () in
  let reg = M.create () in
  Sch.register_metrics t reg ~prefix:"sched";
  let _ = Sch.submit t ~tid:0 (fun () -> Sch.yield ()) in
  ignore (Sch.drain t ~tid:0 : int);
  (reg, List.map fst (M.entries reg))

let test_metrics_dump_uniform () =
  List.iter
    (fun ((module Sch : Sched.S) as sch) ->
      let reg, names = metric_names sch in
      let expect n =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s registered" Sch.name n)
          true (List.mem n names)
      in
      List.iter expect
        [
          "sched.fibers_spawned";
          "sched.fibers_completed";
          "sched.steal_attempts";
          "sched.steals_won";
          "sched.pending_fibers";
        ];
      for i = 0 to 1 do
        List.iter expect
          [
            Printf.sprintf "sched.rq%d.pushes" i;
            Printf.sprintf "sched.rq%d.takes" i;
            Printf.sprintf "sched.rq%d.depth" i;
          ]
      done;
      Alcotest.(check (option int))
        (Sch.name ^ ": spawned total via registry")
        (Some 1)
        (M.value reg "sched.fibers_spawned");
      Alcotest.(check (option int))
        (Sch.name ^ ": rq0 drained")
        (Some 0)
        (M.value reg "sched.rq0.depth"))
    [
      (module Kp_sched : Sched.S);
      (module Fps_sched : Sched.S);
      (module Shard_sched : Sched.S);
    ]

let test_obsv_histograms () =
  let reg = M.create () in
  let obsv = Sched.metrics reg ~prefix:"sched" ~slots:1 in
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    !ticks * 100
  in
  let t = Kp_sched.create ~obsv ~clock ~num_workers:1 () in
  for _ = 1 to 3 do
    ignore (Kp_sched.submit t ~tid:0 (fun () -> ()))
  done;
  ignore (Kp_sched.drain t ~tid:0 : int);
  (match M.histogram_summary reg "sched.fiber_latency_ns" with
  | None -> Alcotest.fail "fiber latency histogram missing"
  | Some s ->
      Alcotest.(check int) "one latency sample per fiber" 3
        s.Wfq_obsv.Histogram.count;
      Alcotest.(check bool) "latencies positive" true
        (s.Wfq_obsv.Histogram.max > 0));
  match M.histogram_summary reg "sched.runq_depth" with
  | None -> Alcotest.fail "run-queue depth histogram missing"
  | Some s ->
      Alcotest.(check int) "one depth sample per push" 3
        s.Wfq_obsv.Histogram.count;
      (* Pushes happen back-to-back before the drain: depths 1, 2, 3. *)
      Alcotest.(check int) "max depth seen" 3 s.Wfq_obsv.Histogram.max

(* ------------------------------------------------------------------ *)
(* The simulator plane                                                *)
(* ------------------------------------------------------------------ *)

(* Deterministic sim run: the whole scheduler (KP run-queues included)
   executes inside one simulator fiber, every shared access forwarded
   through the scheduler's shallow handlers to the sim scheduler. This
   is the direct regression test for handler forwarding. *)
let test_sim_deterministic () =
  let t = Sim_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () ->
            log "P0";
            let c =
              Sim_sched.spawn (fun () ->
                  log "C";
                  7)
            in
            Sim_sched.yield ();
            let v = Sim_sched.await c in
            log "P1";
            v))
  in
  let r = S.run [| (fun () -> ignore (Sim_sched.drain t ~tid:0 : int)) |] in
  Alcotest.(check bool) "sim run completed" true (r.S.outcome = S.All_finished);
  Alcotest.(check (list string))
    "same ordering as on real atomics" [ "P0"; "C"; "P1" ]
    (List.rev !trace);
  Alcotest.(check bool) "value through sim plane" true
    (S.ignore_yields (fun () -> Sim_sched.result pr) = Some (Ok 7));
  Alcotest.(check int) "conservation" 0
    (S.ignore_yields (fun () -> Sim_sched.pending_fibers t))

(* DPOR litmus 1 — steal hand-off. One fiber is submitted to worker
   0's queue; both workers then race a single [step]: worker 0 dequeues
   locally while worker 1's sweep steals from the same queue. Under
   every interleaving exactly one of them must win the fiber. *)
let steal_litmus_make () =
  let t = Sim_sched.create ~num_workers:2 () in
  let hits = ref 0 in
  let pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () -> incr hits))
  in
  let worker tid () = ignore (Sim_sched.step t ~tid : bool) in
  let check (_ : S.result) =
    (* Quiescent completion of whatever the bounded steps left behind,
       then conservation: the fiber ran exactly once, nothing lost. *)
    S.ignore_yields (fun () ->
        ignore (Sim_sched.drain t ~tid:0 : int);
        if !hits <> 1 then
          Error (Printf.sprintf "fiber ran %d times" !hits)
        else if Sim_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_sched.fibers_completed t <> 1 then
          Error "completion not recorded"
        else
          match Sim_sched.result pr with
          | Some (Ok ()) -> Ok ()
          | _ -> Error "promise unfulfilled")
  in
  ([| worker 0; worker 1 |], check)

let test_dpor_steal_handoff () =
  let r = D.explore ~max_executions:200_000 ~make:steal_litmus_make () in
  (match r.D.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "steal hand-off violation: %s" m);
  Alcotest.(check bool) "trace space exhausted" true r.D.exhausted;
  Alcotest.(check bool) "non-trivial exploration" true (r.D.schedules > 1)

(* DPOR litmus 2 — spawn/await/complete hand-off. Worker 0 starts a
   parent that spawns a child and awaits it; worker 1 races to steal
   the child (or the parent's wakeup). Explores the waiter-CAS vs
   completion-exchange race on the promise cell: no lost wakeup, no
   double resume. *)
let await_litmus_make () =
  let t = Sim_sched.create ~num_workers:2 () in
  let got = ref (-1) in
  let _pr =
    S.ignore_yields (fun () ->
        Sim_sched.submit t ~tid:0 (fun () ->
            let c = Sim_sched.spawn (fun () -> 7) in
            got := Sim_sched.await c))
  in
  let worker tid steps () =
    for _ = 1 to steps do
      ignore (Sim_sched.step t ~tid : bool)
    done
  in
  let check (_ : S.result) =
    S.ignore_yields (fun () ->
        ignore (Sim_sched.drain t ~tid:0 : int);
        if !got <> 7 then Error (Printf.sprintf "await returned %d" !got)
        else if Sim_sched.pending_fibers t <> 0 then Error "fiber lost"
        else if Sim_sched.fibers_spawned t <> 2 then Error "spawn miscount"
        else if Sim_sched.fibers_completed t <> 2 then
          Error "completion miscount"
        else Ok ())
  in
  ([| worker 0 2; worker 1 2 |], check)

let test_dpor_await_handoff () =
  (* The access count here (two KP dequeue attempts per worker plus the
     promise protocol) puts exhaustion out of reach of a unit-test
     budget; a bounded clean pass is the acceptance bar, per the DPOR
     convention for large scenarios. *)
  let r = D.explore ~max_executions:25_000 ~make:await_litmus_make () in
  (match r.D.failure with
  | None -> ()
  | Some (_, m) -> Alcotest.failf "await hand-off violation: %s" m);
  Alcotest.(check bool) "explored a real schedule set" true
    (r.D.schedules > 100)

let () =
  Alcotest.run "sched"
    [
      ( "deterministic core",
        [
          Alcotest.test_case "yield ordering pinned" `Quick
            test_yield_ordering;
          Alcotest.test_case "spawn/await ordering + value" `Quick
            test_spawn_await_ordering;
          Alcotest.test_case "await completed fast path" `Quick
            test_await_completed_fast_path;
          Alcotest.test_case "fiber-count conservation (31-fiber tree)"
            `Quick test_conservation_tree;
          Alcotest.test_case "await re-raises child failure" `Quick
            test_await_failed_child;
          Alcotest.test_case "run at 1 domain" `Quick test_run_single_domain;
          Alcotest.test_case "run on Rq_of polylog run-queue" `Quick
            test_run_rq_of_polylog;
          Alcotest.test_case "run re-raises main's exception" `Quick
            test_run_reraises;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "sweep follows Steal_order" `Quick
            test_steal_follows_steal_order;
          Alcotest.test_case "4-domain fan-out stress" `Slow
            test_multidomain_stress;
        ] );
      ( "observability",
        [
          Alcotest.test_case "uniform metrics dump (3 backends)" `Quick
            test_metrics_dump_uniform;
          Alcotest.test_case "depth + latency histograms" `Quick
            test_obsv_histograms;
        ] );
      ( "sim",
        [
          Alcotest.test_case "deterministic run through sim plane" `Quick
            test_sim_deterministic;
          Alcotest.test_case "dpor: steal hand-off" `Slow
            test_dpor_steal_handoff;
          Alcotest.test_case "dpor: spawn/await/complete hand-off" `Slow
            test_dpor_await_handoff;
        ] );
    ]
