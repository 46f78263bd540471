(* Ring_queue (bounded wait-free MPMC ring) tests:

   - creation validation and the bounded API surface (try_enqueue /
     Ring_full / dequeue-on-empty) on capacity-1 and small rings;
   - wraparound past 2*capacity, sequentially on both paths (fast and
     all-slow), with white-box Probe checks that slot positions and
     hints track the lap count;
   - DPOR model checking of the protocol corners the conc-queue suite
     does not already cover: the stage-1 claim/rollback race between
     two slow enqueues, the helping hand-off between two slow
     dequeues, the dequeue-on-empty race, and wraparound under
     [`Try_enq] on a capacity-1 ring — each explored to exhaustion
     with the wait-freedom certifier and the quiescent audit on;
   - the seeded [Rollback_skipped] fault: the checker must find the
     duplicate-install schedule and shrink it;
   - an 8-domain conservation stress on real atomics at capacity 8
     (peak occupancy == capacity, so the run crosses thousands of
     laps);
   - the [?obsv] metrics contract and the [register_metrics] gauges. *)

module A = Wfq_primitives.Real_atomic
module Ck = Wfq_sim.Check
module Rq = Wfq_core.Ring_queue
module Ring = Rq.Make (A)
module M = Wfq_obsv.Metrics

let check_audit name q =
  match Ring.check_quiescent_invariants q with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: quiescent audit: %s" name e

(* ------------------------------------------------------------------ *)
(* Creation and sequential semantics                                  *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let invalid name f = Alcotest.check_raises name (Invalid_argument name) f in
  invalid "Ring_queue.create: num_threads" (fun () ->
      ignore (Ring.create ~num_threads:0 ()));
  invalid "Ring_queue.create: capacity" (fun () ->
      ignore (Ring.create_with ~capacity:0 ~num_threads:1 ()));
  invalid "Ring_queue.create: capacity" (fun () ->
      ignore (Ring.create_with ~capacity:(-4) ~num_threads:1 ()));
  invalid "Ring_queue.create: max_failures" (fun () ->
      ignore (Ring.create_with ~max_failures:(-1) ~num_threads:1 ()));
  let q = Ring.create ~num_threads:1 () in
  Alcotest.(check int) "default capacity" Rq.default_capacity (Ring.capacity q);
  Alcotest.(check string) "name" "ring" Ring.name;
  (* max_failures = 0 is legal: the all-slow-path configuration. *)
  let q0 = Ring.create_with ~capacity:2 ~max_failures:0 ~num_threads:1 () in
  Alcotest.(check int) "all-slow capacity" 2 (Ring.capacity q0)

let test_sequential_fifo () =
  let q = Ring.create_with ~capacity:8 ~num_threads:1 () in
  Alcotest.(check bool) "fresh is empty" true (Ring.is_empty q);
  for i = 1 to 6 do
    Ring.enqueue q ~tid:0 i
  done;
  Alcotest.(check int) "length" 6 (Ring.length q);
  Alcotest.(check (list int)) "to_list oldest first" [ 1; 2; 3; 4; 5; 6 ]
    (Ring.to_list q);
  check_audit "after burst" q;
  for i = 1 to 6 do
    Alcotest.(check (option int))
      (Printf.sprintf "deq %d" i)
      (Some i) (Ring.dequeue q ~tid:0)
  done;
  Alcotest.(check (option int)) "empty after drain" None (Ring.dequeue q ~tid:0);
  Alcotest.(check bool) "is_empty" true (Ring.is_empty q);
  check_audit "after drain" q

(* With [~max_failures:0] every answer, full and empty included, comes
   from a published descriptor driven by the helpers. *)
let test_capacity_one ?max_failures () =
  let q = Ring.create_with ~capacity:1 ?max_failures ~num_threads:1 () in
  Alcotest.(check bool) "accepts first" true (Ring.try_enqueue q ~tid:0 7);
  Alcotest.(check bool) "rejects second" false (Ring.try_enqueue q ~tid:0 8);
  Alcotest.check_raises "enqueue raises on full" Rq.Ring_full (fun () ->
      Ring.enqueue q ~tid:0 9);
  Alcotest.(check int) "still one element" 1 (Ring.length q);
  Alcotest.(check (option int)) "the element" (Some 7) (Ring.dequeue q ~tid:0);
  Alcotest.(check (option int)) "then empty" None (Ring.dequeue q ~tid:0);
  Alcotest.(check bool) "accepts again" true (Ring.try_enqueue q ~tid:0 10);
  check_audit "capacity-1" q

(* Wraparound past 2*capacity: twelve pairs through a 4-slot ring cross
   the position space three full laps. Uncontended hint CASes always
   succeed, so the hints and the slots' stored positions are exact. *)
let test_wraparound_fast () =
  let cap = 4 in
  let q = Ring.create_with ~capacity:cap ~num_threads:1 () in
  for i = 1 to 3 * cap do
    Ring.enqueue q ~tid:0 (100 + i);
    Alcotest.(check (option int))
      (Printf.sprintf "pair %d" i)
      (Some (100 + i))
      (Ring.dequeue q ~tid:0)
  done;
  Alcotest.(check int) "tail crossed 2*capacity" (3 * cap) (Ring.Probe.tail q);
  Alcotest.(check int) "head caught up" (3 * cap) (Ring.Probe.head q);
  for j = 0 to cap - 1 do
    match Ring.Probe.slot_state q j with
    | `Free p ->
        Alcotest.(check int)
          (Printf.sprintf "slot %d free at lap-3 position" j)
          ((3 * cap) + j) p
    | `Full _ | `Taken _ -> Alcotest.failf "slot %d not free" j
  done;
  check_audit "after three laps" q

(* The same laps with max_failures = 0: every operation publishes a
   descriptor and completes through the helping machinery. *)
let test_wraparound_all_slow () =
  let cap = 2 in
  let q = Ring.create_with ~capacity:cap ~max_failures:0 ~num_threads:2 () in
  for lap = 0 to 2 do
    for j = 1 to cap do
      Ring.enqueue q ~tid:(j mod 2) ((10 * lap) + j)
    done;
    for j = 1 to cap do
      Alcotest.(check (option int))
        (Printf.sprintf "lap %d deq %d" lap j)
        (Some ((10 * lap) + j))
        (Ring.dequeue q ~tid:(j mod 2))
    done
  done;
  Alcotest.(check int) "positions past 2*capacity" (3 * cap)
    (Ring.Probe.tail q);
  Alcotest.(check bool) "no descriptor left pending" false
    (Ring.Probe.desc_pending q 0 || Ring.Probe.desc_pending q 1);
  check_audit "all-slow laps" q

let test_probe_fresh () =
  let q = Ring.create_with ~capacity:4 ~num_threads:2 () in
  Alcotest.(check int) "head hint" 0 (Ring.Probe.head q);
  Alcotest.(check int) "tail hint" 0 (Ring.Probe.tail q);
  for j = 0 to 3 do
    match Ring.Probe.slot_state q j with
    | `Free p -> Alcotest.(check int) "slot position" j p
    | _ -> Alcotest.failf "fresh slot %d not free" j
  done;
  Ring.enqueue q ~tid:1 42;
  Alcotest.(check int) "tail advanced" 1 (Ring.Probe.tail q);
  (match Ring.Probe.slot_state q 0 with
  | `Full (p, tid) ->
      Alcotest.(check int) "installed at position 0" 0 p;
      Alcotest.(check int) "fast-path install carries tid -1" (-1) tid
  | _ -> Alcotest.fail "slot 0 not full");
  Alcotest.(check bool) "no pending descriptor" false
    (Ring.Probe.desc_pending q 0 || Ring.Probe.desc_pending q 1)

(* ------------------------------------------------------------------ *)
(* DPOR litmuses (sim atomics)                                        *)
(* ------------------------------------------------------------------ *)

(* Every row judges against the bounded spec at the ring's capacity and
   runs the ring's quiescent structural audit after each schedule. *)
let ring_sim_ops ?fault ~capacity ~max_failures () =
  Ck.backend
    (Wfq_core.Backends.make ~id:"ring-litmus" ~label:"ring"
       (Ring { capacity; max_failures; fault }))

let check_clean name (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted

(* Two all-slow-path enqueues racing for the same position: stage-1
   claims collide and exactly one must roll back without losing either
   value. *)
let test_dpor_claim_rollback () =
  check_clean "claim/rollback (enq|enq, mf=0)"
    (Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~step_bound:200
       ~queue:(ring_sim_ops ~capacity:2 ~max_failures:0 ())
       ~scripts:[ [ `Enq 1 ]; [ `Enq 2 ] ]
       ())

(* Two all-slow-path dequeues over one element: one must win the
   hand-off (the helper publishes the value into the loser-or-winner's
   descriptor before freeing the slot), the other must observe empty. *)
let test_dpor_help_handoff () =
  check_clean "helping hand-off (deq|deq over one element, mf=0)"
    (Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~step_bound:200
       ~init:[ 1 ]
       ~queue:(ring_sim_ops ~capacity:2 ~max_failures:0 ())
       ~scripts:[ [ `Deq ]; [ `Deq ] ]
       ())

(* Dequeue racing a slow enqueue on an initially empty capacity-1 ring:
   None is legal only when the dequeue linearizes before the insert. *)
let test_dpor_empty_race () =
  check_clean "dequeue-on-empty race (capacity 1, mf=0)"
    (Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~step_bound:200
       ~queue:(ring_sim_ops ~capacity:1 ~max_failures:0 ())
       ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
       ())

(* Wraparound under contention: three bounded inserts chase three
   dequeues through a capacity-1 ring, so accepted positions cross
   2*capacity and every acceptance/rejection must match the bounded
   spec at its linearization point. *)
let test_dpor_wraparound () =
  check_clean "wraparound past 2*capacity (capacity 1)"
    (Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~step_bound:200
       ~queue:(ring_sim_ops ~capacity:1 ~max_failures:1 ())
       ~scripts:[ [ `Try_enq 1; `Try_enq 2; `Try_enq 3 ]; [ `Deq; `Deq; `Deq ] ]
       ())

(* The seeded bug: a slow-path enqueue helper rolls a claim back
   without checking that its own install landed, so the value is
   installed twice. DPOR must find the schedule and shrink it. *)
let test_dpor_fault_found () =
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:50_000 ~step_bound:200
      ~queue:
        (ring_sim_ops ~fault:Rq.Rollback_skipped ~capacity:1 ~max_failures:0
           ())
      ~scripts:[ [ `Try_enq 1 ]; [ `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None ->
      Alcotest.fail "seeded Rollback_skipped fault not detected"
  | Some f ->
      Alcotest.(check bool)
        "counterexample shrunk" true
        (f.Ck.shrunk <> None)

(* ------------------------------------------------------------------ *)
(* 8-domain conservation stress (real atomics)                        *)
(* ------------------------------------------------------------------ *)

(* Pairs over a ring whose capacity equals the peak occupancy (one
   in-flight element per domain): every slot is contended on every lap
   and the run crosses [iters] laps. mf=1 keeps the slow path hot.
   try_enqueue can meet a momentarily full ring (another domain's
   element occupying the slot), so inserts retry; dequeues retry on
   transient empty. Conservation and per-producer order are checked on
   the merged logs, as in test_queues_conc. *)
let test_stress_8_domains () =
  let domains = 8 and iters = 2_000 in
  let q =
    Ring.create_with ~capacity:domains ~max_failures:1 ~num_threads:domains ()
  in
  let encode ~producer ~seq = (producer * 1_000_000) + seq in
  let logs = Array.make domains [] in
  let worker tid () =
    let got = ref [] in
    for seq = 1 to iters do
      while not (Ring.try_enqueue q ~tid (encode ~producer:tid ~seq)) do
        Domain.cpu_relax ()
      done;
      let rec take () =
        match Ring.dequeue q ~tid with
        | Some v -> got := v :: !got
        | None ->
            Domain.cpu_relax ();
            take ()
      in
      take ()
    done;
    logs.(tid) <- List.rev !got
  in
  let ds = List.init domains (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  let total = domains * iters in
  let seen = Hashtbl.create total in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.failf "value %d dequeued twice" v;
         Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int) "every value dequeued exactly once" total
    (Hashtbl.length seen);
  Alcotest.(check int) "ring empty" 0 (Ring.length q);
  Array.iter
    (fun log ->
      let last_seq = Array.make domains 0 in
      List.iter
        (fun v ->
          let p = v / 1_000_000 and s = v mod 1_000_000 in
          if s <= last_seq.(p) then
            Alcotest.failf "per-producer order violated (p%d: %d after %d)" p
              s last_seq.(p);
          last_seq.(p) <- s)
        log)
    logs;
  check_audit "post-stress" q

(* ------------------------------------------------------------------ *)
(* Observability contract                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics () =
  let reg = M.create () in
  let obsv = Rq.metrics reg ~prefix:"ring" ~slots:1 in
  let q =
    Ring.create_with ~capacity:4 ~max_failures:0 ~obsv ~num_threads:1 ()
  in
  for i = 1 to 4 do
    Ring.enqueue q ~tid:0 i
  done;
  Alcotest.(check bool) "full ring rejects" false (Ring.try_enqueue q ~tid:0 5);
  ignore (Ring.dequeue q ~tid:0);
  let value name =
    match M.value reg name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s not registered" name
  in
  Alcotest.(check bool) "slow entries counted (mf=0 forces slow path)" true
    (value "ring.slow_entries" > 0);
  Alcotest.(check bool) "full rejection counted" true
    (value "ring.full_rejections" >= 1);
  Alcotest.(check bool) "occupancy histogram sampled" true
    (value "ring.occupancy" > 0);
  Ring.register_metrics q reg ~prefix:"ring";
  Alcotest.(check int) "depth gauge" 3 (value "ring.depth");
  Alcotest.(check int) "capacity gauge" 4 (value "ring.capacity")

let () =
  Alcotest.run "ring-queue"
    [
      ( "sequential",
        [
          Alcotest.test_case "create validation / defaults" `Quick
            test_create_validation;
          Alcotest.test_case "FIFO, length, to_list, audit" `Quick
            test_sequential_fifo;
          Alcotest.test_case "capacity-1: full / Ring_full / reuse" `Quick
            test_capacity_one;
          Alcotest.test_case
            "capacity-1: full / Ring_full / reuse (all slow path)" `Quick
            (test_capacity_one ~max_failures:0);
          Alcotest.test_case "wraparound past 2*capacity (fast path)" `Quick
            test_wraparound_fast;
          Alcotest.test_case "wraparound past 2*capacity (all slow path)"
            `Quick test_wraparound_all_slow;
          Alcotest.test_case "probe: fresh state and first install" `Quick
            test_probe_fresh;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "claim/rollback race exhausted" `Quick
            test_dpor_claim_rollback;
          Alcotest.test_case "helping hand-off exhausted" `Quick
            test_dpor_help_handoff;
          Alcotest.test_case "dequeue-on-empty race exhausted" `Quick
            test_dpor_empty_race;
          Alcotest.test_case "wraparound litmus exhausted" `Quick
            test_dpor_wraparound;
          Alcotest.test_case "seeded rollback-skipped fault found + shrunk"
            `Quick test_dpor_fault_found;
        ] );
      ( "stress",
        [
          Alcotest.test_case "8-domain conservation at capacity 8" `Quick
            test_stress_8_domains;
        ] );
      ( "obsv",
        [ Alcotest.test_case "metrics contract" `Quick test_metrics ] );
    ]
