(* Model checking the queue algorithms under the deterministic simulator.

   The queues are instantiated with Sim_atomic, so every shared access is
   a scheduling point; scenarios are explored with preemption-bounded
   systematic search (every schedule with <= N preemptions) plus seeded
   random fuzzing, and every explored interleaving's history must be
   linearizable against the sequential FIFO spec.

   Also here: the paper's progress claims, made observable —
   - helping: a thread stalled mid-operation still gets its operation
     completed by peers (wait-freedom's mechanism, §3.1);
   - step bounds: no KP operation exceeds a schedule-independent step
     bound, while the MS queue admits schedules whose enqueue step count
     grows with the interference (lock-freedom only). *)

module S = Wfq_sim.Scheduler
module SA = Wfq_sim.Sim_atomic
module E = Wfq_sim.Explore
module Ck = Wfq_sim.Check
module Bk = Wfq_core.Backends

module Ms = Wfq_core.Ms_queue.Make (SA)
module Kp = Wfq_core.Kp_queue.Make (SA)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (SA)

(* The queues under test, each with the conservation and
   linearizability checks of {!Ck.run} on every explored schedule (and
   a registry backend's quiescent structural audit). *)
let ms =
  Ck.queue
    ~create:(fun ~num_threads -> Ms.create ~num_threads ())
    ~enqueue:Ms.enqueue ~dequeue:Ms.dequeue ~contents:Ms.to_list ()

let kp_base =
  Ck.backend (Bk.make ~id:"kp-base" ~label:"base WF" (Kp Bk.kp_base))
let kp_opt12 = Ck.backend (Bk.find "kp-opt12")

(* [scan_threshold = 1] so recycling happens even in short simulated
   scenarios — maximal reuse pressure on the HP protocol. *)
let kp_hp =
  Ck.queue
    ~create:(fun ~num_threads -> Kp_hp.create ~scan_threshold:1 ~num_threads ())
    ~enqueue:Kp_hp.enqueue ~dequeue:Kp_hp.dequeue ~contents:Kp_hp.to_list
    ~audit:Kp_hp.check_quiescent_invariants ()

(* The paper's other two policy points, each optimisation alone. *)
let kp_opt1 =
  Ck.backend (Bk.make ~id:"kp-opt1" ~label:"opt WF (1)" (Kp Bk.kp_opt1))
let kp_opt2 =
  Ck.backend (Bk.make ~id:"kp-opt2" ~label:"opt WF (2)" (Kp Bk.kp_opt2))

(* The registered successors. The ring gets 8 slots, room for every
   element a scenario enqueues, so [enqueue] never meets a full ring. *)
let fps = Ck.backend (Bk.find "fps")
let polylog = Ck.backend (Bk.find "polylog")
let ring =
  Ck.backend
    (Bk.make ~id:"ring-8" ~label:"WF ring 8"
       (Ring { Bk.ring with capacity = 8 }))

(* [run] fails the test on a counterexample, shrunk. *)
let run ?max_schedules mode queue scripts =
  let r = Ck.run ~mode ?max_schedules ~queue ~scripts () in
  (match r.Ck.failure with
  | Some f -> Alcotest.failf "%a" Ck.pp_failure f
  | None -> ());
  r

let scenarios : (string * Ck.script list) list =
  [
    ("2x enq race", [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    ("enq vs deq on empty", [ [ `Enq 1 ]; [ `Deq ] ]);
    ("2x deq on singleton", [ [ `Deq ]; [ `Deq; `Enq 9 ] ]);
    ("pairs x2", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
    ("producer/consumer", [ [ `Enq 1; `Enq 2 ]; [ `Deq; `Deq ] ]);
    ("three-way", [ [ `Enq 1 ]; [ `Enq 2 ]; [ `Deq; `Deq; `Deq ] ]);
  ]

let explore_case name queue (scen_name, scripts) budget ~schedules =
  Alcotest.test_case
    (Printf.sprintf "%s: %s (<=%d preemptions)" name scen_name budget)
    `Quick
    (fun () ->
      let r =
        run ~max_schedules:60_000 (Ck.Preemption_bounded budget) queue scripts
      in
      Alcotest.(check bool) "search exhausted" true r.Ck.exhausted;
      Alcotest.(check int) "schedules explored" schedules r.Ck.schedules)

let fuzz_case name queue (scen_name, scripts) count =
  Alcotest.test_case
    (Printf.sprintf "%s: %s (fuzz %d)" name scen_name count)
    `Quick
    (fun () -> ignore (run (Ck.Fuzz { seed0 = 0; count }) queue scripts))

(* A queue's systematic cases, with the schedules each explores in
   [scenarios] order: exploring a queue through another scenario
   builder must not change them. Two-fiber scenarios are explored with
   every schedule of <= 2 preemptions; the three-fiber scenario with
   <= 1 (the schedule count at budget 2 exceeds the per-test cap for
   the help-all variants, whose operations scan the whole state
   array). *)
let systematic name queue pinned =
  List.map2
    (fun ((_, scripts) as scen) schedules ->
      explore_case name queue scen ~schedules
        (if List.length scripts >= 3 then 1 else 2))
    scenarios pinned

let systematic_tests =
  systematic "ms" ms [ 70; 58; 94; 274; 204; 142 ]
  @ systematic "kp-base" kp_base [ 1324; 1488; 2263; 6415; 4864; 698 ]
  @ systematic "kp-opt12" kp_opt12 [ 1155; 1209; 1883; 6211; 4685; 626 ]
  @ systematic "kp-hp" kp_hp [ 3032; 2757; 3724; 14753; 10578; 924 ]
  @ systematic "kp-opt1" kp_opt1 [ 1155; 1209; 1883; 6211; 4685; 656 ]
  @ systematic "kp-opt2" kp_opt2 [ 1324; 1488; 2263; 6415; 4864; 668 ]
  @ systematic "fps" fps [ 98; 97; 175; 514; 354; 192 ]
  @ systematic "ring" ring [ 68; 42; 63; 234; 152; 124 ]
  @ systematic "polylog" polylog [ 1872; 3565; 8357; 20662; 14216; 2322 ]

let pct_case name queue (scen_name, scripts) count =
  Alcotest.test_case
    (Printf.sprintf "%s: %s (pct %d)" name scen_name count)
    `Quick
    (fun () ->
      ignore (run (Ck.Pct { count; change_points = 3 }) queue scripts))

let fuzz_tests =
  let big_scenarios : (string * Ck.script list) list =
    [
      ( "4 threads mixed",
        [
          [ `Enq 1; `Deq; `Enq 2 ];
          [ `Deq; `Enq 3; `Deq ];
          [ `Enq 4; `Enq 5; `Deq ];
          [ `Deq; `Deq; `Enq 6 ];
        ] );
      ( "bursty",
        [
          [ `Enq 1; `Enq 2; `Enq 3; `Deq; `Deq; `Deq ];
          [ `Deq; `Deq; `Enq 7; `Enq 8; `Deq; `Deq ];
          [ `Enq 4; `Deq; `Enq 5; `Deq; `Enq 6; `Deq ];
        ] );
    ]
  in
  let cases name queue =
    List.map (fun scen -> fuzz_case name queue scen 400) big_scenarios
    @ List.map (fun scen -> pct_case name queue scen 150) big_scenarios
  in
  cases "ms" ms @ cases "kp-base" kp_base @ cases "kp-opt12" kp_opt12
  @ cases "kp-hp" kp_hp @ cases "kp-opt1" kp_opt1 @ cases "kp-opt2" kp_opt2
  @ cases "fps" fps @ cases "ring" ring @ cases "polylog" polylog

(* ---------------------------------------------------------------- *)
(* Regression: help_finish_deq descriptor/head read ordering          *)
(* ---------------------------------------------------------------- *)

(* A stale helper suspended in help_finish_deq between reading
   [first.deq_tid] and re-validating [head == first] must not complete
   the owner's NEXT dequeue with THIS dequeue's value. The bug shape
   needs the same thread to dequeue twice with a helper around; the
   buggy ordering (validate head before reading the descriptor, as this
   repository's HP variant briefly did) is found by this exploration in
   a few thousand schedules, and by PCT within ~40 runs. *)
let test_hp_finish_deq_ordering_regression () =
  let r =
    run ~max_schedules:60_000 (Ck.Preemption_bounded 2) kp_hp
      [ [ `Enq 1; `Enq 2; `Deq; `Deq ]; [ `Deq ] ]
  in
  Alcotest.(check bool) "exhausted" true r.Ck.exhausted;
  Alcotest.(check int) "schedules explored" 12_919 r.Ck.schedules

let test_hp_finish_deq_ordering_regression_pct () =
  ignore
    (run
       (Ck.Pct { count = 1500; change_points = 4 })
       kp_hp
       [ [ `Enq 1; `Enq 2; `Enq 3 ]; [ `Deq; `Deq ]; [ `Deq ] ])

(* ---------------------------------------------------------------- *)
(* Helping: a stalled thread's operation completes anyway            *)
(* ---------------------------------------------------------------- *)

(* Thread 0 publishes an enqueue and stalls after [stall_at] steps;
   thread 1 runs a full operation. If thread 0 got far enough to publish
   its descriptor, the element must be IN THE QUEUE even though thread 0
   never ran again. We scan all stall points covering the whole operation
   and assert that, from the publication point on, helping completes the
   operation. *)
let test_kp_helping_completes_stalled_enqueue () =
  (* Determine the step length of an uncontended enqueue. *)
  let probe =
    S.run
      [|
        (fun () ->
          let q = Kp.create ~num_threads:2 () in
          Kp.enqueue q ~tid:0 1);
      |]
  in
  let op_steps = probe.S.steps.(0) in
  Alcotest.(check bool) "operation is non-trivial" true (op_steps > 5);
  let helped = ref 0 in
  for stall_at = 1 to op_steps - 1 do
    let q = Kp.create ~num_threads:2 () in
    let fibers =
      [|
        (fun () -> Kp.enqueue q ~tid:0 111);
        (fun () -> Kp.enqueue q ~tid:1 222);
      |]
    in
    let res = S.run ~stalls:[ (0, stall_at) ] fibers in
    (match res.S.outcome with
    | S.Only_stalled_left | S.All_finished -> ()
    | S.Step_limit_hit | S.Aborted ->
        Alcotest.fail "helper failed to make progress");
    let contents = S.ignore_yields (fun () -> Kp.to_list q) in
    (* Thread 1's own operation must always complete (wait-freedom). *)
    Alcotest.(check bool)
      (Printf.sprintf "222 present (stall@%d)" stall_at)
      true
      (List.mem 222 contents);
    if List.mem 111 contents then incr helped
  done;
  (* The descriptor is published within the first few steps; from then on
     helpers must finish the stalled operation. *)
  Alcotest.(check bool)
    (Printf.sprintf "helping occurred at most stall points (%d/%d)" !helped
       (op_steps - 1))
    true
    (!helped >= op_steps - 1 - 6)

let test_kp_helping_completes_stalled_dequeue () =
  let probe =
    S.run
      [|
        (fun () ->
          let q = Kp.create ~num_threads:2 () in
          Kp.enqueue q ~tid:0 1;
          Kp.enqueue q ~tid:0 2;
          ignore (Kp.dequeue q ~tid:0));
      |]
  in
  let total_steps = probe.S.steps.(0) in
  let helped = ref 0 and attempts = ref 0 in
  for stall_at = 1 to total_steps - 1 do
    let q = Kp.create ~num_threads:2 () in
    (* Pre-fill sequentially inside fiber 0 before its dequeue. *)
    let fibers =
      [|
        (fun () ->
          Kp.enqueue q ~tid:0 1;
          Kp.enqueue q ~tid:0 2;
          ignore (Kp.dequeue q ~tid:0));
        (fun () -> ignore (Kp.dequeue q ~tid:1));
      |]
    in
    let res = S.run ~stalls:[ (0, stall_at) ] fibers in
    (match res.S.outcome with
    | S.Only_stalled_left | S.All_finished -> ()
    | S.Step_limit_hit | S.Aborted ->
        Alcotest.fail "helper failed to make progress");
    incr attempts;
    (* Thread 1's dequeue always completes; if thread 0 stalls after both
       its enqueues finished and its dequeue descriptor was published,
       the combined dequeues must have removed both elements. *)
    let contents = S.ignore_yields (fun () -> Kp.to_list q) in
    if List.length contents = 0 then incr helped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "stalled dequeues helped to completion (%d/%d)" !helped
       !attempts)
    true (!helped > 0)

(* MS contrast: stalling the enqueuer before its linearizing CAS simply
   loses the operation — nobody can help, because nothing was published.
   (After the CAS, MS's lazy tail fix IS helped; both facts checked.) *)
let test_ms_stalled_enqueue_not_helped () =
  let q0 = Ms.create ~num_threads:2 () in
  ignore q0;
  let lost = ref 0 and completed = ref 0 in
  let probe =
    S.run
      [|
        (fun () ->
          let q = Ms.create ~num_threads:2 () in
          Ms.enqueue q ~tid:0 1);
      |]
  in
  let op_steps = probe.S.steps.(0) in
  for stall_at = 1 to op_steps - 1 do
    let q = Ms.create ~num_threads:2 () in
    let fibers =
      [|
        (fun () -> Ms.enqueue q ~tid:0 111);
        (fun () -> Ms.enqueue q ~tid:1 222);
      |]
    in
    ignore (S.run ~stalls:[ (0, stall_at) ] fibers);
    let contents = S.ignore_yields (fun () -> Ms.to_list q) in
    Alcotest.(check bool) "peer op completes (lock-freedom)" true
      (List.mem 222 contents);
    if List.mem 111 contents then incr completed else incr lost
  done;
  Alcotest.(check bool) "some stall points lose the op entirely" true
    (!lost > 0)

(* ---------------------------------------------------------------- *)
(* Step bounds: wait-freedom vs lock-freedom                         *)
(* ---------------------------------------------------------------- *)

(* Thread 0 performs ONE enqueue while thread 1 performs [k] enqueues.
   Over many adversarial (seeded random) schedules, record the maximum
   number of steps thread 0 needed. For the wait-free queue this bound
   must not grow with k; for the MS queue it does (each interference can
   fail thread 0's CAS). *)
let max_steps_one_vs_k ~make_fibers k seeds =
  let worst = ref 0 in
  for seed = 0 to seeds - 1 do
    let fibers = make_fibers k in
    let res = S.run ~strategy:(S.Random_seeded seed) fibers in
    (match res.S.error with
    | Some e -> Alcotest.fail (Printexc.to_string e)
    | None -> ());
    worst := max !worst res.S.steps.(0)
  done;
  !worst

let kp_fibers k =
  let q = Kp.create ~num_threads:2 () in
  [|
    (fun () -> Kp.enqueue q ~tid:0 0);
    (fun () ->
      for i = 1 to k do
        Kp.enqueue q ~tid:1 i
      done);
  |]

let ms_fibers k =
  let q = Ms.create ~num_threads:2 () in
  [|
    (fun () -> Ms.enqueue q ~tid:0 0);
    (fun () ->
      for i = 1 to k do
        Ms.enqueue q ~tid:1 i
      done);
  |]

let test_kp_steps_bounded () =
  let seeds = 300 in
  let w5 = max_steps_one_vs_k ~make_fibers:kp_fibers 5 seeds in
  let w50 = max_steps_one_vs_k ~make_fibers:kp_fibers 50 seeds in
  (* Wait-freedom: the worst case must not scale with the peer's op
     count. Allow constant slack for scheduling noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "KP worst steps stable: k=5 -> %d, k=50 -> %d" w5 w50)
    true
    (w50 <= (2 * w5) + 16)

(* The hazard-pointer hooks must keep the queue wait-free. Fiber 0
   runs one step for every [ratio] steps of fibers 1 and 2, which do
   enqueue/dequeue pairs the whole time; fiber 0 enqueues once and
   dequeues once. Its operations are published early and completed by
   the others' helping, so it must return while they are still running,
   after a number of its own steps that does not grow with how long they
   run. A head or tail read that retried its publish-and-re-read until
   two reads agreed would spin here: the others move both cells between
   any two of fiber 0's reads. *)
let hp_starved_run ~ratio ~rounds =
  let q = Kp_hp.create ~scan_threshold:1 ~num_threads:3 () in
  let peer_ops = ref 0 in
  let peer_ops_when_done = ref (-1) in
  let got = ref None in
  let peer tid () =
    for i = 1 to rounds do
      Kp_hp.enqueue q ~tid ((tid * 1000) + i);
      ignore (Kp_hp.dequeue q ~tid);
      incr peer_ops
    done
  in
  let fibers =
    [|
      (fun () ->
        Kp_hp.enqueue q ~tid:0 0;
        got := Some (Kp_hp.dequeue q ~tid:0);
        peer_ops_when_done := !peer_ops);
      peer 1;
      peer 2;
    |]
  in
  let turn = ref 0 in
  let guide (ctx : S.guided_ctx) =
    incr turn;
    let ids = List.map fst ctx.S.g_enabled in
    let others = List.filter (fun id -> id <> 0) ids in
    let pick =
      if others = [] || (List.mem 0 ids && !turn mod (ratio + 1) = 0) then 0
      else List.nth others (!turn mod List.length others)
    in
    Option.get (List.find_index (fun id -> id = pick) ids)
  in
  let res = S.run ~strategy:(S.Guided guide) fibers in
  (match res.S.error with
  | Some e -> Alcotest.fail (Printexc.to_string e)
  | None -> ());
  Alcotest.(check bool) "all fibers finished" true
    (res.S.outcome = S.All_finished);
  (match S.ignore_yields (fun () -> Kp_hp.check_quiescent_invariants q) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "fiber 0 dequeued something" true
    (match !got with Some (Some _) -> true | _ -> false);
  (res.S.steps.(0), !peer_ops_when_done)

let test_hp_starved_fiber_returns () =
  let ratio = 100 in
  let short_steps, _ = hp_starved_run ~ratio ~rounds:50 in
  let long_steps, peer_ops = hp_starved_run ~ratio ~rounds:400 in
  Alcotest.(check bool)
    (Printf.sprintf "fiber 0 returned after %d of 800 peer operations"
       peer_ops)
    true
    (peer_ops >= 0 && peer_ops < 800);
  Alcotest.(check bool)
    (Printf.sprintf "fiber 0 steps stable: 100 peer ops -> %d, 800 -> %d"
       short_steps long_steps)
    true
    (long_steps <= (2 * short_steps) + 16)

let test_ms_steps_grow_with_interference () =
  let seeds = 300 in
  let w2 = max_steps_one_vs_k ~make_fibers:ms_fibers 2 seeds in
  let w80 = max_steps_one_vs_k ~make_fibers:ms_fibers 80 seeds in
  (* Lock-freedom only: adversarial schedules make thread 0 retry; worst
     case grows with available interference. *)
  Alcotest.(check bool)
    (Printf.sprintf "MS worst steps grow: k=2 -> %d, k=80 -> %d" w2 w80)
    true (w80 > w2)

(* The paper's rationale for optimization 1: under contention, Help_all
   lets every thread pile onto the same pending operation, wasting total
   work. Measure system-wide steps for the same workload under both
   helping policies across random schedules: the cyclic policy must do
   less total work on average. *)
let test_help_all_wastes_total_work () =
  let total_steps help seed =
    let q =
      Bk.instantiate_with (module SA)
        (Bk.make ~id:"kp-help" ~label:"kp-help" (Kp { Bk.kp with help }))
        ~num_threads:6 ()
    in
    let fibers =
      Array.init 6 (fun tid () ->
          for i = 1 to 2 do
            q.enq ~tid ((tid * 10) + i);
            ignore (q.deq ~tid)
          done)
    in
    let res = S.run ~strategy:(S.Random_seeded seed) fibers in
    (match res.S.error with
    | Some e -> Alcotest.fail (Printexc.to_string e)
    | None -> ());
    res.S.total_steps
  in
  let seeds = 80 in
  let avg help =
    let sum = ref 0 in
    for seed = 0 to seeds - 1 do
      sum := !sum + total_steps help seed
    done;
    float_of_int !sum /. float_of_int seeds
  in
  let all = avg Wfq_core.Kp_queue.Help_all
  and cyclic = avg Wfq_core.Kp_queue.Help_one_cyclic in
  Alcotest.(check bool)
    (Printf.sprintf "help-all total work %.0f > cyclic %.0f" all cyclic)
    true (all > cyclic)

(* ---------------------------------------------------------------- *)
(* qcheck: randomly generated scenarios, fuzzed schedules            *)
(* ---------------------------------------------------------------- *)

(* Generate 2-3 scripts of up to 3 ops each; enqueue values are made
   unique by position so delivered-twice bugs are visible. *)
type script = [ `Enq of int | `Deq ] list

let scripts_gen =
  QCheck2.Gen.(
    let* threads = int_range 2 3 in
    let* codes = list_size (int_range 2 9) (int_bound 2) in
    let scripts = Array.make threads [] in
    List.iteri
      (fun i code ->
        let tid = i mod threads in
        let op = if code = 2 then `Deq else `Enq (100 + i) in
        scripts.(tid) <- op :: scripts.(tid))
      codes;
    return (Array.to_list (Array.map List.rev scripts)))

let print_scripts scripts =
  String.concat " | "
    (List.map
       (fun script ->
         String.concat ";"
           (List.map
              (function `Enq v -> Printf.sprintf "E%d" v | `Deq -> "D")
              script))
       scripts)

let qcheck_case name queue =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:(name ^ ": random scenarios stay linearizable")
       ~count:30 ~print:print_scripts scripts_gen
       (fun (scripts : script list) ->
         let r =
           Ck.run
             ~mode:(Ck.Fuzz { seed0 = 0; count = 25 })
             ~queue ~scripts:(scripts :> Ck.script list) ()
         in
         match r.Ck.failure with
         | None -> true
         | Some f -> QCheck2.Test.fail_reportf "%a" Ck.pp_failure f))

let qcheck_tests =
  [
    qcheck_case "kp-base" kp_base;
    qcheck_case "kp-opt12" kp_opt12;
    qcheck_case "kp-hp" kp_hp;
  ]

let () =
  Alcotest.run "sim-queues"
    [
      ("systematic (preemption-bounded)", systematic_tests);
      ("fuzz (random schedules)", fuzz_tests);
      ("qcheck scenarios", qcheck_tests);
      ( "regressions",
        [
          Alcotest.test_case "hp finish_deq ordering (systematic)" `Quick
            test_hp_finish_deq_ordering_regression;
          Alcotest.test_case "hp finish_deq ordering (pct)" `Quick
            test_hp_finish_deq_ordering_regression_pct;
        ] );
      ( "progress",
        [
          Alcotest.test_case "KP stalled enqueue is helped" `Quick
            test_kp_helping_completes_stalled_enqueue;
          Alcotest.test_case "KP stalled dequeue is helped" `Quick
            test_kp_helping_completes_stalled_dequeue;
          Alcotest.test_case "MS stalled enqueue is lost" `Quick
            test_ms_stalled_enqueue_not_helped;
          Alcotest.test_case "KP step bound independent of interference"
            `Quick test_kp_steps_bounded;
          Alcotest.test_case "KP-HP starved fiber returns while peers run"
            `Quick test_hp_starved_fiber_returns;
          Alcotest.test_case "MS steps grow with interference" `Quick
            test_ms_steps_grow_with_interference;
          Alcotest.test_case "Help_all wastes total work (opt-1 rationale)"
            `Quick test_help_all_wastes_total_work;
        ] );
    ]
