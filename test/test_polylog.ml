(* Polylog tournament-tree queue (Wfq_core.Polylog_queue): sequential
   and batch semantics, white-box probes, real-domain stress, and the
   model-checked litmuses — DPOR linearizability, the seeded
   No_double_refresh fault, and the certified step bound whose growth
   with p the crossover bench compares against KP. *)

module A = Wfq_primitives.Real_atomic
module P = Wfq_core.Polylog_queue.Make (A)
module Ck = Wfq_sim.Check

(* ------------------------------------------------------------------ *)
(* Sequential semantics *)
(* ------------------------------------------------------------------ *)

let test_fifo_basics () =
  let q = P.create ~num_threads:1 () in
  Alcotest.(check bool) "fresh empty" true (P.is_empty q);
  Alcotest.(check (option int)) "deq on empty" None (P.dequeue q ~tid:0);
  List.iter (P.enqueue q ~tid:0) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length 5" 5 (P.length q);
  Alcotest.(check (list int)) "contents" [ 1; 2; 3; 4; 5 ] (P.to_list q);
  Alcotest.(check (option int)) "deq 1" (Some 1) (P.dequeue q ~tid:0);
  P.enqueue q ~tid:0 6;
  Alcotest.(check (list int)) "mixed" [ 2; 3; 4; 5; 6 ] (P.to_list q);
  for i = 2 to 6 do
    Alcotest.(check (option int)) "drain" (Some i) (P.dequeue q ~tid:0)
  done;
  Alcotest.(check (option int)) "empty again" None (P.dequeue q ~tid:0);
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Random op sequences across all tids must match Stdlib.Queue. *)
let test_differential () =
  let threads = 3 in
  let q = P.create ~num_threads:threads () in
  let model = Queue.create () in
  let rng = Wfq_primitives.Rng.create ~seed:7 in
  for i = 1 to 3_000 do
    let tid = Wfq_primitives.Rng.below rng threads in
    if Wfq_primitives.Rng.bool rng then begin
      P.enqueue q ~tid i;
      Queue.push i model
    end
    else if P.dequeue q ~tid <> Queue.take_opt model then
      Alcotest.failf "diverged from model at op %d" i
  done;
  Alcotest.(check (list int))
    "final contents"
    (List.of_seq (Queue.to_seq model))
    (P.to_list q);
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_batch_ops () =
  let q = P.create ~num_threads:2 () in
  P.enqueue_batch q ~tid:0 [ 1; 2; 3 ];
  P.enqueue_batch q ~tid:1 [ 4; 5 ];
  Alcotest.(check int) "5 queued" 5 (P.length q);
  Alcotest.(check (list int)) "batch order" [ 1; 2; 3 ] (P.dequeue_batch q ~tid:1 ~n:3);
  Alcotest.(check (list int)) "short batch" [ 4; 5 ] (P.dequeue_batch q ~tid:0 ~n:10);
  Alcotest.(check (list int)) "empty batch" [] (P.dequeue_batch q ~tid:0 ~n:4);
  P.enqueue_batch q ~tid:0 [];
  Alcotest.(check bool) "noop empty batch" true (P.is_empty q);
  Alcotest.check_raises "negative n" (Invalid_argument "Polylog_queue.dequeue_batch: n")
    (fun () -> ignore (P.dequeue_batch q ~tid:0 ~n:(-1)));
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_generic_payload () =
  let q = P.create ~num_threads:1 () in
  P.enqueue q ~tid:0 "alpha";
  P.enqueue q ~tid:0 "beta";
  Alcotest.(check (option string)) "string" (Some "alpha") (P.dequeue q ~tid:0);
  Alcotest.(check (option string)) "string 2" (Some "beta") (P.dequeue q ~tid:0)

let test_probes () =
  let q = P.create ~num_threads:3 () in
  Alcotest.(check int) "leaves = next pow2" 4 (P.Probe.leaves q);
  Alcotest.(check int) "no root blocks yet" 0 (P.Probe.root_blocks q);
  P.enqueue q ~tid:2 1;
  Alcotest.(check bool) "root advanced" true (P.Probe.root_blocks q >= 1);
  Alcotest.(check int) "tid 2 announced" 1 (P.Probe.leaf_blocks q ~tid:2);
  Alcotest.(check int) "tid 0 idle" 0 (P.Probe.leaf_blocks q ~tid:0);
  Alcotest.(check int) "root size" 1 (P.Probe.root_size q)

(* Many empty dequeues then refill: the null-dequeue accounting (deqs
   counted in sum_deq but not sum_removed) must not corrupt later
   indexes. *)
let test_empty_runs () =
  let q = P.create ~num_threads:2 () in
  for _ = 1 to 20 do
    Alcotest.(check (option int)) "still empty" None (P.dequeue q ~tid:1)
  done;
  P.enqueue q ~tid:0 42;
  Alcotest.(check (option int)) "revived" (Some 42) (P.dequeue q ~tid:1);
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Real domains *)
(* ------------------------------------------------------------------ *)

let test_domains_pairs () =
  let threads = 4 and iters = 2_000 in
  let q = P.create ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              P.enqueue q ~tid ((tid * iters) + i);
              match P.dequeue q ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join ds;
  (* Strict FIFO: a dequeue that follows the same thread's enqueue can
     never observe empty. *)
  Alcotest.(check int) "no empties in pairs" 0 (Atomic.get empties);
  Alcotest.(check int) "drained" 0 (P.length q);
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_domains_batch () =
  let threads = 4 and rounds = 300 and k = 8 in
  let q = P.create ~num_threads:threads () in
  let got = Array.make threads 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for r = 1 to rounds do
              P.enqueue_batch q ~tid
                (List.init k (fun i -> (tid * 1_000_000) + (r * k) + i));
              got.(tid) <-
                got.(tid) + List.length (P.dequeue_batch q ~tid ~n:k)
            done))
  in
  List.iter Domain.join ds;
  let total = Array.fold_left ( + ) 0 got in
  Alcotest.(check int) "conservation"
    (threads * rounds * k)
    (total + P.length q);
  match P.check_quiescent_invariants q with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Model checking *)
(* ------------------------------------------------------------------ *)

let sim_ops ?fault () =
  Ck.backend
    (Wfq_core.Backends.make ~id:"polylog-litmus" ~label:"polylog"
       (Polylog { fault }))

let run_litmus ?fault ?init ?mode ?(max_schedules = 400_000) scripts =
  Ck.run ?mode ~max_schedules ?init ~queue:(sim_ops ?fault ()) ~scripts ()

let expect_clean name (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted

(* Leaf announce / root merge race: two threads, enq vs deq. *)
let test_dpor_enq_deq () =
  expect_clean "enq|deq" (run_litmus [ [ `Enq 1 ]; [ `Deq ] ])

(* Root hand-off: both threads contend on the same root slot with
   mixed programs. Four ~50-step ops put full DPOR past 400k traces, so
   this one certifies under a preemption budget instead (the same
   fallback the Help_all KP variants use). *)
let test_dpor_pairs () =
  expect_clean "pairs"
    (run_litmus ~mode:(Ck.Preemption_bounded 2)
       [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ])

(* Dequeue-index resolution race: dequeues racing each other over a
   pre-filled queue must resolve distinct indexes. *)
let test_dpor_deq_deq () =
  expect_clean "deq|deq" (run_litmus ~init:[ 7 ] [ [ `Deq ]; [ `Deq ] ])

(* Batch blocks through the same tree: atomic batch enqueue vs batch
   dequeue. *)
let test_dpor_batch () =
  expect_clean "batch"
    (run_litmus [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 2 ] ])

(* The seeded fault: single refresh per level breaks the double-refresh
   lemma, so some schedule leaves an announced block unmerged and the
   op spins for its root position — the checker must report it (as a
   livelock / step-limit hit), proving the litmus has teeth. *)
let test_fault_caught () =
  let r =
    run_litmus ~fault:Wfq_core.Polylog_queue.No_double_refresh
      ~max_schedules:400_000
      [ [ `Enq 1 ]; [ `Enq 2; `Deq ] ]
  in
  match r.Ck.failure with
  | Some _ -> ()
  | None ->
      Alcotest.fail "No_double_refresh survived every explored schedule"

(* Wait-freedom certification at p = 2 (the crossover bench extends
   this to p = 3, 4 and compares growth against KP). *)
let certified_step_bound = 160

let test_certified () =
  match
    Ck.certify ~mode:Ck.Dpor ~max_schedules:400_000
      ~bound:certified_step_bound ~queue:(sim_ops ())
      ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
      ()
  with
  | Error m -> Alcotest.fail m
  | Ok c ->
      Alcotest.(check bool)
        (Printf.sprintf "observed max %d within certified bound %d"
           c.Ck.observed_bound certified_step_bound)
        true
        (c.Ck.observed_bound <= certified_step_bound)

let () =
  Alcotest.run "polylog"
    [
      ( "sequential",
        [
          Alcotest.test_case "fifo basics" `Quick test_fifo_basics;
          Alcotest.test_case "differential vs model" `Quick test_differential;
          Alcotest.test_case "batch ops" `Quick test_batch_ops;
          Alcotest.test_case "generic payload" `Quick test_generic_payload;
          Alcotest.test_case "probes" `Quick test_probes;
          Alcotest.test_case "empty runs" `Quick test_empty_runs;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pairs stress" `Quick test_domains_pairs;
          Alcotest.test_case "batch conservation" `Quick test_domains_batch;
        ] );
      ( "model-checked",
        [
          Alcotest.test_case "enq|deq litmus" `Quick test_dpor_enq_deq;
          Alcotest.test_case "pairs litmus" `Quick test_dpor_pairs;
          Alcotest.test_case "deq|deq litmus" `Quick test_dpor_deq_deq;
          Alcotest.test_case "batch litmus" `Quick test_dpor_batch;
          Alcotest.test_case "seeded fault caught" `Quick test_fault_caught;
          Alcotest.test_case "step bound certified" `Quick test_certified;
        ] );
    ]
