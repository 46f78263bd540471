(* Tail-latency comparison — why wait-freedom matters for deadline-bound
   systems (the paper's §1 motivation: real-time applications, SLAs,
   heterogeneous execution environments).

   Several worker domains run enqueue-dequeue pairs while we record the
   latency of every operation pair. A blocking queue lets one preempted
   lock holder stall everyone (tail explodes); the non-blocking queues
   bound the damage, and the wait-free queue additionally bounds each
   individual thread's work.

   The fewer cores the host has for the domains, the more often a lock
   holder is preempted: the adversarial environment for blocking designs.

     dune exec examples/realtime_latency.exe
*)

module I = Wfq_harness.Impls
module L = Wfq_harness.Latency

let threads = 4
let iters = 20_000

let () =
  Printf.printf
    "per-operation latency, %d domains x %d pairs (microseconds; \
     enqueue / dequeue timed separately)\n\n"
    threads iters;
  Printf.printf "%-16s %-4s %10s %10s %10s %12s\n" "queue" "op" "p50" "p99"
    "p99.9" "max";
  List.iter
    (fun impl ->
      let s = L.measure ~threads ~iters impl in
      let row op (d : L.dist) =
        Printf.printf "%-16s %-4s %10.2f %10.2f %10.2f %12.2f\n"
          (I.name impl) op d.L.p50 d.L.p99 d.L.p999 d.L.max
      in
      row "enq" s.L.enqueue;
      row "deq" s.L.dequeue)
    [ I.lf; I.wf_base; I.wf_opt12; I.mutex ];
  print_newline ();
  if Domain.recommended_domain_count () <= 1 then
    print_endline
      "Note: on a single-core host every queue's max latency is dominated\n\
       by the measuring thread itself being preempted mid-operation, so\n\
       the blocking/non-blocking distinction is not visible here. The\n\
       rigorous demonstration of bounded per-thread work lives in the\n\
       deterministic-simulator tests (test/test_sim_queues.ml) and in\n\
       `wfq_check stall`."
  else
    print_endline
      "Expected shape: similar medians, but the blocking queue's tail\n\
       (max) stretches to whole scheduling quanta when a lock holder is\n\
       preempted, while the non-blocking queues stay within the cost of\n\
       helping."
