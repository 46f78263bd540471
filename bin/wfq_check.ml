(* Model-checking CLI: run DPOR (exhaustive-equivalent), systematic
   preemption-bounded exploration, or random-schedule fuzzing of a queue
   implementation under the deterministic simulator, checking
   linearizability of every explored interleaving.

     wfq_check dpor --queue kp-opt12 --out _counterexamples
     wfq_check explore --queue kp-base --budget 2
     wfq_check fuzz --queue kp-hp --count 5000
     wfq_check stall --queue kp-base

   Every run goes through [Wfq_sim.Check]; this file is the litmus
   table it runs. [dpor] exits non-zero on a violation and writes the
   shrunk counterexample (schedule, history, checker verdict) under
   --out, for CI to upload as a build artifact. *)

open Cmdliner
module S = Wfq_sim.Scheduler
module Sh = Wfq_sim.Shrink
module Ck = Wfq_sim.Check
module C = Wfq_lincheck.Checker
module SA = Wfq_sim.Sim_atomic
module Bk = Wfq_core.Backends
module Ms = Wfq_core.Ms_queue.Make (SA)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (SA)
module Ring = Wfq_core.Ring_queue.Make (SA)

(* --- the queues ---------------------------------------------------- *)

let ms =
  Ck.queue
    ~create:(fun ~num_threads -> Ms.create ~num_threads ())
    ~enqueue:Ms.enqueue ~dequeue:Ms.dequeue ~contents:Ms.to_list ()

(* Configurations as Check queues, over Sim_atomic: every explored
   schedule also runs the backend's quiescent structural audit. *)
let configured ~id config = Ck.backend (Bk.make ~id ~label:id config)
let kp_base = configured ~id:"kp-base" (Kp Bk.kp_base)

(* max_failures 1 lets DPOR explore one fast round plus the slow-path
   descriptor in every operation, including the batch dequeue's
   single-CAS prefix grab; the seeded faults pick their own budget. *)
let fps ?fault ~max_failures () =
  configured ~id:"kp-fps" (Fps { Bk.fps with max_failures; fault })

let kp_hp =
  Ck.queue
    ~create:(fun ~num_threads ->
      Kp_hp.create ~scan_threshold:1 ~num_threads ())
    ~enqueue:Kp_hp.enqueue ~dequeue:Kp_hp.dequeue ~contents:Kp_hp.to_list
    ~audit:Kp_hp.check_quiescent_invariants ()

(* Each ring row picks the capacity and fast-path budget that makes its
   protocol corner reachable in a handful of operations. *)
let ring ?fault ~capacity ~max_failures () =
  Ck.queue
    ~create:(fun ~num_threads ->
      Ring.create_with ?fault ~capacity ~max_failures ~num_threads ())
    ~enqueue:Ring.enqueue ~dequeue:Ring.dequeue ~contents:Ring.to_list
    ~try_enqueue:Ring.try_enqueue ~enqueue_batch:Ring.enqueue_batch
    ~try_enqueue_batch:Ring.try_enqueue_batch
    ~dequeue_batch:Ring.dequeue_batch ~capacity ()

(* Registry entries exactly as registered (for polylog, the audit is
   the tree's block-log monotonicity and size recurrence). *)
let kp_opt12 = Ck.backend (Bk.find "kp-opt12")
let polylog = Ck.backend (Bk.find "polylog")

(* --- the litmus table ---------------------------------------------- *)

(* One litmus: a queue, its pre-filled elements and one script per
   fiber. [bound] is the certified per-fiber step bound (sharp: the
   DPOR-exhaustive maximum; no schedule may make any fiber exceed it),
   [floor] raises the schedule cap to where the row is known to
   exhaust, so the default cap still certifies full coverage, and
   [step_limit] caps each schedule's steps. [batch] rows are the ones
   [--batch-only] keeps; [fault] rows reinstate a seeded bug and run
   only under [--fault NAME], where a counterexample is expected. *)
type litmus =
  | Litmus : {
      name : string;
      queue : 'q Ck.queue;
      init : int list;
      scripts : Ck.script list;
      bound : int option;
      floor : int option;
      step_limit : int option;
      batch : bool;
      fault : bool;
    }
      -> litmus

let row ?(init = []) ?bound ?floor ?step_limit ?(batch = false)
    ?(fault = false) name queue scripts =
  Litmus { name; queue; init; scripts; bound; floor; step_limit; batch; fault }

(* The shared scenario library: every queue but the ring and polylog
   runs it under dpor, and explore and fuzz run it on every queue. *)
let shared queue =
  List.map
    (fun (name, scripts) -> row name queue scripts)
    [
      ("enq-race", [ [ `Enq 1 ]; [ `Enq 2 ] ]);
      ("enq-vs-deq", [ [ `Enq 1 ]; [ `Deq ] ]);
      ("pairs", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
      ("prod-cons", [ [ `Enq 1; `Enq 2 ]; [ `Deq; `Deq ] ]);
      ("three-way", [ [ `Enq 1 ]; [ `Enq 2 ]; [ `Deq; `Deq; `Deq ] ]);
    ]

(* Batch litmuses for the KP-family queues: one descriptor publication
   covers the whole batch, so the races worth covering are helpers
   completing a batch's remaining suffix and two batches interleaving
   while each keeps its own elements in intra-batch FIFO order (which
   the checker's per-thread program-order constraint pins). *)
let kp_batch queue =
  [
    (* a batch enqueue racing single dequeues: after the batch's link
       CAS lands, either side may be the one completing the suffix *)
    row ~batch:true ~bound:81 "b-enq-vs-deq" queue
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
    (* two racing batch enqueues: batches may interleave at the batch
       granularity but never within one *)
    row ~batch:true ~bound:42 "b-enq-race" queue
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Enq_batch [ 3; 4 ] ] ];
    (* an over-asking batch dequeue draining a batch enqueue: the
       unserved suffix must answer Empty at one observed-empty point *)
    row ~batch:true ~bound:80 "b-deq" queue
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 3 ] ];
  ]

(* The fast-path/slow-path queue's own batch litmuses: the batch
   enqueue publishes a pre-linked chain with one link CAS and the fast
   batch dequeue claims the sentinel once, walks the immutable next
   chain (capped at the observed tail) and jumps [head] over the whole
   prefix with one CAS — so the corners worth covering are the jump's
   failure leg (a helper swung head one node; only the claimed first
   element may be delivered), the tail cap (head must never overtake
   tail), and helpers finishing a chain's tail jump. The step bounds are
   fps-sharp maxima at [max_failures = 1]: the KP bounds do not apply. *)
let fps_rows =
  let fps1 = fps ~max_failures:1 () in
  shared fps1
  @ [
      (* prefix grab racing a per-item dequeue on a pre-filled queue:
         whoever loses the sentinel claim helps; the grab's jump CAS
         either lands (both elements linearize at the jump) or fails
         because the helper swung head, delivering exactly one *)
      row ~batch:true ~init:[ 1; 2; 3 ] ~bound:62 "b-grab-vs-deq" fps1
        [ [ `Deq_batch 2 ]; [ `Deq ] ];
      (* the grab capped by a lagging tail while an enqueue appends: the
         walk must stop at the observed last node so the head jump never
         overtakes tail (the MS invariant enqueuers rely on) *)
      row ~batch:true ~init:[ 1 ] ~bound:49 "b-grab-vs-enq" fps1
        [ [ `Deq_batch 2 ]; [ `Enq 2 ] ];
      (* a pre-linked batch chain racing single dequeues: one link CAS
         publishes the chain; either side may finish the tail jump *)
      row ~batch:true ~bound:82 "b-chain-vs-deq" fps1
        [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
      (* Seeded fast-path/slow-path handshake bugs. A fast dequeue that
         swings [head] without claiming races a slow dequeue that
         already owns the sentinel into a duplicate delivery; fiber 0
         gets two fast dequeues and fiber 1 is starved into the slow
         path. *)
      row ~fault:true ~init:[ 1; 2 ] "no-claim"
        (fps ~fault:Wfq_core.Kp_queue_fps.Fast_deq_no_claim ~max_failures:1
           ())
        [ [ `Deq; `Deq ]; [ `Deq ] ];
      (* helpers helping at the caller's phase bound instead of the
         descriptor's own latch onto the helped thread's next operation:
         a livelock the step limit catches *)
      row ~fault:true ~init:[ 1 ] ~step_limit:2_000 "stale-helper"
        (fps ~fault:Wfq_core.Kp_queue_fps.Stale_helper_caller_phase
           ~max_failures:0 ())
        [ [ `Deq; `Enq 7 ]; [ `Deq ] ];
      (* a fast batch enqueue publishes only the first node of its
         pre-linked chain, silently dropping the rest of the batch:
         conservation catches it even with no interference *)
      row ~fault:true "batch-partial"
        (fps ~fault:Wfq_core.Kp_queue_fps.Batch_partial_publish
           ~max_failures:1 ())
        [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    ]

(* The ring's own litmus library. [max_failures = 0] sends every
   operation through the helping slow path (stage-1 claim / stage-2
   install / publish), which is where the claim-rollback and hand-off
   races live; a batch row's slow path is one descriptor driving the
   whole claimed run. *)
let ring_rows =
  let ring2 = ring ~capacity:2 and ring1 = ring ~capacity:1 in
  [
    row "enq-race" (ring2 ~max_failures:1 ()) [ [ `Enq 1 ]; [ `Enq 2 ] ];
    row "pairs" (ring2 ~max_failures:1 ())
      [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ];
    (* two slow enqueues race stage-1 claims on the same position:
       exercises claim rollback on every losing path *)
    row "claim-rollback" (ring2 ~max_failures:0 ()) [ [ `Enq 1 ]; [ `Enq 2 ] ];
    (* full capacity-1 ring: enqueue-on-full vs dequeue must linearize
       exactly where the bounded spec says it may *)
    row ~init:[ 9 ] "full-race" (ring1 ~max_failures:0 ())
      [ [ `Try_enq 1 ]; [ `Deq ] ];
    (* dequeue-on-empty race against a slow enqueue *)
    row "empty-race" (ring1 ~max_failures:0 ()) [ [ `Enq 1 ]; [ `Deq ] ];
    (* a pre-filled element and two racing slow dequeues: the helping
       hand-off (finish a peer's claim found in a slot) plus the empty
       answer for the loser *)
    row ~init:[ 1 ] "help-handoff" (ring2 ~max_failures:0 ())
      [ [ `Deq ]; [ `Deq ] ];
    (* capacity-1 ring driven past 2*capacity positions: every slot
       transition wraps laps; rejections allowed *)
    row "wraparound" (ring1 ~max_failures:1 ())
      [ [ `Try_enq 1; `Try_enq 2; `Try_enq 3 ]; [ `Deq; `Deq; `Deq ] ];
    (* a slow batch claims a run of slots one descriptor drives (on a
       capacity-1 ring the run spans laps of the same physical slot);
       the racing dequeuer finds the claim and must complete the batch's
       remaining suffix before taking — acceptance of the second
       element depends on whether the take frees the slot in time, so
       the partial-batch terminal record is covered too *)
    row ~batch:true ~bound:49 ~floor:1_700_000 "b-claim-suffix"
      (ring1 ~max_failures:0 ())
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    (* batch crossing the wraparound of a capacity-1 ring: every element
       lands on the same physical slot, one lap apart, and the batch
       dequeue chases it across laps; rejections allowed *)
    row ~batch:true ~bound:14 "b-wraparound" (ring1 ~max_failures:1 ())
      [ [ `Try_enq_batch [ 1; 2; 3 ] ]; [ `Deq_batch 3 ] ];
    (* partial acceptance: one free slot, a two-element batch, and a
       racing dequeue that may or may not free the second slot in time
       — the rejected suffix must linearize at a full observation *)
    row ~batch:true ~init:[ 9 ] ~bound:58 ~floor:2_100_000 "b-partial-full"
      (ring2 ~max_failures:0 ())
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ];
    (* a slow batch dequeue draining a pre-filled capacity-1 ring
       against a racing bounded enqueue *)
    row ~batch:true ~init:[ 5 ] ~bound:50 ~floor:2_200_000 "b-deq-race"
      (ring1 ~max_failures:0 ())
      [ [ `Deq_batch 2 ]; [ `Try_enq 1 ] ];
    (* Seeded bug: a slow enqueuer whose install landed skips publishing
       success and rolls its claim back instead, leaving the value in
       the ring while reporting the operation rejected — conservation
       catches the orphaned element. *)
    row ~fault:true "rollback-skipped"
      (ring1 ~fault:Wfq_core.Ring_queue.Rollback_skipped ~max_failures:0 ())
      [ [ `Try_enq 1 ]; [ `Deq ] ];
  ]

(* The polylog tournament tree's litmus library: each row targets one
   of the protocol's hand-off points. The tree for two simulated threads
   is one root over two leaves, so a two-thread script already exercises
   the full propagate path (leaf announce -> parent double-refresh merge
   -> root block install). The shared pairs/three-way rows have four+
   ~50-step operations, which puts full DPOR past any practical trace
   cap (the conformance battery covers them under a preemption budget
   instead); these rows stay within the default cap because each
   operation, though long, races on only a handful of accesses. *)
let polylog_rows =
  [
    (* two leaf announces race the parent merge: whichever refresh CAS
       loses must still find its block propagated (the double-refresh
       guarantee the seeded fault below breaks) *)
    row ~bound:54 "leaf-merge" polylog [ [ `Enq 1 ]; [ `Enq 2 ] ];
    (* an enqueue's root install racing a dequeue that must either see
       the fresh root block or linearize its Empty before it *)
    row ~bound:96 "root-handoff" polylog [ [ `Enq 1 ]; [ `Deq ] ];
    (* two dequeues resolve adjacent root indices down the tree
       (lift/find_value): they must land on distinct elements in FIFO
       order, never both on the head *)
    row ~init:[ 1; 2 ] ~bound:100 "deq-index" polylog [ [ `Deq ]; [ `Deq ] ];
    (* a batch enqueue is one leaf block carrying the whole batch (one
       announce, one propagate): a multi-element block crossing the
       merge while single dequeues chase its elements... *)
    row ~batch:true ~bound:170 "b-block-vs-deq" polylog
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ];
    (* ...and a block-granular dequeue racing a fresh append *)
    row ~batch:true ~init:[ 1 ] ~bound:115 "b-deq-vs-enq" polylog
      [ [ `Deq_batch 2 ]; [ `Enq 2 ] ];
    (* Seeded bug: a leaf announce skips the second refresh of the
       double-refresh pair, so a block whose first refresh CAS lost can
       stay unpropagated — the appender then spins on its own
       propagation forever (a livelock the step limit catches) or the
       tree serves elements out of announce order. *)
    row ~fault:true "no-double-refresh"
      (configured ~id:"polylog-fault"
         (Polylog { fault = Some Wfq_core.Polylog_queue.No_double_refresh }))
      [ [ `Enq 1 ]; [ `Enq 2; `Deq ] ];
  ]

(* One list per --queue. The first row of each runs the queue's
   standard configuration: the one explore, fuzz and stall use. *)
let litmuses =
  [
    ("ms", shared ms);
    ("kp-base", shared kp_base @ kp_batch kp_base);
    ("kp-opt12", shared kp_opt12 @ kp_batch kp_opt12);
    ("kp-fps", fps_rows);
    ("kp-hp", shared kp_hp);
    ("ring", ring_rows);
    ("polylog", polylog_rows);
  ]

let rows_of queue = List.assoc queue litmuses
let standard queue = List.hd (rows_of queue)

(* The fault rows by name, each with the name of its queue. *)
let faults =
  List.concat_map
    (fun (queue_name, rows) ->
      List.filter_map
        (fun (Litmus l as row) ->
          if l.fault then Some (l.name, (queue_name, row)) else None)
        rows)
    litmuses

(* --queue and --fault take only the table's names, so a misspelt one
   is a usage error before anything runs. *)
let queue_names = Cli.enum (List.map (fun (q, _) -> (q, q)) litmuses)

let queue_arg =
  let doc = "Queue to check: " ^ Arg.doc_alts_enum litmuses ^ "." in
  Arg.(value & opt queue_names "kp-base" & info [ "queue" ] ~docv:"NAME" ~doc)

let budget_arg =
  let doc = "Preemption budget for systematic exploration." in
  Arg.(value & opt int 2 & info [ "budget" ] ~doc)

let count_arg =
  let doc = "Number of random schedules for fuzzing." in
  Arg.(value & opt int 2000 & info [ "count" ] ~doc)

(* --- running rows -------------------------------------------------- *)

let report name (r : Ck.report) =
  match r.failure with
  | None ->
      Printf.printf "  %-12s %6d schedules  %s\n" name r.schedules
        (if r.exhausted then "exhausted: all explored schedules linearizable"
         else "cap reached, no violation found")
  | Some f ->
      Format.printf "  %-12s FAILED after %d schedules@.%a@." name r.schedules
        Ck.pp_failure f;
      exit 1

(* The shared scenarios over [queue]'s standard configuration, each
   explored in the mode [mode] picks for its scripts. *)
let run_shared queue ~header mode =
  let (Litmus base) = standard queue in
  print_endline header;
  List.iter
    (fun (Litmus l) ->
      report l.name
        (Ck.run ~mode:(mode l.scripts) ~max_schedules:200_000 ~queue:l.queue
           ~scripts:l.scripts ()))
    (shared base.queue)

let run_explore queue budget =
  run_shared queue
    ~header:
      (Printf.sprintf
         "systematic exploration of %s (every schedule with <= %d \
          preemptions)"
         queue budget)
    (fun scripts ->
      Ck.Preemption_bounded
        (if List.length scripts >= 3 then min budget 1 else budget))

let run_fuzz queue count use_pct =
  run_shared queue
    ~header:
      (Printf.sprintf "%s of %s (%d seeds per scenario)"
         (if use_pct then "PCT fuzzing" else "random-schedule fuzzing")
         queue count)
    (fun _ ->
      if use_pct then Ck.Pct { count; change_points = 3 }
      else Ck.Fuzz { seed0 = 0; count })

(* DPOR model checking (wfq_check dpor): one explored schedule per
   Mazurkiewicz trace, every schedule checked for linearizability,
   element conservation and the row's step bound; on failure the shrunk
   counterexample goes to a file that CI uploads as a build artifact. *)

let run_dpor_row (Litmus l) max_schedules =
  let max_schedules =
    match l.floor with Some f -> max max_schedules f | None -> max_schedules
  in
  Ck.run ~mode:Ck.Dpor ~max_schedules ?step_limit:l.step_limit
    ?step_bound:l.bound ~init:l.init ~queue:l.queue ~scripts:l.scripts ()

(* The trace file: the shrunk schedule and, for a row that was expected
   to pass, the history the checker judged under it, replayed by
   [Check.history] (pre-filled elements included), with its verdict. *)
let shrunk_forced (f : Ck.failure) =
  match f.Ck.shrunk with Some s -> s.Sh.forced | None -> f.Ck.forced

let write_counterexample ~out_dir ~queue_name (Litmus l) (f : Ck.failure) =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (queue_name ^ "-" ^ l.name ^ ".trace") in
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  Format.fprintf fmt "queue: %s@.scenario: %s@.@.%a@." queue_name l.name
    Ck.pp_failure f;
  (if not l.fault then
     match
       Ck.history ~queue:l.queue ~scripts:l.scripts ~init:l.init
         ~forced:(shrunk_forced f)
     with
     | h ->
         Format.fprintf fmt
           "@.history under the minimal schedule:@.%a@.checker verdict: %a@."
           C.pp_history h C.pp_verdict
           (C.check ?capacity:l.queue.Ck.capacity h)
     | exception e ->
         Format.fprintf fmt "@.(history replay failed: %s)@."
           (Printexc.to_string e));
  Format.pp_print_flush fmt ();
  close_out oc;
  path

let run_dpor_clean queue max_schedules out_dir batch_only =
  let rows =
    List.filter
      (fun (Litmus l) -> (not l.fault) && (l.batch || not batch_only))
      (rows_of queue)
  in
  Printf.printf
    "DPOR model checking of %s (one schedule per Mazurkiewicz trace)\n"
    queue;
  let failed = ref false in
  List.iter
    (fun (Litmus l as row) ->
      let r = run_dpor_row row max_schedules in
      match r.Ck.failure with
      | None ->
          Printf.printf
            "  %-14s %7d traces  %s  (max steps per op fiber: %d%s)\n" l.name
            r.Ck.schedules
            (if r.Ck.exhausted then "exhausted: every trace linearizable"
             else "cap reached, no violation")
            r.Ck.max_fiber_steps
            (match l.bound with
            | Some b -> Printf.sprintf ", certified bound %d" b
            | None -> "")
      | Some f ->
          failed := true;
          let path = write_counterexample ~out_dir ~queue_name:queue row f in
          Printf.printf
            "  %-14s FAILED after %d traces: %s\n\
            \    shrunk to %d decisions; counterexample written to %s\n"
            l.name r.Ck.schedules f.Ck.message
            (List.length (shrunk_forced f))
            path)
    rows;
  if !failed then exit 1

(* Demonstration mode: reinstate one of the seeded bugs and demand that
   DPOR finds and shrinks it. Exercises the whole find -> shrink ->
   artifact pipeline, so a CI run can prove it works end to end. *)
let run_dpor_fault (queue_name, (Litmus l as row)) max_schedules out_dir =
  Printf.printf
    "DPOR vs seeded bug '%s' in %s (a counterexample MUST be found)\n" l.name
    (match queue_name with
    | "ring" -> "the ring"
    | "polylog" -> "the polylog queue"
    | q -> q);
  let r = run_dpor_row row max_schedules in
  match r.Ck.failure with
  | Some f ->
      let path = write_counterexample ~out_dir ~queue_name row f in
      Printf.printf
        "  found after %d schedules: %s\n\
        \  shrunk to %d decisions; counterexample written to %s\n"
        r.Ck.schedules f.Ck.message
        (List.length (shrunk_forced f))
        path
  | None ->
      Printf.printf
        "  NOT FOUND after %d schedules — the seeded bug escaped the \
         checker\n"
        r.Ck.schedules;
      exit 1

let run_dpor queue max_schedules out_dir fault batch_only =
  match fault with
  | Some fault -> run_dpor_fault fault max_schedules out_dir
  | None -> run_dpor_clean queue max_schedules out_dir batch_only

(* Stall demonstration: thread 0 freezes mid-enqueue forever; under the
   wait-free queue its operation still completes. *)
let run_stall queue =
  let (Litmus { queue = ops; _ }) = standard queue in
  let q = ops.create ~num_threads:2 in
  let fibers =
    [|
      (fun () -> ops.enqueue q ~tid:0 111);
      (fun () -> ops.enqueue q ~tid:1 222);
    |]
  in
  (* Stall thread 0 a third of the way into its operation. *)
  let probe =
    S.run [| (fun () -> ops.enqueue (ops.create ~num_threads:2) ~tid:0 1) |]
  in
  let stall_at = max 1 (probe.S.steps.(0) / 3) in
  let res = S.run ~stalls:[ (0, stall_at) ] fibers in
  Printf.printf "thread 0 stalled after %d steps (outcome: %s)\n" stall_at
    (match res.S.outcome with
    | S.All_finished -> "all finished"
    | S.Only_stalled_left -> "only stalled thread left"
    | S.Step_limit_hit -> "STEP LIMIT (no progress!)"
    | S.Aborted -> "aborted (unexpected)");
  let drained = ref [] in
  let rec drain () =
    match S.ignore_yields (fun () -> ops.dequeue q ~tid:1) with
    | Some v ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Printf.printf "queue contents after run: [%s]\n"
    (String.concat ";" (List.rev_map string_of_int !drained));
  Printf.printf "stalled thread's enqueue %s\n"
    (if List.mem 111 !drained then
       "WAS COMPLETED by the helping peer (wait-free helping)"
     else "was lost (no helping: lock-free only)")

(* Step-bound comparison (paper §5.3): worst-case step count of one
   operation by thread 0 while thread 1 performs k operations, maximized
   over adversarial random schedules. Wait-freedom predicts a flat row
   for the KP queue and a growing one for Michael-Scott. *)
let run_steps seeds =
  let fibers (ops : _ Ck.queue) k =
    let q = ops.create ~num_threads:2 in
    [|
      (fun () -> ops.enqueue q ~tid:0 0);
      (fun () ->
        for i = 1 to k do
          ops.enqueue q ~tid:1 i
        done);
    |]
  in
  let worst ops k =
    let acc = ref 0 in
    for seed = 0 to seeds - 1 do
      let res = S.run ~strategy:(S.Random_seeded seed) (fibers ops k) in
      acc := max !acc res.S.steps.(0)
    done;
    !acc
  in
  let ks = [ 1; 2; 5; 10; 20; 50 ] in
  Printf.printf
    "worst-case steps of ONE enqueue by thread 0 vs peer op count\n\
     (max over %d adversarial schedules)\n\n" seeds;
  Printf.printf "%-22s" "peer ops k:";
  List.iter (fun k -> Printf.printf "%8d" k) ks;
  print_newline ();
  Printf.printf "%-22s" "KP wait-free";
  List.iter (fun k -> Printf.printf "%8d" (worst kp_base k)) ks;
  print_newline ();
  Printf.printf "%-22s" "MS lock-free";
  List.iter (fun k -> Printf.printf "%8d" (worst ms k)) ks;
  print_newline ();
  print_endline
    "\nExpected: the KP row stays flat (bounded regardless of\n\
     interference); the MS row grows (each peer operation can defeat\n\
     thread 0's CAS once under an adversarial schedule)."

let seeds_arg =
  let doc = "Adversarial random schedules per data point." in
  Arg.(value & opt int 300 & info [ "seeds" ] ~doc)

let dpor_queue_arg =
  let doc =
    "Queue to check: " ^ Arg.doc_alts_enum litmuses
    ^ ". kp-base's help-all slow path has million-trace \
     scenarios; expect the cap. ring runs its own litmus library \
     (claim rollback, full/empty races, wraparound, batch claimed-run \
     hand-off) against the bounded-queue specification. polylog runs \
     its tournament-tree litmuses (leaf announce/merge race, root \
     hand-off, dequeue-index race) with the quiescent structural audit \
     on every schedule. Batch-capable queues append the batch \
     litmuses, each certified against a per-fiber step bound; kp-fps \
     runs its own batch rows (prefix grab, chain link)."
  in
  Arg.(value & opt queue_names "kp-opt12" & info [ "queue" ] ~docv:"NAME" ~doc)

let max_schedules_arg =
  let doc = "Cap on explored schedules per scenario." in
  Arg.(value & opt int 200_000 & info [ "max-schedules" ] ~doc)

let out_arg =
  let doc = "Directory for counterexample trace files (CI artifacts)." in
  Arg.(
    value
    & opt string "_counterexamples"
    & info [ "out" ] ~docv:"DIR" ~doc)

let fault_arg =
  let doc =
    "Check a queue with the named seeded bug reinstated (no-claim, \
     stale-helper or batch-partial in the fast-path/slow-path queue, \
     rollback-skipped in the ring, no-double-refresh in the polylog \
     queue); the run succeeds only if a counterexample is found, \
     shrunk, and written to --out."
  in
  Arg.(
    value
    & opt (some (Cli.enum faults)) None
    & info [ "fault" ] ~docv:"BUG" ~doc)

let batch_only_arg =
  let doc =
    "Run only the batch litmus library (step-bound certified); used by \
     the CI batch smoke job."
  in
  Arg.(value & flag & info [ "batch-only" ] ~doc)

let dpor_cmd =
  Cmd.v
    (Cmd.info "dpor"
       ~doc:
         "DPOR model checking: one schedule per Mazurkiewicz trace, every \
          schedule checked for linearizability and conservation, shrunk \
          counterexamples written as artifacts.")
    Term.(const run_dpor $ dpor_queue_arg $ max_schedules_arg $ out_arg
          $ fault_arg $ batch_only_arg)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore" ~doc:"Systematic preemption-bounded exploration.")
    Term.(const run_explore $ queue_arg $ budget_arg)

let pct_arg =
  let doc = "Use PCT (priority + random change points) instead of uniform \
             random scheduling." in
  Arg.(value & flag & info [ "pct" ] ~doc)

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Random-schedule (or --pct) fuzzing.")
    Term.(const run_fuzz $ queue_arg $ count_arg $ pct_arg)

let stall_cmd =
  Cmd.v
    (Cmd.info "stall" ~doc:"Stall-injection helping demonstration.")
    Term.(const run_stall $ queue_arg)

let steps_cmd =
  Cmd.v
    (Cmd.info "steps"
       ~doc:"Wait-free vs lock-free worst-case step-bound table.")
    Term.(const run_steps $ seeds_arg)

let () =
  let info =
    Cmd.info "wfq_check" ~version:"1.0"
      ~doc:"Model checking for the wait-free queue reproduction."
  in
  exit
    (Cli.eval_group info
       [ dpor_cmd; explore_cmd; fuzz_cmd; stall_cmd; steps_cmd ])
