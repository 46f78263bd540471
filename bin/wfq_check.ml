(* Model-checking CLI: run DPOR (exhaustive-equivalent), systematic
   preemption-bounded exploration, or random-schedule fuzzing of a queue
   implementation under the deterministic simulator, checking
   linearizability of every explored interleaving.

     wfq_check dpor --queue kp-opt12 --out _counterexamples
     wfq_check explore --queue kp-base --budget 2
     wfq_check fuzz --queue kp-hp --count 5000
     wfq_check stall --queue kp-base

   [dpor] exits non-zero on a violation and writes the shrunk
   counterexample (schedule, history, checker verdict) under --out, for
   CI to upload as a build artifact. *)

open Cmdliner
module S = Wfq_sim.Scheduler
module E = Wfq_sim.Explore
module Sh = Wfq_sim.Shrink
module Ck = Wfq_sim.Check
module H = Wfq_lincheck.History
module C = Wfq_lincheck.Checker
module SA = Wfq_sim.Sim_atomic
module Qi = Wfq_core.Queue_intf
module Ms = Wfq_core.Ms_queue.Make (SA)
module Kp = Wfq_core.Kp_queue.Make (SA)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (SA)

module Fps = Wfq_core.Kp_queue_fps.Make (SA)
module Ring = Wfq_core.Ring_queue.Make (SA)
module Poly = Wfq_core.Polylog_queue.Make (SA)

type script = Ck.script

type 'q sim_queue = {
  make : num_threads:int -> 'q;
  enq : 'q -> tid:int -> int -> unit;
  deq : 'q -> tid:int -> int option;
  contents : 'q -> int list;
  try_enq : ('q -> tid:int -> int -> bool) option;
      (* bounded queues only: the [`Try_enq] script op *)
  capacity : int option;
      (* bounded queues only: switches lincheck to the bounded spec *)
  enq_batch : ('q -> tid:int -> int list -> unit) option;
  try_enq_batch : ('q -> tid:int -> int list -> int) option;
  deq_batch : ('q -> tid:int -> n:int -> int list) option;
      (* backends with native batch operations run the batch litmus
         library ([`Enq_batch] and friends) on top of these *)
  extra_check : ('q -> (unit, string) result) option;
      (* structural invariant check run per explored schedule at
         quiescence (e.g. the polylog tree's monotonicity audit) *)
}

type packed = Q : 'q sim_queue -> packed

let rec queue_of_name = function
  | "ms" ->
      Q
        {
          make = (fun ~num_threads -> Ms.create ~num_threads ());
          enq = (fun q ~tid v -> Ms.enqueue q ~tid v);
          deq = (fun q ~tid -> Ms.dequeue q ~tid);
          contents = Ms.to_list;
          try_enq = None;
          capacity = None;
          enq_batch = None;
          try_enq_batch = None;
          deq_batch = None;
          extra_check = None;
        }
  | "kp-base" ->
      Q
        {
          make =
            (fun ~num_threads ->
              Kp.create_with ~help:Wfq_core.Kp_queue.Help_all
                ~phase:Wfq_core.Kp_queue.Phase_scan ~num_threads ());
          enq = (fun q ~tid v -> Kp.enqueue q ~tid v);
          deq = (fun q ~tid -> Kp.dequeue q ~tid);
          contents = Kp.to_list;
          try_enq = None;
          capacity = None;
          enq_batch = Some (fun q ~tid vs -> Kp.enqueue_batch q ~tid vs);
          try_enq_batch = None;
          deq_batch = Some (fun q ~tid ~n -> Kp.dequeue_batch q ~tid ~n);
          extra_check = None;
        }
  | "kp-opt12" -> registered "kp-opt12"
  | "kp-fps" ->
      (* max_failures 1 so DPOR explores one fast round plus the
         slow-path descriptor in every operation, including the
         batch dequeue's single-CAS prefix grab *)
      Q
        {
          make =
            (fun ~num_threads ->
              Fps.create_with ~max_failures:1
                ~help:Wfq_core.Kp_queue_fps.Help_one_cyclic
                ~phase:Wfq_core.Kp_queue_fps.Phase_counter ~num_threads ());
          enq = (fun q ~tid v -> Fps.enqueue q ~tid v);
          deq = (fun q ~tid -> Fps.dequeue q ~tid);
          contents = Fps.to_list;
          try_enq = None;
          capacity = None;
          enq_batch = Some (fun q ~tid vs -> Fps.enqueue_batch q ~tid vs);
          try_enq_batch = None;
          deq_batch = Some (fun q ~tid ~n -> Fps.dequeue_batch q ~tid ~n);
          extra_check = None;
        }
  | "kp-hp" ->
      Q
        {
          make =
            (fun ~num_threads ->
              Kp_hp.create ~scan_threshold:1 ~num_threads ());
          enq = (fun q ~tid v -> Kp_hp.enqueue q ~tid v);
          deq = (fun q ~tid -> Kp_hp.dequeue q ~tid);
          contents = Kp_hp.to_list;
          try_enq = None;
          capacity = None;
          enq_batch = None;
          try_enq_batch = None;
          deq_batch = None;
          extra_check = Some Kp_hp.check_quiescent_invariants;
        }
  | "ring" ->
      (* capacity 2 so the standard scenarios (<= 2 values in flight)
         never overflow; max_failures 1 so DPOR explores one fast round
         plus the helping slow path in every operation *)
      ring_packed ~capacity:2 ~max_failures:1
  | "polylog" ->
      (* the tournament-tree queue: every explored schedule also runs
         the quiescent structural audit (block-log monotonicity, size
         recurrence) on top of lincheck *)
      registered "polylog"
  | other -> failwith ("unknown queue: " ^ other)

(* A registry entry exactly as registered, through its instance; every
   explored schedule also runs the backend's quiescent structural
   audit. *)
and registered id =
  let (module B : Wfq_core.Queue_intf.BACKEND) = Wfq_core.Backends.find id in
  Q
    {
      make =
        (fun ~num_threads ->
          Wfq_core.Backends.instantiate_with (module SA) (module B)
            ~num_threads ());
      enq = (fun q ~tid v -> q.Qi.enq ~tid v);
      deq = (fun q ~tid -> q.Qi.deq ~tid);
      contents = (fun q -> q.Qi.dump ());
      try_enq = Option.map (fun _ q ~tid v -> q.Qi.try_enq ~tid v) B.capacity;
      capacity = B.capacity;
      enq_batch = Some (fun q ~tid vs -> q.Qi.enq_batch ~tid vs);
      try_enq_batch = None;
      deq_batch = Some (fun q ~tid ~n -> q.Qi.deq_batch ~tid ~n);
      extra_check = Some (fun q -> q.Qi.check ());
    }

and ring_packed ~capacity ~max_failures =
  Q
    {
      make =
        (fun ~num_threads ->
          Ring.create_with ~capacity ~max_failures ~num_threads ());
      enq = (fun q ~tid v -> Ring.enqueue q ~tid v);
      deq = (fun q ~tid -> Ring.dequeue q ~tid);
      contents = Ring.to_list;
      try_enq = Some (fun q ~tid v -> Ring.try_enqueue q ~tid v);
      capacity = Some capacity;
      enq_batch = Some (fun q ~tid vs -> Ring.enqueue_batch q ~tid vs);
      try_enq_batch = Some (fun q ~tid vs -> Ring.try_enqueue_batch q ~tid vs);
      deq_batch = Some (fun q ~tid ~n -> Ring.dequeue_batch q ~tid ~n);
      extra_check = None;
    }

let scenarios : (string * script list) list =
  [
    ("enq-race", [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    ("enq-vs-deq", [ [ `Enq 1 ]; [ `Deq ] ]);
    ("pairs", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
    ("prod-cons", [ [ `Enq 1; `Enq 2 ]; [ `Deq; `Deq ] ]);
    ("three-way", [ [ `Enq 1 ]; [ `Enq 2 ]; [ `Deq; `Deq; `Deq ] ]);
  ]

(* The ring's own litmus library: each row picks the capacity and
   fast-path budget that makes its protocol corner reachable in a
   handful of operations. [max_failures = 0] sends every operation
   through the helping slow path (stage-1 claim / stage-2 install /
   publish), which is where the claim-rollback and hand-off races
   live. *)
let ring_scenarios :
    (string * int * int * int list * script list) list =
  [
    (* name, capacity, max_failures, init, scripts *)
    ("enq-race", 2, 1, [], [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    ("pairs", 2, 1, [], [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
    (* two slow enqueues race stage-1 claims on the same position:
       exercises claim rollback on every losing path *)
    ("claim-rollback", 2, 0, [], [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    (* full capacity-1 ring: enqueue-on-full vs dequeue must linearize
       exactly where the bounded spec (lincheck ~capacity) says it may *)
    ("full-race", 1, 0, [ 9 ], [ [ `Try_enq 1 ]; [ `Deq ] ]);
    (* dequeue-on-empty race against a slow enqueue *)
    ("empty-race", 1, 0, [], [ [ `Enq 1 ]; [ `Deq ] ]);
    (* a pre-filled element and two racing slow dequeues: the helping
       hand-off (finish a peer's claim found in a slot) plus the
       empty answer for the loser *)
    ("help-handoff", 2, 0, [ 1 ], [ [ `Deq ]; [ `Deq ] ]);
    (* capacity-1 ring driven past 2*capacity positions: every slot
       transition wraps laps; rejections allowed (Try_enq) *)
    ( "wraparound",
      1,
      1,
      [],
      [ [ `Try_enq 1; `Try_enq 2; `Try_enq 3 ]; [ `Deq; `Deq; `Deq ] ] );
  ]

(* The polylog tournament tree's litmus library: each row targets one
   of the protocol's hand-off points. The tree for two simulated
   threads is one root over two leaves, so a two-thread script already
   exercises the full propagate path (leaf announce -> parent
   double-refresh merge -> root block install). Step bounds are sharp
   DPOR-exhaustive maxima; the three-op rows stay within the default
   schedule cap because each polylog operation, though ~50 accesses
   long, races on only a handful of them. *)
let polylog_scenarios :
    (string * int list * script list * int option * int option) list =
  [
    (* name, init, scripts, step bound, schedule floor *)
    (* two leaf announces race the parent merge: whichever refresh CAS
       loses must still find its block propagated (the double-refresh
       guarantee the seeded No_double_refresh fault breaks) *)
    ("leaf-merge", [], [ [ `Enq 1 ]; [ `Enq 2 ] ], Some 54, None);
    (* an enqueue's root install racing a dequeue that must either see
       the fresh root block or linearize its Empty before it *)
    ("root-handoff", [], [ [ `Enq 1 ]; [ `Deq ] ], Some 96, None);
    (* two dequeues resolve adjacent root indices down the tree
       (lift/find_value): they must land on distinct elements in FIFO
       order, never both on the head *)
    ("deq-index", [ 1; 2 ], [ [ `Deq ]; [ `Deq ] ], Some 100, None);
  ]

(* The polylog batch litmuses: a batch enqueue is one leaf block
   carrying the whole batch (one announce, one propagate), so the
   corners are a multi-element block crossing the merge while single
   dequeues chase its elements, and a block-granular dequeue racing a
   fresh append. *)
let polylog_batch_scenarios :
    (string * int list * script list * int option * int option) list =
  [
    ( "b-block-vs-deq",
      [],
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ],
      Some 170,
      None );
    ( "b-deq-vs-enq",
      [ 1 ],
      [ [ `Deq_batch 2 ]; [ `Enq 2 ] ],
      Some 115,
      None );
  ]

(* Batch litmuses for the KP-family queues (run under DPOR with the
   step-bound certifier): one descriptor publication covers the whole
   batch, so the races worth covering are helpers completing a batch's
   remaining suffix and two batches interleaving while each keeps its
   own elements in intra-batch FIFO order (which the checker's
   per-thread program-order constraint pins). The first [int option]
   is the certified per-fiber step bound for the scenario — sharp: the
   DPOR-exhaustive maximum — and the second a floor on the schedule
   cap when the scenario needs more than the default to exhaust. *)
let batch_scenarios : (string * script list * int option * int option) list =
  [
    (* a batch enqueue racing single dequeues: after the batch's link
       CAS lands, either side may be the one completing the suffix *)
    ( "b-enq-vs-deq",
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ],
      Some 81,
      None );
    (* two racing batch enqueues: batches may interleave at the batch
       granularity but never within one *)
    ( "b-enq-race",
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Enq_batch [ 3; 4 ] ] ],
      Some 42,
      None );
    (* an over-asking batch dequeue draining a batch enqueue: the
       unserved suffix must answer Empty at one observed-empty point *)
    ("b-deq", [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 3 ] ], Some 82, None);
  ]

(* The fast-path/slow-path queue's batch litmuses: the batch enqueue
   publishes a pre-linked chain with one link CAS and the fast batch
   dequeue claims the sentinel once, walks the immutable next chain
   (capped at the observed tail) and jumps [head] over the whole
   prefix with one CAS — so the corners worth covering are the jump's
   failure leg (a helper swung head one node; only the claimed first
   element may be delivered), the tail cap (head must never overtake
   tail), and helpers finishing a chain's tail jump. The step bounds
   are fps-specific sharp maxima (measured with [max_failures = 1],
   where one lost round sends an operation through the slow-path
   descriptor): the KP bounds in [batch_scenarios] do not apply. *)
let fps_batch_scenarios :
    (string * int list * script list * int option * int option) list =
  [
    (* name, init, scripts, step bound, schedule floor *)
    (* prefix grab racing a per-item dequeue on a pre-filled queue:
       whoever loses the sentinel claim helps; the grab's jump CAS
       either lands (both elements linearize at the jump) or fails
       because the helper swung head, delivering exactly one *)
    ( "b-grab-vs-deq",
      [ 1; 2; 3 ],
      [ [ `Deq_batch 2 ]; [ `Deq ] ],
      Some 62,
      None );
    (* the grab capped by a lagging tail while an enqueue appends: the
       walk must stop at the observed last node so the head jump never
       overtakes tail (the MS invariant enqueuers rely on) *)
    ( "b-grab-vs-enq",
      [ 1 ],
      [ [ `Deq_batch 2 ]; [ `Enq 2 ] ],
      Some 49,
      None );
    (* a pre-linked batch chain racing single dequeues: one link CAS
       publishes the chain; either side may finish the tail jump *)
    ( "b-chain-vs-deq",
      [],
      [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq; `Deq ] ],
      Some 82,
      None );
  ]

(* The ring's batch litmuses: rows pick the capacity and fast-path
   budget that make the protocol corner reachable, exactly like
   [ring_scenarios]. [max_failures = 0] routes the whole batch through
   one slow descriptor (the claimed-run hand-off paths). *)
let ring_batch_scenarios :
    (string * int * int * int list * script list * int option * int option)
    list =
  [
    (* name, capacity, max_failures, init, scripts, step bound,
       schedule floor *)
    (* a slow batch claims a run of slots one descriptor drives (on a
       capacity-1 ring the run spans laps of the same physical slot);
       the racing dequeuer finds the claim and must complete the
       batch's remaining suffix before taking — acceptance of the
       second element depends on whether the take frees the slot in
       time, so the partial-batch terminal record is covered too *)
    ( "b-claim-suffix",
      1,
      0,
      [],
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ],
      Some 49,
      Some 1_700_000 );
    (* batch crossing the wraparound of a capacity-1 ring: every
       element lands on the same physical slot, one lap apart, and the
       batch dequeue chases it across laps; rejections allowed *)
    ( "b-wraparound",
      1,
      1,
      [],
      [ [ `Try_enq_batch [ 1; 2; 3 ] ]; [ `Deq_batch 3 ] ],
      Some 14,
      None );
    (* partial acceptance: one free slot, a two-element batch, and a
       racing dequeue that may or may not free the second slot in time
       — the rejected suffix must linearize at a full observation *)
    ( "b-partial-full",
      2,
      0,
      [ 9 ],
      [ [ `Try_enq_batch [ 1; 2 ] ]; [ `Deq ] ],
      Some 58,
      Some 2_100_000 );
    (* a slow batch dequeue draining a pre-filled capacity-1 ring
       against a racing bounded enqueue *)
    ( "b-deq-race",
      1,
      0,
      [ 5 ],
      [ [ `Deq_batch 2 ]; [ `Try_enq 1 ] ],
      Some 50,
      Some 2_200_000 );
  ]

let scenario_with_history (Q ops) scripts =
  let num_threads = List.length scripts in
  let q = ops.make ~num_threads in
  let hist = H.create () in
  let fiber tid script () =
    List.iter
      (function
        | `Enq v ->
            H.call hist ~thread:tid (H.Enq v);
            ops.enq q ~tid v;
            H.return hist ~thread:tid H.Done
        | `Try_enq v -> (
            let try_enq =
              match ops.try_enq with
              | Some f -> f
              | None -> failwith "`Try_enq script op on an unbounded queue"
            in
            H.call hist ~thread:tid (H.Enq v);
            match try_enq q ~tid v with
            | true -> H.return hist ~thread:tid H.Done
            | false -> H.return hist ~thread:tid H.Rejected)
        | `Deq -> (
            H.call hist ~thread:tid H.Deq;
            match ops.deq q ~tid with
            | Some v -> H.return hist ~thread:tid (H.Got v)
            | None -> H.return hist ~thread:tid H.Empty)
        (* Batch ops mirror Check's internal expansion: per-element
           sub-ops invoked together before the batch and answered
           together after, so counterexample replays of batch litmuses
           rebuild the same history shape. *)
        | `Enq_batch vs ->
            if vs <> [] then begin
              let f =
                match ops.enq_batch with
                | Some f -> f
                | None ->
                    failwith "`Enq_batch script op on a batchless queue"
              in
              H.call_batch hist ~thread:tid (List.map (fun v -> H.Enq v) vs);
              f q ~tid vs;
              H.return_batch hist ~thread:tid (List.map (fun _ -> H.Done) vs)
            end
        | `Try_enq_batch vs ->
            if vs <> [] then begin
              let f =
                match ops.try_enq_batch with
                | Some f -> f
                | None ->
                    failwith "`Try_enq_batch script op on a batchless queue"
              in
              H.call_batch hist ~thread:tid (List.map (fun v -> H.Enq v) vs);
              let accepted = f q ~tid vs in
              H.return_batch hist ~thread:tid
                (List.mapi
                   (fun i _ -> if i < accepted then H.Done else H.Rejected)
                   vs)
            end
        | `Deq_batch want ->
            if want > 0 then begin
              let f =
                match ops.deq_batch with
                | Some f -> f
                | None ->
                    failwith "`Deq_batch script op on a batchless queue"
              in
              H.call_batch hist ~thread:tid (List.init want (fun _ -> H.Deq));
              let got = f q ~tid ~n:want in
              let rec responses got i =
                if i = want then []
                else
                  match got with
                  | v :: tl -> H.Got v :: responses tl (i + 1)
                  | [] -> H.Empty :: responses [] (i + 1)
              in
              H.return_batch hist ~thread:tid (responses got 0)
            end)
      script
  in
  (Array.of_list (List.mapi fiber scripts), hist)

let make_scenario (Q ops as q) scripts () =
  let fibers, hist = scenario_with_history q scripts in
  let check (_ : S.result) =
    if C.is_linearizable ?capacity:ops.capacity (H.completed hist) then Ok ()
    else
      Error
        (Format.asprintf "not linearizable:@.%a" C.pp_history
           (H.completed hist))
  in
  (fibers, check)

let queue_arg =
  let doc =
    "Queue to check: ms, kp-base, kp-opt12, kp-fps, kp-hp, ring, polylog."
  in
  Arg.(value & opt string "kp-base" & info [ "queue" ] ~docv:"NAME" ~doc)

let budget_arg =
  let doc = "Preemption budget for systematic exploration." in
  Arg.(value & opt int 2 & info [ "budget" ] ~doc)

let count_arg =
  let doc = "Number of random schedules for fuzzing." in
  Arg.(value & opt int 2000 & info [ "count" ] ~doc)

let report name (r : E.report) =
  match r.failure with
  | None ->
      Printf.printf "  %-12s %6d schedules  %s\n" name r.schedules
        (if r.exhausted then "exhausted: all explored schedules linearizable"
         else "cap reached, no violation found")
  | Some (prefix, msg) ->
      Printf.printf "  %-12s FAILED after %d schedules\n    replay: [%s]\n    %s\n"
        name r.schedules
        (String.concat ";" (List.map string_of_int prefix))
        msg;
      exit 1

let run_explore queue budget =
  let q = queue_of_name queue in
  Printf.printf
    "systematic exploration of %s (every schedule with <= %d preemptions)\n"
    queue budget;
  List.iter
    (fun (name, scripts) ->
      let b = if List.length scripts >= 3 then min budget 1 else budget in
      report name
        (E.preemption_bounded ~budget:b ~max_schedules:200_000
           ~make:(make_scenario q scripts) ()))
    scenarios

let run_fuzz queue count use_pct =
  let q = queue_of_name queue in
  Printf.printf "%s of %s (%d seeds per scenario)\n"
    (if use_pct then "PCT fuzzing" else "random-schedule fuzzing")
    queue count;
  List.iter
    (fun (name, scripts) ->
      let r =
        if use_pct then
          E.pct ~count ~change_points:3 ~make:(make_scenario q scripts) ()
        else E.fuzz ~count ~make:(make_scenario q scripts) ()
      in
      report name r)
    scenarios

(* DPOR model checking (wfq_check dpor): run the Explore × Lincheck
   driver over the scenario library — one explored schedule per
   Mazurkiewicz trace, every schedule checked for linearizability and
   element conservation — and on failure write the shrunk counterexample
   (schedule, replayed history, checker verdict) to a file that CI
   uploads as a build artifact. *)

let check_run (Q ops) ~max_schedules ?init ?step_bound ~scripts () =
  let queue =
    {
      Ck.create = (fun ~num_threads -> ops.make ~num_threads);
      enqueue = ops.enq;
      dequeue = ops.deq;
      contents = ops.contents;
    }
  in
  Ck.run ~mode:Ck.Dpor ~max_schedules ?init ?step_bound
    ?try_enqueue:ops.try_enq ?enqueue_batch:ops.enq_batch
    ?try_enqueue_batch:ops.try_enq_batch ?dequeue_batch:ops.deq_batch
    ?capacity:ops.capacity ?extra_check:ops.extra_check ~queue ~scripts ()

let write_counterexample ~out_dir ~queue_name ~scenario_name ?pp_extra
    (f : Ck.failure) =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path =
    Filename.concat out_dir (queue_name ^ "-" ^ scenario_name ^ ".trace")
  in
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  Format.fprintf fmt "queue: %s@.scenario: %s@.@.%a@." queue_name
    scenario_name Ck.pp_failure f;
  (match pp_extra with Some pp -> pp fmt | None -> ());
  Format.pp_print_flush fmt ();
  close_out oc;
  path

(* Replay the minimal schedule on a fresh scenario and show the history
   the linearizability checker judged, plus its verdict. Valid because
   [Scheduler.run ~forced] replay is deterministic and the CLI scenario
   performs the same shared accesses as Check's internal one. *)
let pp_replayed_history (Q ops as q) scripts forced fmt =
  match
    let fibers, hist = scenario_with_history q scripts in
    ignore (S.run ~strategy:S.First_enabled ~forced fibers);
    H.completed hist
  with
  | h ->
      Format.fprintf fmt
        "@.history under the minimal schedule:@.%a@.checker verdict: %a@."
        C.pp_history h C.pp_verdict
        (C.check ?capacity:ops.capacity h)
  | exception e ->
      Format.fprintf fmt "@.(history replay failed: %s)@."
        (Printexc.to_string e)

let shrunk_length (f : Ck.failure) =
  match f.Ck.shrunk with
  | Some s -> List.length s.Sh.forced
  | None -> List.length f.Ck.forced

let run_dpor_clean queue max_schedules out_dir batch_only =
  (* Every queue runs the shared scenario library; the ring runs its
     own litmuses instead, each at the capacity/fast-path budget that
     makes its protocol corner reachable. Batch-capable queues append
     the batch litmuses, each certified against a per-fiber step bound
     (the wait-freedom certificate: no schedule may make any fiber
     exceed it); [--batch-only] runs just those. A batch row's
     schedule floor raises the cap to where the row is known to
     exhaust, so the default cap still certifies full coverage. *)
  let rows =
    if queue = "ring" then
      (if batch_only then []
       else
         List.map
           (fun (name, capacity, max_failures, init, scripts) ->
             ( name,
               ring_packed ~capacity ~max_failures,
               init,
               scripts,
               None,
               None ))
           ring_scenarios)
      @ List.map
          (fun (name, capacity, max_failures, init, scripts, bound, floor) ->
            ( name,
              ring_packed ~capacity ~max_failures,
              init,
              scripts,
              bound,
              floor ))
          ring_batch_scenarios
    else if queue = "polylog" then
      (* the tournament tree runs its own litmus library: the shared
         pairs/three-way rows have four+ ~50-step operations, which
         puts full DPOR past any practical trace cap (the conformance
         battery covers them under a preemption budget instead) *)
      let q = queue_of_name queue in
      (if batch_only then []
       else
         List.map
           (fun (name, init, scripts, bound, floor) ->
             (name, q, init, scripts, bound, floor))
           polylog_scenarios)
      @ List.map
          (fun (name, init, scripts, bound, floor) ->
            (name, q, init, scripts, bound, floor))
          polylog_batch_scenarios
    else
      let (Q ops as q) = queue_of_name queue in
      (if batch_only then []
       else
         List.map
           (fun (name, scripts) -> (name, q, [], scripts, None, None))
           scenarios)
      @
      if queue = "kp-fps" then
        (* fps runs its own batch litmuses: the shared rows' certified
           bounds are KP-sharp and the fps protocol corners (prefix
           grab, chain link) need their own scripts *)
        List.map
          (fun (name, init, scripts, bound, floor) ->
            (name, q, init, scripts, bound, floor))
          fps_batch_scenarios
      else if ops.enq_batch <> None then
        List.map
          (fun (name, scripts, bound, floor) ->
            (name, q, [], scripts, bound, floor))
          batch_scenarios
      else []
  in
  Printf.printf
    "DPOR model checking of %s (one schedule per Mazurkiewicz trace)\n"
    queue;
  let failed = ref false in
  List.iter
    (fun (name, q, init, scripts, step_bound, floor) ->
      let max_schedules =
        match floor with Some f -> max max_schedules f | None -> max_schedules
      in
      let r = check_run q ~max_schedules ~init ?step_bound ~scripts () in
      match r.Ck.failure with
      | None ->
          Printf.printf
            "  %-14s %7d traces  %s  (max steps per op fiber: %d%s)\n" name
            r.Ck.schedules
            (if r.Ck.exhausted then "exhausted: every trace linearizable"
             else "cap reached, no violation")
            r.Ck.max_fiber_steps
            (match step_bound with
            | Some b -> Printf.sprintf ", certified bound %d" b
            | None -> "")
      | Some f ->
          failed := true;
          let forced =
            match f.Ck.shrunk with Some s -> s.Sh.forced | None -> f.Ck.forced
          in
          let path =
            (* the CLI-side history replay does not pre-fill [init]
               elements, so it is only faithful for init-less rows *)
            if init = [] then
              write_counterexample ~out_dir ~queue_name:queue
                ~scenario_name:name
                ~pp_extra:(pp_replayed_history q scripts forced)
                f
            else
              write_counterexample ~out_dir ~queue_name:queue
                ~scenario_name:name f
          in
          Printf.printf
            "  %-14s FAILED after %d traces: %s\n\
            \    shrunk to %d decisions; counterexample written to %s\n"
            name r.Ck.schedules f.Ck.message (shrunk_length f) path)
    rows;
  if !failed then exit 1

(* Demonstration mode: reinstate one of the seeded fast-path/slow-path
   handshake bugs and demand that DPOR finds and shrinks it. Exercises
   the whole find -> shrink -> artifact pipeline, so a CI run can prove
   the pipeline works end to end. *)
let fps_faulted_ops fault ~max_failures : _ Ck.ops =
  {
    Ck.create =
      (fun ~num_threads ->
        Fps.create_with ~max_failures ~fault
          ~help:Wfq_core.Kp_queue_fps.Help_one_cyclic
          ~phase:Wfq_core.Kp_queue_fps.Phase_counter ~num_threads ());
    enqueue = (fun q ~tid v -> Fps.enqueue q ~tid v);
    dequeue = (fun q ~tid -> Fps.dequeue q ~tid);
    contents = Fps.to_list;
  }

(* The ring's seeded bug: a slow enqueuer whose install landed skips
   publishing success and rolls its claim back instead, leaving the
   value in the ring while reporting the operation rejected —
   conservation catches the orphaned element. *)
let ring_faulted_ops : _ Ck.ops =
  {
    Ck.create =
      (fun ~num_threads ->
        Ring.create_with ~capacity:1 ~max_failures:0
          ~fault:Wfq_core.Ring_queue.Rollback_skipped ~num_threads ());
    enqueue = (fun q ~tid v -> Ring.enqueue q ~tid v);
    dequeue = (fun q ~tid -> Ring.dequeue q ~tid);
    contents = Ring.to_list;
  }

let report_fault_result ~queue_name ~scenario_name out_dir (r : Ck.report) =
  match r.Ck.failure with
  | Some f ->
      let path =
        write_counterexample ~out_dir ~queue_name ~scenario_name f
      in
      Printf.printf
        "  found after %d schedules: %s\n\
        \  shrunk to %d decisions; counterexample written to %s\n"
        r.Ck.schedules f.Ck.message (shrunk_length f) path
  | None ->
      Printf.printf
        "  NOT FOUND after %d schedules — the seeded bug escaped the checker\n"
        r.Ck.schedules;
      exit 1

(* The polylog queue's seeded bug: a leaf announce skips the second
   refresh of the double-refresh pair, so a block whose first refresh
   CAS lost can stay unpropagated — the appender then spins on its own
   propagation forever (a livelock the step limit catches) or the tree
   serves elements out of announce order. *)
let polylog_faulted_ops : _ Ck.ops =
  {
    Ck.create =
      (fun ~num_threads ->
        Poly.create_with ~fault:Wfq_core.Polylog_queue.No_double_refresh
          ~num_threads ());
    enqueue = (fun q ~tid v -> Poly.enqueue q ~tid v);
    dequeue = (fun q ~tid -> Poly.dequeue q ~tid);
    contents = Poly.to_list;
  }

let run_dpor_fault fname max_schedules out_dir =
  match fname with
  | "no-double-refresh" ->
      Printf.printf
        "DPOR vs seeded bug 'no-double-refresh' in the polylog queue (a \
         counterexample MUST be found)\n";
      let r =
        Ck.run ~mode:Ck.Dpor ~max_schedules ~queue:polylog_faulted_ops
          ~scripts:[ [ `Enq 1 ]; [ `Enq 2; `Deq ] ]
          ()
      in
      report_fault_result ~queue_name:"polylog"
        ~scenario_name:"no-double-refresh" out_dir r
  | "rollback-skipped" ->
      Printf.printf
        "DPOR vs seeded bug 'rollback-skipped' in the ring (a counterexample \
         MUST be found)\n";
      let r =
        Ck.run ~mode:Ck.Dpor ~max_schedules
          ~try_enqueue:(fun q ~tid v -> Ring.try_enqueue q ~tid v)
          ~capacity:1 ~queue:ring_faulted_ops
          ~scripts:[ [ `Try_enq 1 ]; [ `Deq ] ]
          ()
      in
      report_fault_result ~queue_name:"ring" ~scenario_name:"rollback-skipped"
        out_dir r
  | "batch-partial" ->
      (* Seeded batch bug: a fast batch enqueue publishes only the first
         node of its pre-linked chain (the chain is severed before the
         link CAS), silently dropping the rest of the batch.
         Conservation catches the lost elements even with no
         interference; DPOR must find and shrink it. *)
      Printf.printf
        "DPOR vs seeded bug 'batch-partial' in %s (a counterexample MUST \
         be found)\n"
        Fps.name;
      let r =
        Ck.run ~mode:Ck.Dpor ~max_schedules
          ~enqueue_batch:(fun q ~tid vs -> Fps.enqueue_batch q ~tid vs)
          ~dequeue_batch:(fun q ~tid ~n -> Fps.dequeue_batch q ~tid ~n)
          ~queue:
            (fps_faulted_ops Wfq_core.Kp_queue_fps.Batch_partial_publish
               ~max_failures:1)
          ~scripts:[ [ `Enq_batch [ 1; 2 ] ]; [ `Deq ] ]
          ()
      in
      report_fault_result ~queue_name:"kp-fps" ~scenario_name:"batch-partial"
        out_dir r
  | "no-claim" | "stale-helper" ->
      let fault, scenario_name, scripts, init, max_failures, step_limit =
        match fname with
        | "no-claim" ->
            ( Wfq_core.Kp_queue_fps.Fast_deq_no_claim,
              "no-claim",
              [ [ `Deq; `Deq ]; [ `Deq ] ],
              [ 1; 2 ],
              1,
              None )
        | _ ->
            ( Wfq_core.Kp_queue_fps.Stale_helper_caller_phase,
              "stale-helper",
              [ [ `Deq; `Enq 7 ]; [ `Deq ] ],
              [ 1 ],
              0,
              Some 2_000 )
      in
      Printf.printf
        "DPOR vs seeded bug '%s' in %s (a counterexample MUST be found)\n"
        fname Fps.name;
      let r =
        Ck.run ~mode:Ck.Dpor ~max_schedules ?step_limit ~init
          ~queue:(fps_faulted_ops fault ~max_failures)
          ~scripts ()
      in
      report_fault_result ~queue_name:"kp-fps" ~scenario_name out_dir r
  | other -> failwith ("unknown fault: " ^ other)

let run_dpor queue max_schedules out_dir fault batch_only =
  match fault with
  | Some fname -> run_dpor_fault fname max_schedules out_dir
  | None -> run_dpor_clean queue max_schedules out_dir batch_only

(* Stall demonstration: thread 0 freezes mid-enqueue forever; under the
   wait-free queue its operation still completes. *)
let run_stall queue =
  match queue_of_name queue with
  | Q ops ->
      let q = ops.make ~num_threads:2 in
      let fibers =
        [|
          (fun () -> ops.enq q ~tid:0 111);
          (fun () -> ops.enq q ~tid:1 222);
        |]
      in
      (* Stall thread 0 a third of the way into its operation. *)
      let probe =
        S.run [| (fun () -> ops.enq (ops.make ~num_threads:2) ~tid:0 1) |]
      in
      let stall_at = max 1 (probe.S.steps.(0) / 3) in
      let res = S.run ~stalls:[ (0, stall_at) ] fibers in
      Printf.printf
        "thread 0 stalled after %d steps (outcome: %s)\n" stall_at
        (match res.S.outcome with
        | S.All_finished -> "all finished"
        | S.Only_stalled_left -> "only stalled thread left"
        | S.Step_limit_hit -> "STEP LIMIT (no progress!)"
        | S.Aborted -> "aborted (unexpected)");
      let drained = ref [] in
      let rec drain () =
        match S.ignore_yields (fun () -> ops.deq q ~tid:1) with
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
  let kp_fibers k =
    let q =
      Kp.create_with ~help:Wfq_core.Kp_queue.Help_all
        ~phase:Wfq_core.Kp_queue.Phase_scan ~num_threads:2 ()
    in
    [|
      (fun () -> Kp.enqueue q ~tid:0 0);
      (fun () ->
        for i = 1 to k do
          Kp.enqueue q ~tid:1 i
        done);
    |]
  in
  let ms_fibers k =
    let q = Ms.create ~num_threads:2 () in
    [|
      (fun () -> Ms.enqueue q ~tid:0 0);
      (fun () ->
        for i = 1 to k do
          Ms.enqueue q ~tid:1 i
        done);
    |]
  in
  let worst make k =
    let acc = ref 0 in
    for seed = 0 to seeds - 1 do
      let res = S.run ~strategy:(S.Random_seeded seed) (make k) in
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
  List.iter (fun k -> Printf.printf "%8d" (worst kp_fibers k)) ks;
  print_newline ();
  Printf.printf "%-22s" "MS lock-free";
  List.iter (fun k -> Printf.printf "%8d" (worst ms_fibers k)) ks;
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
    "Queue to check: ms, kp-base, kp-opt12, kp-fps, kp-hp, ring, \
     polylog. kp-base's Help_all slow path has million-trace \
     scenarios; expect the cap. ring runs its own litmus library \
     (claim rollback, full/empty races, wraparound, batch claimed-run \
     hand-off) against the bounded-queue specification. polylog runs \
     its tournament-tree litmuses (leaf announce/merge race, root \
     hand-off, dequeue-index race) with the quiescent structural audit \
     on every schedule. Batch-capable queues append the batch \
     litmuses, each certified against a per-fiber step bound; kp-fps \
     runs its own batch rows (prefix grab, chain link)."
  in
  Arg.(value & opt string "kp-opt12" & info [ "queue" ] ~docv:"NAME" ~doc)

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
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"BUG" ~doc)

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
    (Cmd.eval
       (Cmd.group info
          [ dpor_cmd; explore_cmd; fuzz_cmd; stall_cmd; steps_cmd ]))
