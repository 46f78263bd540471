(* The KP policy space that [Backends.kp] exposes: helping policy
   (Help_all, Help_one_cyclic) x phase policy (Phase_scan,
   Phase_counter) x node/descriptor pooling. Every point must keep full
   queue semantics — sequentially against a model, under real domains,
   certified wait-free on the simulator — and its helping must finish a
   peer's operation that stalls after publishing it. *)

module A = Wfq_primitives.Real_atomic
module SA = Wfq_sim.Sim_atomic
module S = Wfq_sim.Scheduler
module Kp = Wfq_core.Kp_queue.Make (A)
module Kp_sim = Wfq_core.Kp_queue.Make (SA)
module Ck = Wfq_sim.Check
module Bk = Wfq_core.Backends
open Wfq_core.Kp_queue

let variants : (string * Bk.kp) list =
  [
    ("kp-base", Bk.kp_base);
    ("kp-opt1", Bk.kp_opt1);
    ("kp-opt2", Bk.kp_opt2);
    ("kp-opt12", Bk.kp);
    ("kp-base-pooled", { Bk.kp_base with pool = true });
    ("kp-opt1-pooled", { Bk.kp_opt1 with pool = true });
    ("kp-opt2-pooled", { Bk.kp_opt2 with pool = true });
    ("kp-opt12-pooled", { Bk.kp with pool = true });
  ]

(* Per variant: the schedules its certified case explores and the
   largest per-fiber step count among them, and, for its
   stalled-enqueue case, the uncontended enqueue's step count and the
   number of stall points at which the helper finished the stalled
   enqueue.
   The simulator is deterministic, so a change to any of them is a
   change to the operations a variant issues. *)
let pinned =
  [
    ("kp-base", ((18_768, 52), (22, 18)));
    ("kp-opt1", ((765, 52), (21, 17)));
    ("kp-opt2", ((18_354, 52), (22, 18)));
    ("kp-opt12", ((1_148, 52), (21, 17)));
    ("kp-base-pooled", ((52_968, 68), (37, 20)));
    ("kp-opt1-pooled", ((9_838, 64), (36, 19)));
    ("kp-opt2-pooled", ((48_540, 68), (37, 20)));
    ("kp-opt12-pooled", ((12_728, 64), (36, 19)));
  ]

let test_create_validation () =
  Alcotest.check_raises "num_threads 0"
    (Invalid_argument "Kp_queue.create: num_threads") (fun () ->
      ignore (Kp.create ~num_threads:0 ()));
  Alcotest.check_raises "pool_segment 0"
    (Invalid_argument "Kp_queue.create: pool_segment must be positive")
    (fun () ->
      ignore
        (Kp.create_with ~pool:true ~pool_segment:0 ~help:Help_one_cyclic
           ~phase:Phase_counter ~num_threads:2 ()))

let create (c : Bk.kp) ~num_threads =
  Kp.create_with ~pool:c.pool ~help:c.help ~phase:c.phase ~num_threads ()

let test_sequential (name, c) () =
  let q = create c ~num_threads:3 in
  let model = Queue.create () in
  let rng = Wfq_primitives.Rng.create ~seed:11 in
  for i = 1 to 2_000 do
    let tid = Wfq_primitives.Rng.below rng 3 in
    if Wfq_primitives.Rng.bool rng then begin
      Kp.enqueue q ~tid i;
      Queue.push i model
    end
    else if Kp.dequeue q ~tid <> Queue.take_opt model then
      Alcotest.fail (name ^ ": diverged from model")
  done;
  Alcotest.(check (list int))
    (name ^ " final contents")
    (List.of_seq (Queue.to_seq model))
    (Kp.to_list q)

let test_domains (name, c) () =
  let threads = 4 and iters = 3_000 in
  let q = create c ~num_threads:threads in
  let empties = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Kp.enqueue q ~tid ((tid * iters) + i);
              match Kp.dequeue q ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) (name ^ ": no empties in pairs") 0
    (Atomic.get empties);
  Alcotest.(check int) (name ^ ": drained") 0 (Kp.length q);
  match Kp.check_quiescent_invariants q with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

(* Wait-freedom certification: the enq|deq scenario, with the per-fiber
   step bound asserted on every explored schedule (Wfq_sim.Check's
   certifier). A variant that could livelock or starve under some
   schedule would blow the bound or hit the step limit. Help_all scans
   every slot on every helping round, so its trace space is too large
   for full DPOR in a quick test; it is certified under <= 3
   preemptions instead. Pooling adds the pool's pops and pushes to an
   operation's steps, hence the bound's headroom over the unpooled
   variants' observed maxima. *)
let certified_step_bound = 96

let test_certified (name, (c : Bk.kp)) () =
  let mode =
    match c.help with
    | Help_all -> Ck.Preemption_bounded 3
    | Help_one_cyclic -> Ck.Dpor
  in
  match
    Ck.certify ~mode ~max_schedules:100_000 ~bound:certified_step_bound
      ~queue:(Ck.backend (Bk.make ~id:name ~label:name (Kp c)))
      ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
      ()
  with
  | Error m -> Alcotest.failf "%s: %s" name m
  | Ok cert ->
      Alcotest.(check (pair int int))
        (name ^ ": schedules explored, observed step bound")
        (fst (List.assoc name pinned))
        (cert.Ck.schedules, cert.Ck.observed_bound)

(* Helping: fiber 0 enqueues 111 and stalls for good after [stall_at]
   steps; fiber 1 enqueues 222. Fiber 1 always finishes (wait-freedom),
   and once fiber 0's descriptor is published fiber 1 must finish it
   too, whichever slot the helping policy visits first. Every stall
   point of the uncontended enqueue is tried. *)
let test_stalled_enqueue (name, (c : Bk.kp)) () =
  let create () =
    Kp_sim.create_with ~pool:c.pool ~help:c.help ~phase:c.phase
      ~num_threads:2 ()
  in
  let probe = S.run [| (fun () -> Kp_sim.enqueue (create ()) ~tid:0 1) |] in
  let op_steps = probe.S.steps.(0) in
  let helped = ref 0 in
  for stall_at = 1 to op_steps - 1 do
    let q = create () in
    let res =
      S.run ~stalls:[ (0, stall_at) ]
        [|
          (fun () -> Kp_sim.enqueue q ~tid:0 111);
          (fun () -> Kp_sim.enqueue q ~tid:1 222);
        |]
    in
    (match res.S.outcome with
    | S.Only_stalled_left | S.All_finished -> ()
    | S.Step_limit_hit | S.Aborted ->
        Alcotest.failf "%s: helper failed to make progress (stall@%d)" name
          stall_at);
    let contents = S.ignore_yields (fun () -> Kp_sim.to_list q) in
    if not (List.mem 222 contents) then
      Alcotest.failf "%s: 222 missing (stall@%d)" name stall_at;
    if List.mem 111 contents then incr helped
  done;
  Alcotest.(check (pair int int))
    (name ^ ": enqueue steps, stall points helped")
    (snd (List.assoc name pinned))
    (op_steps, !helped)

let column group label test =
  ( group,
    List.map
      (fun ((name, _) as v) ->
        Alcotest.test_case (name ^ " " ^ label) `Quick (test v))
      variants )

let () =
  Alcotest.run "kp-variants"
    [
      ( "construction",
        [ Alcotest.test_case "create validation" `Quick test_create_validation ]
      );
      column "sequential" "≡ model" test_sequential;
      column "domains" "pairs stress" test_domains;
      column "certified" "wait-freedom certified" test_certified;
      column "helping" "stalled enqueue helped" test_stalled_enqueue;
    ]
