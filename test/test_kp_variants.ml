(* The KP policy space that [Backends.kp] exposes: helping policy
   (Help_all, Help_one_cyclic) x phase policy (Phase_scan,
   Phase_counter), run both on [Kp_queue] and on the helping engine's
   pooled slow path. Every point must keep full
   queue semantics — sequentially against a model, under real domains,
   certified wait-free on the simulator — and its helping must finish a
   peer's operation that stalls after publishing it.

   The pooled points are [Kp_queue_fps] with [max_failures:0] and
   [pool:true]: every operation skips the fast path and publishes a
   descriptor, so each runs [Kp_queue]'s helping engine with its nodes
   recycled through a quarantined pool: the code the fps-pooled backend
   runs whenever it falls back to its slow path. *)

module A = Wfq_primitives.Real_atomic
module SA = Wfq_sim.Sim_atomic
module S = Wfq_sim.Scheduler
module Kp = Wfq_core.Kp_queue.Make (A)
module Ck = Wfq_sim.Check
module Bk = Wfq_core.Backends
open Wfq_core.Kp_queue

(* [pooled] selects the engine's pooled slow path (see above). *)
type variant = { policy : Bk.kp; pooled : bool }

let variants : (string * variant) list =
  List.map
    (fun (name, policy) -> (name, { policy; pooled = false }))
    [
      ("kp-base", Bk.kp_base);
      ("kp-opt1", Bk.kp_opt1);
      ("kp-opt2", Bk.kp_opt2);
      ("kp-opt12", Bk.kp);
    ]
  @ List.map
      (fun (name, policy) -> (name, { policy; pooled = true }))
      [
        ("slow-pooled-base", Bk.kp_base);
        ("slow-pooled-opt1", Bk.kp_opt1);
        ("slow-pooled-opt2", Bk.kp_opt2);
        ("slow-pooled-opt12", Bk.kp);
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
    ("slow-pooled-base", ((44_858, 66), (36, 20)));
    ("slow-pooled-opt1", ((34_113, 59), (35, 19)));
    ("slow-pooled-opt2", ((44_424, 66), (36, 20)));
    ("slow-pooled-opt12", ((33_894, 59), (35, 19)));
  ]

(* One variant's queue, on either atomics. *)
module Impl (At : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module K = Wfq_core.Kp_queue.Make (At)
  module F = Wfq_core.Kp_queue_fps.Make (At)

  type 'a t = K of 'a K.t | F of 'a F.t

  let create v ~num_threads =
    let { Bk.help; phase } = v.policy in
    if v.pooled then
      F (F.create_with ~max_failures:0 ~pool:true ~help ~phase ~num_threads ())
    else K (K.create_with ~help ~phase ~num_threads ())

  let enqueue t ~tid x =
    match t with K q -> K.enqueue q ~tid x | F q -> F.enqueue q ~tid x

  let dequeue t ~tid =
    match t with K q -> K.dequeue q ~tid | F q -> F.dequeue q ~tid

  let to_list = function K q -> K.to_list q | F q -> F.to_list q
  let length = function K q -> K.length q | F q -> F.length q

  let check_quiescent_invariants = function
    | K q -> K.check_quiescent_invariants q
    | F q -> F.check_quiescent_invariants q
end

module Q = Impl (A)
module Q_sim = Impl (SA)

let test_create_validation () =
  Alcotest.check_raises "num_threads 0"
    (Invalid_argument "Kp_queue.create: num_threads") (fun () ->
      ignore (Kp.create ~num_threads:0 ()))

let test_sequential (name, v) () =
  let q = Q.create v ~num_threads:3 in
  let model = Queue.create () in
  let rng = Wfq_primitives.Rng.create ~seed:11 in
  for i = 1 to 2_000 do
    let tid = Wfq_primitives.Rng.below rng 3 in
    if Wfq_primitives.Rng.bool rng then begin
      Q.enqueue q ~tid i;
      Queue.push i model
    end
    else if Q.dequeue q ~tid <> Queue.take_opt model then
      Alcotest.fail (name ^ ": diverged from model")
  done;
  Alcotest.(check (list int))
    (name ^ " final contents")
    (List.of_seq (Queue.to_seq model))
    (Q.to_list q)

let test_domains (name, v) () =
  let threads = 4 and iters = 3_000 in
  let q = Q.create v ~num_threads:threads in
  let empties = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Q.enqueue q ~tid ((tid * iters) + i);
              match Q.dequeue q ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) (name ^ ": no empties in pairs") 0
    (Atomic.get empties);
  Alcotest.(check int) (name ^ ": drained") 0 (Q.length q);
  match Q.check_quiescent_invariants q with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

(* Wait-freedom certification: the enq|deq scenario, with the per-fiber
   step bound asserted on every explored schedule (Wfq_sim.Check's
   certifier). A variant that could livelock or starve under some
   schedule would blow the bound or hit the step limit. Help_all scans
   every slot on every helping round, so its trace space is too large
   for full DPOR in a quick test; it is certified under <= 3
   preemptions instead, and so is every pooled point, whose pool pops
   and pushes and [slow_pending] handshake put even Help_one_cyclic
   past 100,000 DPOR schedules. The same steps give the bound its
   headroom over the unpooled variants' observed maxima. *)
let certified_step_bound = 96

let certify v ~queue =
  let mode =
    match v.policy.help with
    | Help_one_cyclic when not v.pooled -> Ck.Dpor
    | Help_one_cyclic | Help_all -> Ck.Preemption_bounded 3
  in
  Ck.certify ~mode ~max_schedules:100_000 ~bound:certified_step_bound ~queue
    ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
    ()

let test_certified (name, v) () =
  let result =
    if v.pooled then
      certify v
        ~queue:
          (Ck.queue
             ~create:(fun ~num_threads -> Q_sim.create v ~num_threads)
             ~enqueue:Q_sim.enqueue ~dequeue:Q_sim.dequeue
             ~contents:Q_sim.to_list ~audit:Q_sim.check_quiescent_invariants
             ())
    else
      certify v
        ~queue:(Ck.backend (Bk.make ~id:name ~label:name (Kp v.policy)))
  in
  match result with
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
let test_stalled_enqueue (name, v) () =
  let create () = Q_sim.create v ~num_threads:2 in
  let probe = S.run [| (fun () -> Q_sim.enqueue (create ()) ~tid:0 1) |] in
  let op_steps = probe.S.steps.(0) in
  let helped = ref 0 in
  for stall_at = 1 to op_steps - 1 do
    let q = create () in
    let res =
      S.run ~stalls:[ (0, stall_at) ]
        [|
          (fun () -> Q_sim.enqueue q ~tid:0 111);
          (fun () -> Q_sim.enqueue q ~tid:1 222);
        |]
    in
    (match res.S.outcome with
    | S.Only_stalled_left | S.All_finished -> ()
    | S.Step_limit_hit | S.Aborted ->
        Alcotest.failf "%s: helper failed to make progress (stall@%d)" name
          stall_at);
    let contents = S.ignore_yields (fun () -> Q_sim.to_list q) in
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
