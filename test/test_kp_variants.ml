(* Tests for the §3.3 extension features: chunked cyclic helping and the
   tuning enhancements (gc_friendly descriptor reset, pre-CAS
   validation). Each variant must preserve full queue semantics — checked
   sequentially, under real domains, and under simulator model checking —
   and the gc_friendly flag must actually release node references. *)

module A = Wfq_primitives.Real_atomic
module Kp = Wfq_core.Kp_queue.Make (A)
module Ck = Wfq_sim.Check
module Bk = Wfq_core.Backends
open Wfq_core.Kp_queue

let tuned = { gc_friendly = true; validate_before_cas = true }

let variants =
  [
    ("chunk-1", Help_chunk 1, Phase_counter, default_tuning);
    ("chunk-2", Help_chunk 2, Phase_counter, default_tuning);
    ("chunk-3", Help_chunk 3, Phase_scan, default_tuning);
    ("gc-friendly", Help_all, Phase_scan,
     { default_tuning with gc_friendly = true });
    ("validate-cas", Help_all, Phase_scan,
     { default_tuning with validate_before_cas = true });
    ("fully-tuned", Help_one_cyclic, Phase_counter, tuned);
  ]

(* The schedules each variant's systematic and certified cases explore:
   exploring a variant through another scenario builder must not change
   them. *)
let pinned_schedules =
  [
    ("chunk-1", (6_211, 1_148));
    ("chunk-2", (6_454, 95_404));
    ("chunk-3", (6_454, 48_047));
    ("gc-friendly", (6_835, 20_662));
    ("validate-cas", (6_411, 18_731));
    ("fully-tuned", (6_619, 1_533));
  ]

let test_chunk_validation () =
  Alcotest.check_raises "chunk 0 rejected"
    (Invalid_argument "Kp_queue.create: chunk size must be positive")
    (fun () ->
      ignore
        (Kp.create_with ~help:(Help_chunk 0) ~phase:Phase_scan
           ~num_threads:2 ()));
  (* Chunk larger than the thread count is fine (clamped). *)
  let q =
    Kp.create_with ~help:(Help_chunk 64) ~phase:Phase_scan ~num_threads:2 ()
  in
  Kp.enqueue q ~tid:0 1;
  Alcotest.(check (option int)) "usable" (Some 1) (Kp.dequeue q ~tid:1)

let test_variant_sequential (name, help, phase, tuning) () =
  let q = Kp.create_with ~tuning ~help ~phase ~num_threads:3 () in
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

let test_variant_domains (name, help, phase, tuning) () =
  let threads = 4 and iters = 3_000 in
  let q = Kp.create_with ~tuning ~help ~phase ~num_threads:threads () in
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

(* A variant as a configuration, over the simulator's atomics. *)
let variant_sim_ops (name, help, phase, tuning) =
  Ck.backend
    (Bk.make ~id:name ~label:name (Kp { Bk.kp with help; phase; tuning }))

(* Model checking: each variant, the pairs scenario, every schedule with
   <= 2 preemptions must be linearizable and conserve elements. *)
let test_variant_systematic ((name, _, _, _) as v) () =
  let r =
    Ck.run ~mode:(Ck.Preemption_bounded 2) ~max_schedules:60_000
      ~queue:(variant_sim_ops v)
      ~scripts:[ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]
      ()
  in
  (match r.Ck.failure with
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f
  | None -> ());
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted;
  Alcotest.(check int) (name ^ ": schedules explored")
    (fst (List.assoc name pinned_schedules))
    r.Ck.schedules

(* Wait-freedom certification: every §3.3 knob, DPOR-exhaustive over the
   enq|deq scenario, with the per-fiber step bound asserted on every
   explored schedule (Wfq_sim.Check's certifier — the currency of the
   paper's step-complexity theorem). A variant that could livelock or
   starve under some schedule would blow the bound or hit the step
   limit. *)
let certified_step_bound = 64

let test_variant_certified ((name, help, _, _) as v) () =
  (* Help_all × Phase_scan reads every slot twice per helping round, so
     its enq|deq trace space runs to ~1M Mazurkiewicz traces (measured:
     gc-friendly 995,830, validate-cas 406,134 — both clean but tens of
     seconds). Those two certify under <=3 preemptions instead; the
     cyclic/chunked variants are cheap enough for full DPOR. *)
  let mode =
    match help with
    | Help_all -> Ck.Preemption_bounded 3
    | Help_one_cyclic | Help_chunk _ -> Ck.Dpor
  in
  match
    Ck.certify ~mode ~max_schedules:100_000 ~bound:certified_step_bound
      ~queue:(variant_sim_ops v)
      ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
      ()
  with
  | Error m -> Alcotest.failf "%s: %s" name m
  | Ok c ->
      Alcotest.(check int) (name ^ ": schedules explored")
        (snd (List.assoc name pinned_schedules))
        c.Ck.schedules;
      Alcotest.(check bool)
        (Printf.sprintf "%s: certified bound %d covers the observed max %d"
           name certified_step_bound c.Ck.observed_bound)
        true
        (c.Ck.observed_bound <= certified_step_bound)

(* gc_friendly semantics: the descriptor drops its node reference as soon
   as the operation returns. *)
let test_gc_friendly_clears_descriptor () =
  let plain = Kp.create ~num_threads:2 () in
  Kp.enqueue plain ~tid:0 1;
  ignore (Kp.dequeue plain ~tid:1);
  Alcotest.(check bool) "base keeps node reference (the §3.3 leak)" true
    (Kp.holds_node_reference plain ~tid:0
    || Kp.holds_node_reference plain ~tid:1);
  let friendly =
    Kp.create_with
      ~tuning:{ default_tuning with gc_friendly = true }
      ~help:Help_all ~phase:Phase_scan ~num_threads:2 ()
  in
  Kp.enqueue friendly ~tid:0 1;
  ignore (Kp.dequeue friendly ~tid:1);
  Alcotest.(check bool) "gc_friendly clears tid 0" false
    (Kp.holds_node_reference friendly ~tid:0);
  Alcotest.(check bool) "gc_friendly clears tid 1" false
    (Kp.holds_node_reference friendly ~tid:1)

(* gc_friendly effect on the heap: after dequeuing large payloads, the
   friendly queue retains measurably less live memory. *)
let test_gc_friendly_releases_memory () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* The value dequeued LAST is always retained by the queue itself (the
     node holding it became the sentinel — inherent to MS-style queues).
     The §3.3 leak is the value dequeued BEFORE it: its node is the
     sentinel recorded in the dequeuer's descriptor, so without the
     enhancement the descriptor pins it forever. *)
  let payload_words = 64 * 1024 in
  let retained tuning =
    let q =
      Kp.create_with ~tuning ~help:Help_all ~phase:Phase_scan
        ~num_threads:1 ()
    in
    let before = live () in
    Kp.enqueue q ~tid:0 (Array.make payload_words 0);
    Kp.enqueue q ~tid:0 (Array.make payload_words 1);
    ignore (Kp.dequeue q ~tid:0);
    ignore (Kp.dequeue q ~tid:0);
    let after = live () in
    ignore (Sys.opaque_identity q);
    after - before
  in
  let base = retained default_tuning in
  let friendly = retained { default_tuning with gc_friendly = true } in
  Alcotest.(check bool)
    (Printf.sprintf "base retains both payloads (%d words)" base)
    true
    (base >= 2 * payload_words);
  Alcotest.(check bool)
    (Printf.sprintf "gc_friendly retains only the sentinel's (%d words)"
       friendly)
    true
    (friendly < (3 * payload_words / 2))

let () =
  Alcotest.run "kp-variants"
    [
      ( "construction",
        [ Alcotest.test_case "chunk validation" `Quick test_chunk_validation ]
      );
      ( "sequential",
        List.map
          (fun ((name, _, _, _) as v) ->
            Alcotest.test_case (name ^ " ≡ model") `Quick
              (test_variant_sequential v))
          variants );
      ( "domains",
        List.map
          (fun ((name, _, _, _) as v) ->
            Alcotest.test_case (name ^ " pairs stress") `Quick
              (test_variant_domains v))
          variants );
      ( "systematic",
        List.map
          (fun ((name, _, _, _) as v) ->
            Alcotest.test_case (name ^ " <=2 preemptions") `Quick
              (test_variant_systematic v))
          variants );
      ( "certified",
        List.map
          (fun ((name, _, _, _) as v) ->
            Alcotest.test_case (name ^ " wait-freedom certified") `Quick
              (test_variant_certified v))
          variants );
      ( "gc-friendly",
        [
          Alcotest.test_case "descriptor cleared" `Quick
            test_gc_friendly_clears_descriptor;
          Alcotest.test_case "memory released" `Quick
            test_gc_friendly_releases_memory;
        ] );
    ]
