(* The fast-path/slow-path queue (Kp_queue_fps), checked three ways:

   - under the deterministic simulator: every explored interleaving of
     the contended scenarios is linearizable and conserves elements,
     with [max_failures = 1] so the fast->slow fallback genuinely fires
     inside the exploration (asserted via the slow-path probe);
   - under the counting ATOMIC wrapper: an uncontended enqueue+dequeue
     pair performs strictly fewer atomic RMWs than the base KP queue —
     the whole point of the fast path;
   - on real domains: conservation and per-producer FIFO order at 8
     domains, and a probe check that contention with [max_failures = 1]
     actually drives operations onto the slow path. *)

module SA = Wfq_sim.Sim_atomic
module Ck = Wfq_sim.Check
module Fp_sim = Wfq_core.Kp_queue_fps.Make (SA)

(* ---------------------------------------------------------------- *)
(* Simulator: systematic linearizability, fallback included          *)
(* ---------------------------------------------------------------- *)

(* The registry's fps configuration at budget [max_failures], built
   directly so that its audit can also add the queue's slow-path
   entries to [slow_seen]: the exploration then asserts the fallback
   was exercised. *)
let fps ~max_failures ~slow_seen =
  Ck.queue
    ~create:(fun ~num_threads ->
      Fp_sim.create_with ~max_failures ~help:Help_one_cyclic
        ~phase:Phase_counter ~num_threads ())
    ~enqueue:Fp_sim.enqueue ~dequeue:Fp_sim.dequeue ~contents:Fp_sim.to_list
    ~audit:(fun q ->
      slow_seen := !slow_seen + Fp_sim.slow_path_entries q;
      Fp_sim.check_quiescent_invariants q)
    ()

(* [run] fails the test on a counterexample, shrunk. *)
let run ?max_schedules mode ~max_failures ~slow_seen scripts =
  let r =
    Ck.run ~mode ?max_schedules ~queue:(fps ~max_failures ~slow_seen)
      ~scripts ()
  in
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

(* [max_failures = 1]: a single failed fast round falls back, so the
   preemption-bounded search reaches fast-path, slow-path and
   fast-helps-slow interleavings in the same exploration. *)
let explore_case ~max_failures ~track_slow (scen_name, scripts) budget
    ~schedules =
  Alcotest.test_case
    (Printf.sprintf "mf=%d: %s (<=%d preemptions)" max_failures scen_name
       budget)
    `Quick
    (fun () ->
      let slow_seen = ref 0 in
      let r =
        run ~max_schedules:60_000 (Ck.Preemption_bounded budget)
          ~max_failures ~slow_seen scripts
      in
      Alcotest.(check bool) "search exhausted" true r.Ck.exhausted;
      Alcotest.(check int) "schedules explored" schedules r.Ck.schedules;
      if track_slow then
        Alcotest.(check bool)
          (Printf.sprintf
             "some explored schedule forced the slow path (saw %d entries)"
             !slow_seen)
          true (!slow_seen > 0))

let systematic_tests =
  (* mf=1 with fallback tracking on the contended scenarios (the
     single-op "enq vs deq on empty" never fails a CAS: enqueue and
     dequeue touch disjoint words on an empty queue). *)
  List.map2
    (fun ((name, scripts) as scen) schedules ->
      let contended = name <> "enq vs deq on empty" in
      explore_case ~max_failures:1 ~track_slow:contended scen ~schedules
        (if List.length scripts >= 3 then 1 else 2))
    scenarios
    (* the schedules each case explores, pinned *)
    [ 133; 121; 198; 596; 402; 192 ]
  (* mf=0 degenerates to the pure KP slow path; keep one scenario as a
     sanity anchor. mf=64 keeps everything on the fast path. *)
  @ [
      explore_case ~max_failures:0 ~track_slow:true
        ("pairs x2", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ])
        2 ~schedules:7_697;
      explore_case ~max_failures:64 ~track_slow:false
        ("pairs x2", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ])
        2 ~schedules:514;
    ]

let fuzz_case ~max_failures (scen_name, scripts) count =
  Alcotest.test_case
    (Printf.sprintf "mf=%d: %s (fuzz %d)" max_failures scen_name count)
    `Quick
    (fun () ->
      ignore
        (run
           (Ck.Fuzz { seed0 = 0; count })
           ~max_failures ~slow_seen:(ref 0) scripts))

let big_scenario : string * Ck.script list =
  ( "4 threads mixed",
    [
      [ `Enq 1; `Deq; `Enq 2 ];
      [ `Deq; `Enq 3; `Deq ];
      [ `Enq 4; `Enq 5; `Deq ];
      [ `Deq; `Deq; `Enq 6 ];
    ] )

let fuzz_tests =
  [
    fuzz_case ~max_failures:1 big_scenario 400;
    fuzz_case ~max_failures:8 big_scenario 400;
  ]

(* Regression: help_slot must pass the DESCRIPTOR's phase down to
   help_enq/help_deq (paper Fig. 2), not the caller's bound. With the
   caller's bound — in particular maybe_help's max_int — a stale helper
   survives into the tid's next operation (phases per tid strictly
   increase, so the descriptor-phase bound filters it): it can rewrite a
   pending enqueue descriptor through the dequeue helper or re-append a
   consumed node, wedging tail so that every operation livelocks in
   help_finish_enq. Seed 286 of the 4-thread scenario above hit exactly
   that as a 1M-step livelock with two fibers spinning. *)
let test_stale_helper_phase_bound_regression () =
  let _, scripts = big_scenario in
  ignore
    (run
       (Ck.Fuzz { seed0 = 286; count = 1 })
       ~max_failures:1 ~slow_seen:(ref 0) scripts)

(* ---------------------------------------------------------------- *)
(* Cost model: fewer RMWs than base KP when uncontended               *)
(* ---------------------------------------------------------------- *)

module Cnt = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Kp_cnt = Wfq_core.Kp_queue.Make (CA)
module Fp_cnt = Wfq_core.Kp_queue_fps.Make (CA)

let rmws (s : Cnt.counters) =
  s.Cnt.cas_success + s.Cnt.cas_failure + s.Cnt.exchanges + s.Cnt.fetch_adds

let profile f =
  CA.reset ();
  f ();
  CA.snapshot ()

let test_fps_pair_cheaper_than_kp () =
  let fq =
    Fp_cnt.create_with ~max_failures:64 ~help:Help_one_cyclic
      ~phase:Phase_counter ~num_threads:1 ()
  in
  let fps_pair =
    profile (fun () ->
        Fp_cnt.enqueue fq ~tid:0 1;
        ignore (Fp_cnt.dequeue fq ~tid:0))
  in
  let kq =
    Kp_cnt.create_with ~help:Help_all ~phase:Phase_scan ~num_threads:1 ()
  in
  let kp_pair =
    profile (fun () ->
        Kp_cnt.enqueue kq ~tid:0 1;
        ignore (Kp_cnt.dequeue kq ~tid:0))
  in
  (* Fast path: append CAS + tail CAS (enqueue), deq_tid claim CAS +
     head CAS (dequeue) — 4 RMWs, none failing; the base KP three-step
     scheme pays 7 for the same pair. *)
  Alcotest.(check int) "fps pair: 4 RMWs" 4 (rmws fps_pair);
  Alcotest.(check int) "fps pair: no failed CAS" 0 fps_pair.Cnt.cas_failure;
  Alcotest.(check int) "kp pair: 7 RMWs" 7 (rmws kp_pair);
  Alcotest.(check bool)
    (Printf.sprintf "fps %d < kp %d" (rmws fps_pair) (rmws kp_pair))
    true
    (rmws fps_pair < rmws kp_pair);
  Alcotest.(check int) "both ops took the fast path" 2
    (Fp_cnt.fast_path_hits fq);
  Alcotest.(check int) "no slow-path entries" 0 (Fp_cnt.slow_path_entries fq)

(* mf=0 disables the fast path: the pair must cost at least base KP's 7
   RMWs (opt-2's phase counter and the slow_pending bookkeeping add
   more), and the probes must attribute every op to the slow path. *)
let test_mf0_degenerates_to_slow_path () =
  let fq =
    Fp_cnt.create_with ~max_failures:0 ~help:Help_one_cyclic
      ~phase:Phase_counter ~num_threads:1 ()
  in
  let pair =
    profile (fun () ->
        Fp_cnt.enqueue fq ~tid:0 1;
        ignore (Fp_cnt.dequeue fq ~tid:0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "slow pair costs >= 7 RMWs (got %d)" (rmws pair))
    true
    (rmws pair >= 7);
  Alcotest.(check int) "no fast hits" 0 (Fp_cnt.fast_path_hits fq);
  Alcotest.(check int) "two slow entries" 2 (Fp_cnt.slow_path_entries fq);
  Alcotest.(check (result unit string)) "quiescent invariants" (Ok ())
    (Fp_cnt.check_quiescent_invariants fq)

(* ---------------------------------------------------------------- *)
(* Real domains                                                       *)
(* ---------------------------------------------------------------- *)

module A = Wfq_primitives.Real_atomic
module Fp = Wfq_core.Kp_queue_fps.Make (A)

let fp_create ~max_failures ~num_threads =
  Fp.create_with ~max_failures ~help:Help_one_cyclic ~phase:Phase_counter
    ~num_threads ()

let encode ~producer ~seq = (producer * 1_000_000) + seq
let producer_of v = v / 1_000_000
let seq_of v = v mod 1_000_000

(* 8 domains (4 producers, 4 consumers): conservation and per-producer
   FIFO order, the test_queues_conc discipline, at the thread count the
   acceptance criteria name. *)
let test_8_domains ~max_failures () =
  let producers = 4 and consumers = 4 and per_producer = 2_000 in
  let num_threads = producers + consumers in
  let q = fp_create ~max_failures ~num_threads in
  let total = producers * per_producer in
  let consumed = Atomic.make 0 in
  let logs = Array.make consumers [] in
  let producer p () =
    for seq = 1 to per_producer do
      Fp.enqueue q ~tid:p (encode ~producer:p ~seq)
    done
  in
  let consumer c () =
    let tid = producers + c in
    let got = ref [] in
    while Atomic.get consumed < total do
      match Fp.dequeue q ~tid with
      | Some v ->
          got := v :: !got;
          Atomic.incr consumed
      | None -> Domain.cpu_relax ()
    done;
    logs.(c) <- List.rev !got
  in
  let domains =
    List.init producers (fun p -> Domain.spawn (producer p))
    @ List.init consumers (fun c -> Domain.spawn (consumer c))
  in
  List.iter Domain.join domains;
  let seen = Hashtbl.create total in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.fail (Printf.sprintf "value %d seen twice" v);
         Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int) "every value consumed exactly once" total
    (Hashtbl.length seen);
  Alcotest.(check int) "queue empty" 0 (Fp.length q);
  Array.iter
    (fun log ->
      let last_seq = Array.make producers 0 in
      List.iter
        (fun v ->
          let p = producer_of v and s = seq_of v in
          if s <= last_seq.(p) then
            Alcotest.fail
              (Printf.sprintf "per-producer order violated (p%d: %d after %d)"
                 p s last_seq.(p));
          last_seq.(p) <- s)
        log)
    logs;
  Alcotest.(check (result unit string)) "quiescent invariants" (Ok ())
    (Fp.check_quiescent_invariants q);
  (* Every one of the 2*total productive ops took exactly one path;
     consumers' observed-empty dequeues add on top. *)
  Alcotest.(check bool) "path probes cover all ops" true
    (Fp.fast_path_hits q + Fp.slow_path_entries q >= 2 * total)

(* With a 1-failure budget, a contended run must push some operations
   onto the slow path; retry with growing pressure rather than flaking
   on a quiet scheduler. *)
let test_contention_reaches_slow_path () =
  let saw_slow = ref 0 in
  let attempt iters =
    let threads = 4 in
    let q = fp_create ~max_failures:1 ~num_threads:threads in
    let domains =
      List.init threads (fun tid ->
          Domain.spawn (fun () ->
              for i = 1 to iters do
                Fp.enqueue q ~tid (encode ~producer:tid ~seq:i);
                ignore (Fp.dequeue q ~tid)
              done))
    in
    List.iter Domain.join domains;
    saw_slow := Fp.slow_path_entries q;
    !saw_slow > 0
  in
  let rec try_sizes = function
    | [] ->
        Alcotest.fail
          "no slow-path entry in any contended run with max_failures = 1"
    | iters :: rest -> if not (attempt iters) then try_sizes rest
  in
  try_sizes [ 5_000; 20_000; 50_000; 100_000 ];
  Alcotest.(check bool)
    (Printf.sprintf "slow path entered (%d times)" !saw_slow)
    true (!saw_slow > 0)

(* Strict pairs: no dequeue in an enqueue-dequeue pair may observe
   empty — the linearizability smoke test the benchmarks also rely on. *)
let test_pairs_never_empty ~max_failures () =
  let threads = 4 and iters = 3_000 in
  let q = fp_create ~max_failures ~num_threads:threads in
  let empties = Atomic.make 0 in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Fp.enqueue q ~tid (encode ~producer:tid ~seq:i);
              match Fp.dequeue q ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no dequeue observed empty" 0 (Atomic.get empties);
  Alcotest.(check int) "balanced" 0 (Fp.length q)

(* ---------------------------------------------------------------- *)
(* Construction and probes                                            *)
(* ---------------------------------------------------------------- *)

let test_create_validation () =
  let check_invalid name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (f () : int Fp.t))
  in
  Wfq_core.Kp_queue.(
    check_invalid "num_threads" "Kp_queue_fps.create: num_threads" (fun () ->
        Fp.create_with ~help:Help_all ~phase:Phase_scan ~num_threads:0 ());
    check_invalid "max_failures" "Kp_queue_fps.create: max_failures must be >= 0"
      (fun () ->
        Fp.create_with ~max_failures:(-1) ~help:Help_all ~phase:Phase_scan
          ~num_threads:1 ()))

let test_probes_sequential () =
  let q = fp_create ~max_failures:64 ~num_threads:2 in
  Alcotest.(check int) "max_failures probe" 64 (Fp.max_failures q);
  Alcotest.(check bool) "no pending" false (Fp.pending_of q ~tid:0);
  Alcotest.(check int) "phase -1 before any slow op" (-1)
    (Fp.phase_of q ~tid:0);
  Fp.enqueue q ~tid:0 1;
  Fp.enqueue q ~tid:1 2;
  Alcotest.(check int) "fast hits split per tid" 1
    (Fp.fast_path_hits_of q ~tid:0);
  Alcotest.(check int) "fast hits total" 2 (Fp.fast_path_hits q);
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (Fp.to_list q);
  Alcotest.(check (option int)) "deq" (Some 1) (Fp.dequeue q ~tid:1);
  Alcotest.(check int) "length" 1 (Fp.length q);
  Alcotest.(check bool) "not empty" false (Fp.is_empty q);
  Alcotest.(check (result unit string)) "invariants" (Ok ())
    (Fp.check_quiescent_invariants q)

(* Sharded front-end over FPS shards (the registry's "fps", fast-path
   budget 64): the Wfq_shard wiring. *)
module Sh = Wfq_shard.Shard.Make (A)

let test_shard_fps_backend () =
  let threads = 4 in
  let q =
    Sh.create ~policy:Wfq_shard.Shard.Tid_affine
      ~backend:(Wfq_shard.Shard.Registered "fps")
      ~shards:2 ~num_threads:threads ()
  in
  Alcotest.(check bool) "backend probe" true
    (Sh.backend q = Wfq_shard.Shard.Registered "fps");
  let per = 2_000 in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for seq = 1 to per do
              Sh.enqueue q ~tid (encode ~producer:tid ~seq)
            done))
  in
  List.iter Domain.join domains;
  (* Sequential drain: conservation + per-producer order (each producer's
     elements share a shard under Tid_affine, so their order survives). *)
  let last_seq = Array.make threads 0 in
  let count = ref 0 in
  let rec drain () =
    match Sh.dequeue q ~tid:0 with
    | None -> ()
    | Some v ->
        incr count;
        let p = producer_of v and s = seq_of v in
        if s <> last_seq.(p) + 1 then
          Alcotest.fail
            (Printf.sprintf "producer %d out of order: %d after %d" p s
               last_seq.(p));
        last_seq.(p) <- s;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all present" (threads * per) !count;
  Alcotest.(check (result unit string)) "shard invariants" (Ok ())
    (Sh.check_quiescent_invariants q)

let () =
  Alcotest.run "fps"
    [
      ("systematic (preemption-bounded)", systematic_tests);
      ("fuzz (random schedules)", fuzz_tests);
      ( "regressions",
        [
          Alcotest.test_case "stale helper bounded by descriptor phase"
            `Quick test_stale_helper_phase_bound_regression;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "uncontended pair cheaper than base KP" `Quick
            test_fps_pair_cheaper_than_kp;
          Alcotest.test_case "mf=0 degenerates to pure slow path" `Quick
            test_mf0_degenerates_to_slow_path;
        ] );
      ( "domains",
        [
          Alcotest.test_case "8 domains, mf=64: conservation + order" `Quick
            (test_8_domains ~max_failures:64);
          Alcotest.test_case "8 domains, mf=1: conservation + order" `Quick
            (test_8_domains ~max_failures:1);
          Alcotest.test_case "contention reaches the slow path (mf=1)" `Quick
            test_contention_reaches_slow_path;
          Alcotest.test_case "pairs never observe empty (mf=64)" `Quick
            (test_pairs_never_empty ~max_failures:64);
          Alcotest.test_case "pairs never observe empty (mf=1)" `Quick
            (test_pairs_never_empty ~max_failures:1);
        ] );
      ( "construction & probes",
        [
          Alcotest.test_case "create_with validation" `Quick
            test_create_validation;
          Alcotest.test_case "probes (sequential)" `Quick
            test_probes_sequential;
          Alcotest.test_case "shard front-end over fps shards" `Quick
            test_shard_fps_backend;
        ] );
    ]
