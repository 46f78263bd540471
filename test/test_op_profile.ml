(* Shared-memory operation profiles — the cost model of §3.3, pinned.

   Each queue is instantiated with the counting ATOMIC wrapper; we
   measure exactly how many atomic reads/writes/CASes one uncontended
   operation performs and assert the structural facts the paper's
   optimization discussion rests on:

   - MS enqueue performs exactly 2 successful CASes (append + tail fix),
     MS dequeue exactly 1 (head swing);
   - KP operations pay extra CASes for the three-step scheme;
   - the base KP operation's read count grows linearly with num_threads
     (the maxPhase scan and the Help_all traversal), while the fully
     optimized variant's is independent of it — precisely why the paper's
     optimizations exist;
   - uncontended operations never fail a CAS. *)

module C = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Ms = Wfq_core.Ms_queue.Make (CA)
module Kp = Wfq_core.Kp_queue.Make (CA)
module Lms = Wfq_core.Lms_queue.Make (CA)

let profile f =
  CA.reset ();
  f ();
  CA.snapshot ()

(* --------------------------- MS ---------------------------------- *)

let test_ms_profile () =
  let q = Ms.create ~num_threads:1 () in
  let enq = profile (fun () -> Ms.enqueue q ~tid:0 1) in
  Alcotest.(check int) "enqueue: 2 CAS (append + tail)" 2 enq.C.cas_success;
  Alcotest.(check int) "enqueue: no failures" 0 enq.C.cas_failure;
  Ms.enqueue q ~tid:0 2;
  let deq = profile (fun () -> ignore (Ms.dequeue q ~tid:0)) in
  Alcotest.(check int) "dequeue: 1 CAS (head)" 1 deq.C.cas_success;
  Alcotest.(check int) "dequeue: no failures" 0 deq.C.cas_failure;
  let empty_deq =
    profile (fun () ->
        ignore (Ms.dequeue q ~tid:0);
        ignore (Ms.dequeue q ~tid:0))
  in
  (* second dequeue observed empty: head CAS once, then none *)
  Alcotest.(check int) "empty dequeue adds no CAS" 1 empty_deq.C.cas_success

(* --------------------------- LMS --------------------------------- *)

let test_lms_profile () =
  let q = Lms.create ~num_threads:1 () in
  let enq = profile (fun () -> Lms.enqueue q ~tid:0 1) in
  (* The optimistic queue's selling point: a single CAS per enqueue. *)
  Alcotest.(check int) "enqueue: exactly 1 CAS" 1 enq.C.cas_success;
  Alcotest.(check int) "enqueue: no failures" 0 enq.C.cas_failure

(* --------------------------- KP ---------------------------------- *)

let kp_make ~help ~phase ~num_threads =
  Kp.create_with ~help ~phase ~num_threads ()

let test_kp_base_profile () =
  let q =
    kp_make ~help:Wfq_core.Kp_queue.Help_all
      ~phase:Wfq_core.Kp_queue.Phase_scan ~num_threads:1
  in
  let enq = profile (fun () -> Kp.enqueue q ~tid:0 1) in
  (* Three-step scheme: append CAS + pending-flip CAS + tail CAS. *)
  Alcotest.(check int) "enqueue: 3 CAS (scheme steps)" 3 enq.C.cas_success;
  Alcotest.(check int) "enqueue: no failures uncontended" 0
    enq.C.cas_failure;
  Kp.enqueue q ~tid:0 2;
  let deq = profile (fun () -> ignore (Kp.dequeue q ~tid:0)) in
  (* Stage 1 (descriptor -> sentinel) + stage 2 (deq_tid) + pending flip
     + head swing. *)
  Alcotest.(check int) "dequeue: 4 CAS (scheme + stage 1)" 4
    deq.C.cas_success;
  Alcotest.(check int) "dequeue: no failures uncontended" 0
    deq.C.cas_failure

let test_kp_scan_scales_with_threads () =
  let reads_for num_threads =
    let q =
      kp_make ~help:Wfq_core.Kp_queue.Help_all
        ~phase:Wfq_core.Kp_queue.Phase_scan ~num_threads
    in
    (profile (fun () -> Kp.enqueue q ~tid:0 1)).C.reads
  in
  let r1 = reads_for 1 and r8 = reads_for 8 and r16 = reads_for 16 in
  (* maxPhase + Help_all each scan all slots: at least 2 extra reads per
     extra slot. *)
  Alcotest.(check bool)
    (Printf.sprintf "base reads grow with n (1:%d 8:%d 16:%d)" r1 r8 r16)
    true
    (r8 >= r1 + (2 * 7) && r16 >= r8 + (2 * 8))

let test_kp_opt12_independent_of_threads () =
  let reads_for num_threads =
    let q =
      kp_make ~help:Wfq_core.Kp_queue.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads
    in
    (profile (fun () -> Kp.enqueue q ~tid:0 1)).C.reads
  in
  let r1 = reads_for 1 and r16 = reads_for 16 in
  (* The optimized operation touches at most one extra candidate slot
     regardless of n — the whole point of §3.3. *)
  Alcotest.(check bool)
    (Printf.sprintf "opt reads independent of n (1:%d 16:%d)" r1 r16)
    true
    (r16 <= r1 + 2)

let test_phase_counter_cas () =
  let q =
    kp_make ~help:Wfq_core.Kp_queue.Help_all
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:1
  in
  let enq = profile (fun () -> Kp.enqueue q ~tid:0 1) in
  (* Optimization 2 adds exactly one (possibly failing, here winning)
     CAS on the phase counter. *)
  Alcotest.(check int) "enqueue: 3 scheme CAS + 1 phase CAS" 4
    enq.C.cas_success

let test_validate_before_cas_saves_nothing_uncontended () =
  (* Uncontended, the pending flag is still on when help_finish runs, so
     enhancement 3 changes nothing — its value is contention-only. *)
  let profile_with tuning =
    let q =
      Kp.create_with ~tuning ~help:Wfq_core.Kp_queue.Help_all
        ~phase:Wfq_core.Kp_queue.Phase_scan ~num_threads:1 ()
    in
    profile (fun () -> Kp.enqueue q ~tid:0 1)
  in
  let base = profile_with Wfq_core.Kp_queue.default_tuning in
  let tuned =
    profile_with
      { Wfq_core.Kp_queue.default_tuning with validate_before_cas = true }
  in
  Alcotest.(check int) "same CAS count uncontended" base.C.cas_success
    tuned.C.cas_success

(* ------------------------- allocation ------------------------------ *)

(* Words per operation on one domain, from [Gc] counters: exact, since a
   single domain allocates the same words on every run. The probe runs
   100k enqueue/dequeue pairs and forces a minor collection every 1,000
   pairs, so a queue whose dequeued nodes keep their successors
   reachable (nepotism: a promoted, dequeued node pointing at the young
   node enqueued after it) promotes every node it allocates. *)

type alloc = { enq_words : int; deq_words : int; promoted_per_pair : float }

let alloc_pairs = 100_000

let alloc_probe ~enq ~deq =
  Gc.full_major ();
  let enq_w = ref 0 and deq_w = ref 0 in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to alloc_pairs do
    let w0 = Gc.minor_words () in
    enq i;
    let w1 = Gc.minor_words () in
    ignore (deq ());
    let w2 = Gc.minor_words () in
    enq_w := !enq_w + int_of_float (w1 -. w0);
    deq_w := !deq_w + int_of_float (w2 -. w1);
    if i mod 1_000 = 0 then Gc.minor ()
  done;
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  {
    enq_words = !enq_w / alloc_pairs;
    deq_words = !deq_w / alloc_pairs;
    promoted_per_pair = (p1 -. p0) /. float_of_int alloc_pairs;
  }

let backend_probe id =
  let i : int Wfq_core.Queue_intf.instance =
    Wfq_core.Backends.instantiate (Wfq_core.Backends.find id) ~num_threads:1
      ()
  in
  alloc_probe
    ~enq:(fun v -> i.Wfq_core.Queue_intf.enq ~tid:0 v)
    ~deq:(fun () -> i.Wfq_core.Queue_intf.deq ~tid:0)

let check_promoted name a =
  Alcotest.(check bool)
    (Printf.sprintf "%s promotes < 0.1 words/pair (got %.3f)" name
       a.promoted_per_pair)
    true
    (a.promoted_per_pair < 0.1)

let test_kp_opt12_alloc () =
  (* Enqueue: node 13 words (record 7, two atomics 2 each, value box 2)
     and two descriptors of 11. Dequeue: three descriptors. [next] and a
     descriptor's node hold nodes, never option boxes: a box per append
     or per stage-1 descriptor would add 2 words to each. A per-node or
     per-descriptor [let rec] would add a second copy of each record; a
     dequeued sentinel that is not self-linked would promote every
     node. *)
  let a = backend_probe "kp-opt12" in
  Alcotest.(check int) "enqueue words" 35 a.enq_words;
  Alcotest.(check int) "dequeue words" 33 a.deq_words;
  check_promoted "kp-opt12" a

let test_kp_opt12_live_words () =
  (* A queued element costs its node and nothing else: 13 words (see
     above), where a boxed [next] cost 15. The queue's last descriptor
     (11 words) rounds away. *)
  let module Q = Wfq_core.Kp_queue.Make (Wfq_primitives.Real_atomic) in
  let n = 10_000 in
  let q =
    Q.create_with ~help:Wfq_core.Kp_queue.Help_one_cyclic
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:1 ()
  in
  let empty = Obj.reachable_words (Obj.repr q) in
  for i = 1 to n do
    Q.enqueue q ~tid:0 i
  done;
  let full = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check int) "live words per element" 13 ((full - empty) / n)

let test_fps_alloc () =
  (* The fast-path enqueue allocates just the node; the fast-path
     dequeue allocates nothing and self-links its sentinel, so no node
     is promoted. *)
  let a = backend_probe "fps" in
  Alcotest.(check int) "enqueue words" 13 a.enq_words;
  Alcotest.(check int) "dequeue words" 0 a.deq_words;
  check_promoted "fps" a

let test_kp_hp_alloc () =
  (* Nodes come from the pool, and a hazard publication stores the node
     itself, so neither allocates. Enqueue: two 11-word descriptors
     (the hazard-pointer queue does not recycle them) and the value box.
     Dequeue: its descriptors (it runs as a one-element batch), the
     [taken] list and the result box, and the hazard domain's retire
     list and scans. With a [Some node] box per publication these were
     40 and 68. *)
  let module Q = Wfq_core.Kp_queue_hp.Make (Wfq_primitives.Real_atomic) in
  let q = Q.create ~num_threads:1 () in
  let a =
    alloc_probe ~enq:(fun v -> Q.enqueue q ~tid:0 v)
      ~deq:(fun () -> Q.dequeue q ~tid:0)
  in
  Alcotest.(check int) "enqueue words" 24 a.enq_words;
  Alcotest.(check int) "dequeue words" 54 a.deq_words;
  check_promoted "kp-hp" a

let test_ms_alloc () =
  (* Enqueue: the node, 9 words (record 5, [next] 2, value box 2).
     Dequeue: nothing, since the self-link stores the node itself. A
     [Some] box per append and per self-link made this 13. *)
  let module Q = Wfq_core.Ms_queue.Make (Wfq_primitives.Real_atomic) in
  let q = Q.create ~num_threads:1 () in
  let a =
    alloc_probe ~enq:(fun v -> Q.enqueue q ~tid:0 v)
      ~deq:(fun () -> Q.dequeue q ~tid:0)
  in
  Alcotest.(check int) "words per pair" 9 (a.enq_words + a.deq_words);
  check_promoted "LF (Ms_queue)" a

let test_counters_reset_and_total () =
  CA.reset ();
  Alcotest.(check int) "reset zeroes" 0 (C.total (CA.snapshot ()));
  let c = CA.make 1 in
  ignore (CA.get c);
  CA.set c 2;
  ignore (CA.compare_and_set c 2 3);
  ignore (CA.compare_and_set c 2 4);
  ignore (CA.exchange c 5);
  ignore (CA.fetch_and_add c 1);
  let s = CA.snapshot () in
  Alcotest.(check int) "reads" 1 s.C.reads;
  Alcotest.(check int) "writes" 1 s.C.writes;
  Alcotest.(check int) "cas ok" 1 s.C.cas_success;
  Alcotest.(check int) "cas fail" 1 s.C.cas_failure;
  Alcotest.(check int) "exchange" 1 s.C.exchanges;
  Alcotest.(check int) "faa" 1 s.C.fetch_adds;
  Alcotest.(check int) "total" 6 (C.total s)

let () =
  Alcotest.run "op-profile"
    [
      ( "wrapper",
        [ Alcotest.test_case "counters count" `Quick
            test_counters_reset_and_total ] );
      ( "profiles",
        [
          Alcotest.test_case "MS cost model" `Quick test_ms_profile;
          Alcotest.test_case "LMS single-CAS enqueue" `Quick
            test_lms_profile;
          Alcotest.test_case "KP three-step scheme" `Quick
            test_kp_base_profile;
          Alcotest.test_case "base KP scans scale with n" `Quick
            test_kp_scan_scales_with_threads;
          Alcotest.test_case "opt KP independent of n" `Quick
            test_kp_opt12_independent_of_threads;
          Alcotest.test_case "phase counter adds one CAS" `Quick
            test_phase_counter_cas;
          Alcotest.test_case "validation is contention-only" `Quick
            test_validate_before_cas_saves_nothing_uncontended;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "kp-opt12 words and promotion" `Quick
            test_kp_opt12_alloc;
          Alcotest.test_case "kp-opt12 live words per element" `Quick
            test_kp_opt12_live_words;
          Alcotest.test_case "fps enqueue words" `Quick test_fps_alloc;
          Alcotest.test_case "kp-hp words and promotion" `Quick
            test_kp_hp_alloc;
          Alcotest.test_case "LF promotion" `Quick test_ms_alloc;
        ] );
    ]
