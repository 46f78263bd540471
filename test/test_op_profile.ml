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
   - the ring's fast path takes no fetch-and-add ticket, and its full
     and empty answers write nothing;
   - uncontended operations never fail a CAS. *)

module C = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Ms = Wfq_core.Ms_queue.Make (CA)
module Kp = Wfq_core.Kp_queue.Make (CA)
module Ring = Wfq_core.Ring_queue.Make (CA)

let profile f =
  CA.reset ();
  f ();
  CA.snapshot ()

(* [profile] of an operation whose answer is checked too. *)
let profile_answer f =
  let answer = ref None in
  let s = profile (fun () -> answer := Some (f ())) in
  (Option.get !answer, s)

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

(* --------------------------- ring -------------------------------- *)

(* docs/RING.md's fast path: no fetch-and-add ticket per operation (the
   only FAAs are the slow path's doorway and flag); one slot CAS
   installs or frees a value, one more advances the hint; and the full
   and empty answers linearize at a slot read, writing nothing. *)

let test_ring_enqueue_profile () =
  let q = Ring.create_with ~capacity:4 ~num_threads:1 () in
  let ok, enq = profile_answer (fun () -> Ring.try_enqueue q ~tid:0 1) in
  Alcotest.(check bool) "enqueue accepted" true ok;
  Alcotest.(check int) "enqueue: no FAA" 0 enq.C.fetch_adds;
  Alcotest.(check int) "enqueue: 2 CAS (slot + tail)" 2 enq.C.cas_success;
  Alcotest.(check int) "enqueue: no failures" 0 enq.C.cas_failure;
  Alcotest.(check int) "enqueue: no plain writes" 0 enq.C.writes

let test_ring_dequeue_profile () =
  let q = Ring.create_with ~capacity:4 ~num_threads:1 () in
  Ring.enqueue q ~tid:0 1;
  let got, deq = profile_answer (fun () -> Ring.dequeue q ~tid:0) in
  Alcotest.(check (option int)) "dequeued" (Some 1) got;
  Alcotest.(check int) "dequeue: no FAA" 0 deq.C.fetch_adds;
  Alcotest.(check int) "dequeue: 2 CAS (slot + head)" 2 deq.C.cas_success;
  Alcotest.(check int) "dequeue: no failures" 0 deq.C.cas_failure;
  Alcotest.(check int) "dequeue: no plain writes" 0 deq.C.writes

(* With no fast-path budget every operation takes the slow path, whose
   fetch-and-adds are its doorway: the flag raised and lowered around
   one phase ticket. *)
let test_ring_slow_path_faa () =
  let q = Ring.create_with ~capacity:4 ~max_failures:0 ~num_threads:1 () in
  let ok, enq = profile_answer (fun () -> Ring.try_enqueue q ~tid:0 1) in
  Alcotest.(check bool) "slow enqueue accepted" true ok;
  Alcotest.(check int) "slow enqueue: 3 FAA (flag, phase, flag)" 3
    enq.C.fetch_adds;
  let got, deq = profile_answer (fun () -> Ring.dequeue q ~tid:0) in
  Alcotest.(check (option int)) "slow dequeue" (Some 1) got;
  Alcotest.(check int) "slow dequeue: 3 FAA (flag, phase, flag)" 3
    deq.C.fetch_adds

let test_ring_empty_answer () =
  let q = Ring.create_with ~capacity:4 ~num_threads:1 () in
  let got, empty = profile_answer (fun () -> Ring.dequeue q ~tid:0) in
  Alcotest.(check (option int)) "empty answer" None got;
  Alcotest.(check int) "empty: no CAS" 0
    (empty.C.cas_success + empty.C.cas_failure);
  Alcotest.(check int) "empty: no FAA" 0 empty.C.fetch_adds;
  Alcotest.(check int) "empty: no plain writes" 0 empty.C.writes

let test_ring_full_answer () =
  let q = Ring.create_with ~capacity:1 ~num_threads:1 () in
  Ring.enqueue q ~tid:0 1;
  let ok, full = profile_answer (fun () -> Ring.try_enqueue q ~tid:0 2) in
  Alcotest.(check bool) "full answer" false ok;
  Alcotest.(check int) "full: no CAS" 0
    (full.C.cas_success + full.C.cas_failure);
  Alcotest.(check int) "full: no FAA" 0 full.C.fetch_adds;
  Alcotest.(check int) "full: no plain writes" 0 full.C.writes

(* --------------------------- KP ---------------------------------- *)

module Bk = Wfq_core.Backends

(* A KP configuration over the counting atomics. *)
let kp_make (c : Bk.kp) ~num_threads =
  Kp.create_with ~help:c.help ~phase:c.phase ~num_threads ()

let test_kp_base_profile () =
  let q = kp_make Bk.kp_base ~num_threads:1 in
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
    let q = kp_make Bk.kp_base ~num_threads in
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
    let q = kp_make Bk.kp ~num_threads in
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
  let q = kp_make Bk.kp_opt2 ~num_threads:1 in
  let enq = profile (fun () -> Kp.enqueue q ~tid:0 1) in
  (* Optimization 2 adds exactly one (possibly failing, here winning)
     CAS on the phase counter. *)
  Alcotest.(check int) "enqueue: 3 scheme CAS + 1 phase CAS" 4
    enq.C.cas_success

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
  (* Enqueue: the node, 5 words (header, [next] in field 0, [value],
     [enq_tid], and the claim word [deq_tid] in field 3; the element is
     unboxed), and two descriptors of 9. Dequeue: three descriptors
     (27) and the [Some] it returns (2). [deq_tid] in a 2-word cell of
     its own would add that cell and the pointer to it, 2 words to the
     enqueue. [next] and a descriptor's node hold nodes, never option
     boxes: a box per append or per stage-1 descriptor would add 2
     words to each. Pool fields in the node and the descriptor would
     add 2 words to each record. A per-node or per-descriptor [let rec]
     would add a second copy of each record; a dequeued sentinel that
     is not self-linked would promote every node. *)
  let a = backend_probe "kp-opt12" in
  Alcotest.(check int) "enqueue words" 23 a.enq_words;
  Alcotest.(check int) "dequeue words" 29 a.deq_words;
  check_promoted "kp-opt12" a

(* Words reachable from a queue holding [n] elements, less those of the
   empty queue, per element. The queue's last descriptor (9 words)
   rounds away. *)
let live_words_per_element (type q) ~(create : unit -> q)
    ~(enqueue : q -> int -> unit) =
  let n = 10_000 in
  let q = create () in
  let empty = Obj.reachable_words (Obj.repr q) in
  for i = 1 to n do
    enqueue q i
  done;
  let full = Obj.reachable_words (Obj.repr q) in
  (full - empty) / n

module Ms_real = Wfq_core.Ms_queue.Make (Wfq_primitives.Real_atomic)

(* A registry entry's words per queued element. *)
let backend_live_words id =
  live_words_per_element
    ~create:(fun () -> Bk.instantiate (Bk.find id) ~num_threads:1 ())
    ~enqueue:(fun q v -> q.Wfq_core.Queue_intf.enq ~tid:0 v)

let test_kp_opt12_live_words () =
  (* A queued element costs its node and nothing else: 5 words (see
     above), the lock-free node's 3 plus [enq_tid] and [deq_tid], the
     paper's two extra fields. With [deq_tid] in a cell of its own it
     was 7; with [next] in one too, 9; a boxed element made that 11,
     pool fields 13, a boxed [next] 15. *)
  Alcotest.(check int) "live words per element" 5
    (backend_live_words "kp-opt12")

let test_kp_opt12_pooled_live_words () =
  (* A pooled node is the same 5 words: the pool's free stacks and
     quarantines are arrays of its own, so the node carries nothing for
     it. The segments carved and the arrays' capacity round away. *)
  Alcotest.(check int) "live words per element" 5
    (backend_live_words "kp-opt12-pooled")

let test_fps_pooled_live_words () =
  (* The fast-path queue shares the KP node: 5 words a queued element,
     pooled or not, and a fast-path enqueue publishes no descriptor. *)
  Alcotest.(check int) "live words per element" 5
    (backend_live_words "fps-pooled")

let test_ms_live_words () =
  (* The lock-free node is a header, [next] in field 0 and [value]:
     3 words, the baseline of Fig. 10's space comparison. *)
  Alcotest.(check int) "live words per element" 3
    (live_words_per_element
       ~create:(fun () -> Ms_real.create ~num_threads:1 ())
       ~enqueue:(fun q v -> Ms_real.enqueue q ~tid:0 v))

let test_fps_alloc () =
  (* The fast-path enqueue allocates just the 5-word node; the
     fast-path dequeue allocates only the [Some] it returns and
     self-links its sentinel, so no node is promoted. *)
  let a = backend_probe "fps" in
  Alcotest.(check int) "enqueue words" 5 a.enq_words;
  Alcotest.(check int) "dequeue words" 2 a.deq_words;
  check_promoted "fps" a

let test_kp_hp_alloc () =
  (* Nodes come from the pool, and a hazard publication stores the node
     itself, so neither allocates, and the node's size moves neither
     figure. Enqueue: two 9-word descriptors (the hazard-pointer queue
     does not recycle them); the element is unboxed. Dequeue: its three
     descriptors (it runs as a one-element batch), the [taken] list and
     the result box, and the hazard domain's retire list and scans.
     With pool fields in each
     descriptor and a boxed element these were 24 and 54; with a
     [Some node] box per publication too, 40 and 68. *)
  let module Q = Wfq_core.Kp_queue_hp.Make (Wfq_primitives.Real_atomic) in
  let q = Q.create ~num_threads:1 () in
  let a =
    alloc_probe ~enq:(fun v -> Q.enqueue q ~tid:0 v)
      ~deq:(fun () -> Q.dequeue q ~tid:0)
  in
  Alcotest.(check int) "enqueue words" 18 a.enq_words;
  Alcotest.(check int) "dequeue words" 48 a.deq_words;
  check_promoted "kp-hp" a

let test_ms_alloc () =
  (* Enqueue: the node, 3 words (header, [next] in field 0, [value];
     the element is unboxed). Dequeue: the [Some] it returns (2), since
     the self-link stores the node itself. With [next] in a cell of its
     own this was 7; pool fields and a boxed element made that 9, and a
     [Some] box per append and per self-link 13. *)
  let module Q = Wfq_core.Ms_queue.Make (Wfq_primitives.Real_atomic) in
  let q = Q.create ~num_threads:1 () in
  let a =
    alloc_probe ~enq:(fun v -> Q.enqueue q ~tid:0 v)
      ~deq:(fun () -> Q.dequeue q ~tid:0)
  in
  Alcotest.(check int) "words per pair" 5 (a.enq_words + a.deq_words);
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
          Alcotest.test_case "ring enqueue: no FAA ticket" `Quick
            test_ring_enqueue_profile;
          Alcotest.test_case "ring dequeue: slot + head CAS" `Quick
            test_ring_dequeue_profile;
          Alcotest.test_case "ring slow path: FAA only at its doorway" `Quick
            test_ring_slow_path_faa;
          Alcotest.test_case "ring empty answer writes nothing" `Quick
            test_ring_empty_answer;
          Alcotest.test_case "ring full answer writes nothing" `Quick
            test_ring_full_answer;
          Alcotest.test_case "KP three-step scheme" `Quick
            test_kp_base_profile;
          Alcotest.test_case "base KP scans scale with n" `Quick
            test_kp_scan_scales_with_threads;
          Alcotest.test_case "opt KP independent of n" `Quick
            test_kp_opt12_independent_of_threads;
          Alcotest.test_case "phase counter adds one CAS" `Quick
            test_phase_counter_cas;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "kp-opt12 words and promotion" `Quick
            test_kp_opt12_alloc;
          Alcotest.test_case "kp-opt12 live words per element" `Quick
            test_kp_opt12_live_words;
          Alcotest.test_case "kp-opt12-pooled live words per element"
            `Quick test_kp_opt12_pooled_live_words;
          Alcotest.test_case "fps-pooled live words per element" `Quick
            test_fps_pooled_live_words;
          Alcotest.test_case "ms live words per element" `Quick
            test_ms_live_words;
          Alcotest.test_case "fps enqueue words" `Quick test_fps_alloc;
          Alcotest.test_case "kp-hp words and promotion" `Quick
            test_kp_hp_alloc;
          Alcotest.test_case "LF promotion" `Quick test_ms_alloc;
        ] );
    ]
