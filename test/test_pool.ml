(* Segment_pool: unit tests for the pool mechanics (carve, reuse,
   clock, quarantine maturity, exact statistics), multi-domain
   conservation stress of the pooled queues, and the PR-4 DPOR
   calibration pair:

   - the recycle-ABA scenario run with quarantine OFF, so the epoch tag
     in the claim word is the only thing standing between a stalled
     dequeuer and a recycled sentinel — every trace must still be
     linearizable and element-conserving;
   - the same scenario with the [Untagged_pool_claim] fault seeded
     (recycle without bumping the incarnation): DPOR must find the
     duplicate delivery and the shrinker must produce a small
     counterexample.

   Quarantine is off only under a seeded fault ([Unquarantined_pool],
   which [Untagged_pool_claim] implies): a pooled queue always
   quarantines its nodes.

   Together they certify that the tag is load-bearing, not decorative. *)

module A = Wfq_primitives.Real_atomic
module Pool = Wfq_primitives.Segment_pool.Make (A)
module SA = Wfq_sim.Sim_atomic
module Ck = Wfq_sim.Check
module Sh = Wfq_sim.Shrink
module Fps = Wfq_core.Kp_queue_fps.Make (A)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)
module FpsSim = Wfq_core.Kp_queue_fps.Make (SA)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* A minimal pool client: the object carries nothing for the pool     *)
(* ------------------------------------------------------------------ *)

type obj = { mutable lives : int }

let fresh_obj () = { lives = 0 }

(* [reset] counts incarnations, standing in for the epoch bump a queue
   node performs. *)
let mk_pool ?(segment_size = 4) ?(quarantine = true) ?(num_threads = 1) ()
    =
  Pool.create ~segment_size ~quarantine ~num_threads ~fresh:fresh_obj
    ~reset:(fun o -> o.lives <- o.lives + 1)
    ()

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let mk ?(segment_size = 4) ?(num_threads = 2) () =
    ignore
      (Pool.create ~segment_size ~num_threads ~fresh:fresh_obj ~reset:ignore
         ())
  in
  Alcotest.check_raises "segment_size 0"
    (Invalid_argument "Segment_pool.create: segment_size must be positive")
    (fun () -> mk ~segment_size:0 ());
  Alcotest.check_raises "num_threads 0"
    (Invalid_argument "Segment_pool.create: num_threads") (fun () ->
      mk ~num_threads:0 ());
  Alcotest.check_raises "clock num_threads 0"
    (Invalid_argument "Segment_pool.Clock.create: num_threads") (fun () ->
      ignore (Pool.Clock.create ~num_threads:0))

let test_carve_and_stats () =
  let p = mk_pool ~segment_size:4 () in
  Pool.enter p ~tid:0;
  let o = Pool.alloc p ~tid:0 in
  (* First alloc carves one segment and hands out a first-life object. *)
  Alcotest.(check int) "one segment" 1 (Pool.segments p);
  Alcotest.(check int) "rest of the segment pooled" 3 (Pool.pooled p);
  Alcotest.(check int) "fresh" 1 (Pool.allocated_fresh p);
  Alcotest.(check int) "no reuse yet" 0 (Pool.reused p);
  Alcotest.(check int) "reset ran" 1 o.lives;
  Pool.release p ~tid:0 o;
  Alcotest.(check int) "released object quarantined" 1 (Pool.quarantined p);
  Pool.exit p ~tid:0

let test_clock_advance () =
  let c = Pool.Clock.create ~num_threads:2 in
  Alcotest.(check int) "starts at 0" 0 (Pool.Clock.current c);
  Pool.Clock.enter c ~tid:0;
  Pool.Clock.enter c ~tid:1;
  (* Threads announced at the current epoch don't block one advance... *)
  Pool.Clock.try_advance c;
  Alcotest.(check int) "advanced once" 1 (Pool.Clock.current c);
  (* ...but they pin the epoch they are in: no second advance. *)
  Pool.Clock.try_advance c;
  Alcotest.(check int) "pinned by announcements" 1 (Pool.Clock.current c);
  Pool.Clock.exit c ~tid:0;
  Pool.Clock.try_advance c;
  Alcotest.(check int) "still pinned by tid 1" 1 (Pool.Clock.current c);
  Pool.Clock.exit c ~tid:1;
  Pool.Clock.try_advance c;
  Alcotest.(check int) "free to advance" 2 (Pool.Clock.current c)

let test_quarantine_maturity () =
  (* segment_size 1 forces every alloc through the slow path, so each
     alloc is also a promotion attempt. An object released in epoch e
     must not be handed out again until the global clock reaches e + 2,
     i.e. every thread has left the operation it was in at release
     time. *)
  let p = mk_pool ~segment_size:1 () in
  Pool.enter p ~tid:0;
  let a = Pool.alloc p ~tid:0 in
  Pool.release p ~tid:0 a;
  let b = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "too young to reuse" true (b != a);
  Pool.release p ~tid:0 b;
  Pool.exit p ~tid:0;
  (* One full operation boundary later the clock may advance once... *)
  Pool.enter p ~tid:0;
  let c = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "one epoch is not enough" true (c != a && c != b);
  Pool.release p ~tid:0 c;
  Pool.exit p ~tid:0;
  (* ...and after a second boundary the epoch-(e) retirees mature. The
     free list is LIFO over the promoted FIFO: a then b on the stack,
     so b comes back first. *)
  Pool.enter p ~tid:0;
  let d = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "matured retiree reused" true (d == b);
  Alcotest.(check int) "second life" 2 d.lives;
  let e = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "in FIFO retirement order" true (e == a);
  Alcotest.(check int) "c still quarantined" 1 (Pool.quarantined p);
  Pool.exit p ~tid:0

let test_no_quarantine_immediate_reuse () =
  let p = mk_pool ~segment_size:1 ~quarantine:false () in
  let a = Pool.alloc p ~tid:0 in
  Alcotest.(check int) "first life" 1 a.lives;
  Pool.release p ~tid:0 a;
  let b = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "immediately reusable" true (b == a);
  Alcotest.(check int) "reset on reuse" 2 b.lives;
  Alcotest.(check int) "exactly one reuse" 1 (Pool.reused p);
  Alcotest.(check int) "exactly one fresh" 1 (Pool.allocated_fresh p)

let test_fresh_count_exact () =
  (* The pool tells first-life objects from recycled ones by position
     alone: a carve fills only an empty free stack, so its objects are
     the stack's bottom entries and every later push lands above them.
     Carve, use part of the segment, push releases on top of its
     remaining objects, then drain: the counters must stay exact. *)
  let p = mk_pool ~segment_size:4 ~quarantine:false () in
  let counts what fresh reused pooled =
    Alcotest.(check (list int))
      (what ^ ": fresh, reused, pooled")
      [ fresh; reused; pooled ]
      [ Pool.allocated_fresh p; Pool.reused p; Pool.pooled p ]
  in
  let a = Pool.alloc p ~tid:0 in
  let b = Pool.alloc p ~tid:0 in
  counts "carve, two of four used" 2 0 2;
  Pool.release p ~tid:0 a;
  Pool.release p ~tid:0 b;
  counts "two releases on top of the segment's rest" 2 0 4;
  Alcotest.(check bool) "releases come back first, LIFO" true
    (Pool.alloc p ~tid:0 == b);
  counts "b reused" 2 1 3;
  Alcotest.(check bool) "then a" true (Pool.alloc p ~tid:0 == a);
  counts "a reused" 2 2 2;
  let c = Pool.alloc p ~tid:0 in
  counts "then the segment's first-life objects" 3 2 1;
  let d = Pool.alloc p ~tid:0 in
  counts "drained" 4 2 0;
  Alcotest.(check (list int)) "first lives" [ 1; 1 ] [ c.lives; d.lives ];
  ignore (Pool.alloc p ~tid:0);
  counts "the next alloc carves" 5 2 3;
  Alcotest.(check int) "two segments" 2 (Pool.segments p)

let test_steady_state_reuses () =
  (* Alternating alloc/release on one thread: after warm-up the pool
     must serve every request from recycled objects — fresh allocations
     stay bounded by the carved segments. *)
  let p = mk_pool ~segment_size:4 ~num_threads:1 () in
  for _ = 1 to 1_000 do
    Pool.enter p ~tid:0;
    let o = Pool.alloc p ~tid:0 in
    Pool.release p ~tid:0 o;
    Pool.exit p ~tid:0
  done;
  let reused = Pool.reused p and fresh = Pool.allocated_fresh p in
  Alcotest.(check int) "conservation of allocs" 1_000 (reused + fresh);
  Alcotest.(check bool)
    (Printf.sprintf "mostly reuses (fresh = %d)" fresh)
    true
    (fresh <= 4 * Pool.segments p && reused >= 900);
  Alcotest.(check int) "everything back in the pool" 1_000
    (Pool.reused p + Pool.allocated_fresh p)

let test_per_thread_isolation () =
  (* Free lists are tid-local: an object released by tid 0 is reused by
     tid 0 only. *)
  let p = mk_pool ~segment_size:1 ~quarantine:false ~num_threads:2 () in
  let a = Pool.alloc p ~tid:0 in
  Pool.release p ~tid:0 a;
  let b = Pool.alloc p ~tid:1 in
  Alcotest.(check bool) "tid 1 does not see tid 0's pool" true (b != a);
  let c = Pool.alloc p ~tid:0 in
  Alcotest.(check bool) "tid 0 reuses its own" true (c == a)

let test_parked_bound () =
  (* A tid that only releases parks at most [max_parked] objects, free
     and quarantined together, and leaves the rest to the GC; another
     tid's slot is not affected. *)
  List.iter
    (fun quarantine ->
      let p = mk_pool ~quarantine ~num_threads:2 () in
      Pool.enter p ~tid:1;
      for _ = 1 to Pool.max_parked + 100 do
        Pool.release p ~tid:1 (fresh_obj ())
      done;
      Pool.exit p ~tid:1;
      let parked = Pool.pooled p + Pool.quarantined p in
      Alcotest.(check int)
        (Printf.sprintf "parked at the bound (quarantine %b)" quarantine)
        Pool.max_parked parked;
      Pool.release p ~tid:0 (fresh_obj ());
      Alcotest.(check int) "tid 0 still parks" (Pool.max_parked + 1)
        (Pool.pooled p + Pool.quarantined p))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Pooled queues under real domains: conservation + recycling         *)
(* ------------------------------------------------------------------ *)

(* The pooled fps queue at two fast-path budgets: the default, and 0,
   where every operation publishes a descriptor, so the engine's pooled
   slow path runs on real domains. Each row carries the exact node-pool
   counts of the one-domain runs of [test_pooled_recycling] and
   [test_pool_figures]. *)
type fps_row = {
  name : string;
  max_failures : int;
  solo_figures : int * int * int;  (** node-pool (reused, fresh, parked) *)
}

let fps_rows =
  [
    {
      name = "kp-fps pooled";
      max_failures = Wfq_core.Kp_queue_fps.default_max_failures;
      solo_figures = (15_872, 128, 128);
    };
    {
      name = "kp-fps pooled max_failures 0";
      max_failures = 0;
      solo_figures = (15_872, 128, 128);
    };
  ]

let fps_pooled ~max_failures ~num_threads =
  Fps.create_with ~max_failures ~pool:true
    ~help:Wfq_core.Kp_queue.Help_one_cyclic
    ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads ()

(* [(reused, fresh, parked)] of the node pool. *)
let node_stats q =
  match Fps.pool_stats q with
  | Some figures -> figures
  | None -> Alcotest.fail "pooled queue without a pool"

let test_pooled_conservation { name; max_failures; _ } () =
  let domains = 4 and per_domain = 4_000 in
  let t = fps_pooled ~max_failures ~num_threads:domains in
  let got = Array.make domains [] in
  let barrier = Atomic.make 0 in
  let worker tid () =
    Atomic.incr barrier;
    while Atomic.get barrier < domains do
      Domain.cpu_relax ()
    done;
    for i = 1 to per_domain do
      Fps.enqueue t ~tid ((tid * per_domain) + i);
      match Fps.dequeue t ~tid with
      | Some v -> got.(tid) <- v :: got.(tid)
      | None ->
          (* pairs on a queue seeded by the same thread: never empty *)
          Alcotest.failf "%s: empty queue in pairs workload" name
    done
  in
  let ds = Array.init domains (fun tid -> Domain.spawn (worker tid)) in
  Array.iter Domain.join ds;
  let rec drain acc =
    match Fps.dequeue t ~tid:0 with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let consumed = drain (Array.to_list got |> List.concat) in
  let expected =
    List.init domains (fun tid ->
        List.init per_domain (fun i -> (tid * per_domain) + i + 1))
    |> List.concat |> List.sort compare
  in
  Alcotest.(check (list int))
    "every value delivered exactly once" expected
    (List.sort compare consumed)

(* The recycling claim, on a deterministic schedule: one domain runs the
   same number of enqueue/dequeue pairs alone, so the reuse count is an
   exact function of the queue and pool code and is pinned. Under four
   domains it depends on how the OS interleaves the domains' quarantine
   epochs, which is why the test above asserts delivery only. *)
let solo_pairs = 16_000

let solo_run { name; max_failures; _ } =
  let t = fps_pooled ~max_failures ~num_threads:4 in
  for i = 1 to solo_pairs do
    Fps.enqueue t ~tid:0 i;
    if Fps.dequeue t ~tid:0 <> Some i then
      Alcotest.failf "%s: pairs on one domain out of order at %d" name i
  done;
  t

let test_pooled_recycling
    ({ solo_figures = (solo_reused, _, _); _ } as row) () =
  let reused, _, _ = node_stats (solo_run row) in
  (* Quarantine and carve batching keep some nodes parked, but a clear
     majority of the allocations must be served by recycling. *)
  Alcotest.(check bool)
    (Printf.sprintf "nodes recycled (reused = %d)" reused)
    true
    (reused > solo_pairs / 4);
  Alcotest.(check int) "exact reuse count" solo_reused reused

(* The node pool's three figures on the same run. Every enqueue takes
   one node from the pool, so reuses and fresh allocations add up to
   the pairs; what the pool parks is what it carved or took back and has
   not handed out again. Descriptors are never pooled, so these are all
   the pool figures a queue has. *)
let test_pool_figures ({ solo_figures; _ } as row) () =
  let ((reused, fresh, _) as figures) = node_stats (solo_run row) in
  Alcotest.(check int) "every enqueue's node from the pool" solo_pairs
    (reused + fresh);
  Alcotest.(check (triple int int int))
    "exact node-pool (reused, fresh, parked)" solo_figures figures

(* Split roles on one domain: tid 0 only enqueues and tid 1 only
   dequeues, so tid 1 releases every node and never allocates one.
   Without the bound, tid 1 would park all 20,000 nodes. With it, tid
   1 parks at most [max_parked], and tid 0 adds what is left of its
   last carved segment. [parked] reads the node pool; the words still
   reachable from the queue bound every other pool too. *)
let check_split_roles name t ~enq ~deq ~parked =
  let pairs = 20_000 and max_words = 100_000 in
  for i = 1 to pairs do
    enq i;
    if deq () <> Some i then
      Alcotest.failf "%s: split roles out of order at %d" name i
  done;
  let parked = parked () in
  Alcotest.(check bool)
    (Printf.sprintf "parked %d <= %d + one segment" parked Pool.max_parked)
    true
    (parked >= 0 && parked <= Pool.max_parked + Pool.default_segment_size);
  Gc.full_major ();
  let words = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words reachable, bound %d" words max_words)
    true (words <= max_words)

let test_fps_split_roles { name; max_failures; _ } () =
  let t = fps_pooled ~max_failures ~num_threads:2 in
  check_split_roles name t
    ~enq:(fun v -> Fps.enqueue t ~tid:0 v)
    ~deq:(fun () -> Fps.dequeue t ~tid:1)
    ~parked:(fun () ->
      let _, _, parked = node_stats t in
      parked)

let test_kp_hp_split_roles () =
  let t = Kp_hp.create ~num_threads:2 () in
  check_split_roles "kp-hp" t
    ~enq:(fun v -> Kp_hp.enqueue t ~tid:0 v)
    ~deq:(fun () -> Kp_hp.dequeue t ~tid:1)
    ~parked:(fun () ->
      let _, _, parked = Kp_hp.pool_stats t in
      parked)

(* ------------------------------------------------------------------ *)
(* DPOR: the recycle-ABA suite                                        *)
(*                                                                    *)
(* Recycling is defended by two independent mechanisms, and the tests  *)
(* separate them deliberately:                                        *)
(*                                                                    *)
(* - the epoch TAG defends the claim CAS. Proven in isolation by a    *)
(*   claim-protocol litmus over a real pool: the tagged run is clean   *)
(*   on every trace, the untagged one double-claims across            *)
(*   incarnations.                                                    *)
(* - QUARANTINE defends the pointer CASes, which the tag cannot (an   *)
(*   expected head/next value is a bare reference). Proven by a       *)
(*   queue-level negative: with quarantine off, DPOR finds a          *)
(*   conservation violation even with tags intact — the helper        *)
(*   releases the old sentinel while the claim owner still holds a    *)
(*   head-CAS expectation on it, the sentinel is recycled back into   *)
(*   the list, and the stale CAS rolls head backwards.                *)
(* ------------------------------------------------------------------ *)

module NSim = Wfq_core.Kp_internals.Make (SA)
module PoolSim = Wfq_primitives.Segment_pool.Make (SA)
module D = Wfq_sim.Dpor

(* The claim-protocol litmus. Fiber 1 plays the fast dequeuer: claim
   the node, retire it, and re-allocate it (segment_size 1 + no
   quarantine = immediate recycling). Fiber 0 plays the stalled helper:
   it captured the claim word in the node's first incarnation and CASes
   against it late. The protocol invariant is that claims on distinct
   incarnations cannot both succeed. *)
let claim_litmus ~reset () =
  let nil = NSim.make_nil () in
  let fresh () =
    NSim.make_node ~nil ~enq_tid:NSim.no_tid Wfq_core.Kp_internals.no_value
  in
  let p =
    PoolSim.create ~segment_size:1 ~quarantine:false ~num_threads:2 ~fresh
      ~reset:(reset ~nil) ()
  in
  (* First-life node minted directly ([reset] runs sim-atomic accesses,
     so the pool can only be driven from inside a fiber). Its claim word
     is statically known — unclaimed at epoch 0 packs to the raw
     [no_tid] — so fiber 0's capture is pinned to incarnation 0 and a
     late success is a cross-incarnation claim by construction. *)
  let n = fresh () in
  let observed0 = NSim.no_tid in
  let ok0 = ref false and ok1 = ref false in
  let f0 () = ok0 := NSim.try_claim n ~observed:observed0 ~tid:0 in
  let f1 () =
    ok1 := NSim.try_claim n ~observed:(NSim.claim_word n) ~tid:1;
    PoolSim.release p ~tid:1 n;
    ignore (PoolSim.alloc p ~tid:1)
  in
  (* Both claims succeeding means fiber 0's incarnation-0 word claimed
     the node after fiber 1 had already claimed *and recycled* it. *)
  let check (_ : Wfq_sim.Scheduler.result) =
    if !ok0 && !ok1 then Error "double claim across incarnations" else Ok ()
  in
  ([| f0; f1 |], check)

let test_claim_tag_litmus_holds () =
  let r = D.explore ~make:(claim_litmus ~reset:NSim.recycle) () in
  (match r.D.failure with
  | None -> ()
  | Some (_, msg) -> Alcotest.failf "tagged claim protocol failed: %s" msg);
  Alcotest.(check bool) "exhausted" true r.D.exhausted

let test_claim_tag_litmus_untagged_caught () =
  let r = D.explore ~make:(claim_litmus ~reset:NSim.recycle_untagged) () in
  match r.D.failure with
  | None -> Alcotest.fail "untagged recycle not caught by the litmus"
  | Some (_, msg) ->
      Alcotest.(check bool) "double claim reported" true
        (contains_sub msg "double claim")

let fps_pooled_ops ?fault ~max_failures () =
  Ck.queue
    ~create:(fun ~num_threads ->
      FpsSim.create_with ?fault ~max_failures ~pool:true ~pool_segment:1
        ~help:Wfq_core.Kp_queue.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads ())
    ~enqueue:FpsSim.enqueue ~dequeue:FpsSim.dequeue ~contents:FpsSim.to_list
    ()

(* The recycle-ABA shape at queue level. With [pool_segment = 1] and
   quarantine off (a seeded fault), the sentinel released by fiber 1's first dequeue is
   recycled immediately by its enqueue and re-enters the list; fiber
   1's second dequeue then swings [head] back onto the recycled object
   while fiber 0 may still hold stale references into the object's
   first life. *)
let recycle_scripts : Ck.script list = [ [ `Deq ]; [ `Deq; `Enq 9; `Deq ] ]

(* What a rolled-back [head] looks like to the checker. Dequeued
   sentinels are self-linked, so the stale CAS puts [head] back on a
   node whose [next] is itself. That shows as lost or duplicated
   elements, or as a fiber that spins on that node until the step
   limit: either is the rollback found. *)
let rollback_found msg =
  contains_sub msg "conservation" || contains_sub msg "step limit"

let test_unquarantined_pointer_aba_caught () =
  (* Negative control: tags intact, quarantine disabled by the seeded
     [Unquarantined_pool] fault. The tag cannot protect the head CAS, so
     DPOR must find the rollback — this is the witness that quarantine
     is load-bearing, not belt-and-braces. *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:500_000 ~init:[ 1 ]
      ~queue:
        (fps_pooled_ops ~fault:Wfq_core.Kp_queue_fps.Unquarantined_pool
           ~max_failures:64 ())
      ~scripts:recycle_scripts ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "unquarantined reuse not caught"
  | Some f ->
      Alcotest.(check bool) "conservation violation or livelock" true
        (rollback_found f.Ck.message);
      let len =
        match f.Ck.shrunk with
        | Some s -> List.length s.Sh.forced
        | None -> Alcotest.fail "failure arrived unshrunk"
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to a small counterexample (got %d)" len)
        true (len <= 50)

let test_recycle_aba_untagged_caught () =
  (* The seeded fault: recycling skips the incarnation bump
     ([Untagged_pool_claim], which also turns quarantine off), so on
     top of the pointer hazard a stalled
     claim CAS can succeed against the recycled sentinel. The model
     checker must find and shrink the damage. *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:500_000 ~init:[ 1 ]
      ~queue:
        (fps_pooled_ops ~fault:Wfq_core.Kp_queue_fps.Untagged_pool_claim
           ~max_failures:64 ())
      ~scripts:recycle_scripts ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "Untagged_pool_claim not caught"
  | Some f ->
      Alcotest.(check bool) "violation, not a crash" true
        (rollback_found f.Ck.message
        || contains_sub f.Ck.message "linearizable");
      let len =
        match f.Ck.shrunk with
        | Some s -> List.length s.Sh.forced
        | None -> Alcotest.fail "failure arrived unshrunk"
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to a small counterexample (got %d)" len)
        true (len <= 60)

let test_pooled_fast_path_clean () =
  (* The production configuration (quarantine on) over the same
     recycle-heavy scenario: every explored schedule must stay
     linearizable and element-conserving. Preemption-bounded: the clock
     announcements make full DPOR impractical here, and 3 preemptions
     is past the depth at which the unquarantined variant fails. *)
  let r =
    Ck.run ~mode:(Ck.Preemption_bounded 3) ~max_schedules:500_000
      ~init:[ 1 ]
      ~queue:(fps_pooled_ops ~max_failures:64 ())
      ~scripts:recycle_scripts ()
  in
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "pooled fast path failed: %a" Ck.pp_failure f);
  Alcotest.(check bool) "bounded space exhausted" true r.Ck.exhausted

let test_node_recycling_exactly_once () =
  (* max_failures 0: every operation takes the slow path, so the
     helping engine allocates, retires and recycles quarantined nodes on
     every schedule while helpers race on the descriptors. Exactly-once
     delivery must survive all of it (same preemption bound as above). *)
  let r =
    Ck.run ~mode:(Ck.Preemption_bounded 3) ~max_schedules:500_000
      ~init:[ 1 ]
      ~queue:(fps_pooled_ops ~max_failures:0 ())
      ~scripts:[ [ `Deq ]; [ `Enq 2 ] ]
      ()
  in
  (match r.Ck.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "pooled slow path failed: %a" Ck.pp_failure f);
  Alcotest.(check bool) "bounded space exhausted" true r.Ck.exhausted

(* ------------------------------------------------------------------ *)
(* The claim word: incarnation, [enq_tid] and [deq_tid] in one int     *)
(* ------------------------------------------------------------------ *)

(* Run [f] outside a scheduler, continuing at every simulator yield. *)
let unscheduled f =
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type b) (e : b Effect.t) ->
          let continue (k : (b, _) Effect.Deep.continuation) =
            Effect.Deep.continue k
          in
          match e with
          | Wfq_sim.Scheduler.Yield_access _ -> Some (fun k -> continue k ())
          | Wfq_sim.Scheduler.Yield -> Some (fun k -> continue k ())
          | _ -> None);
    }

module Claim_word
    (A : Wfq_primitives.Atomic_intf.ATOMIC)
    (P : sig
      val plane : string
      val run : (unit -> 'a) -> 'a
    end) =
struct
  module N = Wfq_core.Kp_internals.Make (A)
  module Kp = Wfq_core.Kp_queue.Make (A)
  module Fps = Wfq_core.Kp_queue_fps.Make (A)
  module Hp = Wfq_core.Kp_queue_hp.Make (A)

  let label what = P.plane ^ ": " ^ what

  (* The largest [enq_tid], and the largest [deq_tid]: a fast-path
     claim by the last tid. *)
  let top = N.max_threads - 1
  let top_claim = N.max_threads + top

  let check_word what n ~enq ~deq ~incarnation =
    P.run (fun () ->
        let w = N.claim_word n in
        Alcotest.(check int) (label (what ^ ": enq_tid")) enq (N.enq_tid n);
        Alcotest.(check int) (label (what ^ ": deq_tid")) deq
          (N.claimed_tid n);
        Alcotest.(check int)
          (label (what ^ ": incarnation"))
          incarnation (N.incarnation_of w))

  let test_unclaimed () =
    let nil = N.make_nil () in
    let sentinel =
      N.make_node ~nil ~enq_tid:N.no_tid Wfq_core.Kp_internals.no_value
    in
    List.iter
      (fun (what, n) ->
        check_word what n ~enq:N.no_tid ~deq:N.no_tid ~incarnation:0;
        Alcotest.(check int)
          (label (what ^ " packs to the raw no_tid"))
          N.no_tid
          (P.run (fun () -> N.claim_word n)))
      [ ("nil", nil); ("fresh sentinel", sentinel) ]

  let test_claim_keeps_enq_tid () =
    let nil = N.make_nil () in
    List.iter
      (fun enq ->
        let n = N.make_node ~nil ~enq_tid:enq 7 in
        let observed = P.run (fun () -> N.claim_word n) in
        Alcotest.(check bool) (label "claim won") true
          (P.run (fun () -> N.try_claim n ~observed ~tid:top_claim));
        check_word "won claim" n ~enq ~deq:top_claim ~incarnation:0;
        (* The stale unclaimed word no longer matches: the CAS runs and
           fails. *)
        Alcotest.(check bool) (label "claim lost") false
          (P.run (fun () -> N.try_claim n ~observed ~tid:0));
        check_word "lost claim" n ~enq ~deq:top_claim ~incarnation:0)
      [ N.no_tid; 0; top ]

  let test_recycle () =
    let nil = N.make_nil () in
    let n = N.make_node ~nil ~enq_tid:top 7 in
    let observed = P.run (fun () -> N.claim_word n) in
    ignore (P.run (fun () -> N.try_claim n ~observed ~tid:top_claim));
    P.run (fun () -> N.recycle ~nil n);
    check_word "recycled" n ~enq:N.no_tid ~deq:N.no_tid ~incarnation:1;
    Alcotest.(check bool) (label "next reset to nil") true
      (P.run (fun () -> A.get (N.link n)) == nil);
    Alcotest.(check bool)
      (label "an earlier incarnation's claim fails")
      false
      (P.run (fun () -> N.try_claim n ~observed ~tid:0));
    N.set_enq_tid n top;
    check_word "re-enqueued" n ~enq:top ~deq:N.no_tid ~incarnation:1;
    P.run (fun () -> N.recycle ~nil n);
    check_word "recycled twice" n ~enq:N.no_tid ~deq:N.no_tid ~incarnation:2

  (* Each queue takes the largest [num_threads] whose tids fit, and
     its last tid's operations keep FIFO order; one more thread is an
     [Invalid_argument] at [create]. *)
  let test_num_threads_bound () =
    let fits = N.max_threads in
    let roundtrip what ~enq ~deq =
      P.run (fun () ->
          enq ~tid:top 1;
          enq ~tid:0 2;
          let first = deq ~tid:top in
          let second = deq ~tid:0 in
          let got = [ first; second; deq ~tid:top ] in
          Alcotest.(check (list (option int)))
            (label (what ^ " at the largest num_threads"))
            [ Some 1; Some 2; None ] got)
    in
    let refuses what create =
      match create (fits + 1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted num_threads = %d" what (fits + 1)
    in
    let q = Kp.create ~num_threads:fits () in
    roundtrip "Kp_queue" ~enq:(Kp.enqueue q) ~deq:(Kp.dequeue q);
    refuses "Kp_queue" (fun num_threads -> Kp.create ~num_threads ());
    let q = Fps.create ~num_threads:fits () in
    roundtrip "Kp_queue_fps" ~enq:(Fps.enqueue q) ~deq:(Fps.dequeue q);
    let q =
      Fps.create_with ~max_failures:0 ~pool:true
        ~help:Wfq_core.Kp_queue.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:fits ()
    in
    roundtrip "Kp_queue_fps slow path" ~enq:(Fps.enqueue q)
      ~deq:(Fps.dequeue q);
    refuses "Kp_queue_fps" (fun num_threads -> Fps.create ~num_threads ());
    let q = Hp.create ~num_threads:fits () in
    roundtrip "Kp_queue_hp" ~enq:(Hp.enqueue q) ~deq:(Hp.dequeue q);
    refuses "Kp_queue_hp" (fun num_threads -> Hp.create ~num_threads ())

  let tests =
    [
      Alcotest.test_case (label "nil and a fresh sentinel are unclaimed")
        `Quick test_unclaimed;
      Alcotest.test_case (label "a claim CAS keeps enq_tid") `Quick
        test_claim_keeps_enq_tid;
      Alcotest.test_case
        (label "recycle bumps the incarnation, clears both tids")
        `Quick test_recycle;
      Alcotest.test_case (label "largest num_threads that fits") `Quick
        test_num_threads_bound;
    ]
end

module Claim_real =
  Claim_word
    (A)
    (struct
      let plane = "real"
      let run f = f ()
    end)

module Claim_sim =
  Claim_word
    (SA)
    (struct
      let plane = "sim"
      let run = unscheduled
    end)

(* The incarnation has 31 bits: every incarnation below 2^31 is its
   own word, whatever the enqueuer, and 2^31 wraps to 0. *)
let test_incarnation_bits () =
  let module N = Claim_real.N in
  let w i = N.word ~incarnation:i ~enq_tid:Claim_real.top in
  Alcotest.(check bool) "2^31 - 1 is not 0" true (w ((1 lsl 31) - 1) <> w 0);
  Alcotest.(check int) "2^31 wraps to 0" (w 0) (w (1 lsl 31));
  Alcotest.(check int) "incarnation round trip" ((1 lsl 30) - 1)
    (N.incarnation_of (w ((1 lsl 30) - 1)));
  Alcotest.(check int) "enq_tid kept at a high incarnation" Claim_real.top
    (N.enq_tid_of (w ((1 lsl 31) - 1)))

let () =
  Alcotest.run "pool"
    [
      ( "segment-pool",
        [
          Alcotest.test_case "create validation" `Quick
            test_create_validation;
          Alcotest.test_case "carve and stats" `Quick test_carve_and_stats;
          Alcotest.test_case "clock advance" `Quick test_clock_advance;
          Alcotest.test_case "quarantine maturity" `Quick
            test_quarantine_maturity;
          Alcotest.test_case "no quarantine: immediate reuse" `Quick
            test_no_quarantine_immediate_reuse;
          Alcotest.test_case "fresh count exact across a carve" `Quick
            test_fresh_count_exact;
          Alcotest.test_case "steady state reuses" `Quick
            test_steady_state_reuses;
          Alcotest.test_case "per-thread isolation" `Quick
            test_per_thread_isolation;
          Alcotest.test_case "parked bound" `Quick test_parked_bound;
        ] );
      ( "pooled-queues",
        List.map
          (fun row ->
            Alcotest.test_case row.name `Quick (test_pooled_conservation row))
          fps_rows
        @ List.map
            (fun row ->
              Alcotest.test_case (row.name ^ " recycles (one domain)") `Quick
                (test_pooled_recycling row))
            fps_rows
        @ List.map
            (fun row ->
              Alcotest.test_case
                (row.name ^ " pool figures exact (one domain)")
                `Quick (test_pool_figures row))
            fps_rows
        @ List.map
            (fun row ->
              Alcotest.test_case (row.name ^ " split roles stay bounded")
                `Quick (test_fps_split_roles row))
            fps_rows
        @ [
            Alcotest.test_case "kp-hp split roles stay bounded" `Quick
              test_kp_hp_split_roles;
          ] );
      ( "dpor-recycle",
        [
          Alcotest.test_case "claim tag litmus: tagged holds" `Quick
            test_claim_tag_litmus_holds;
          Alcotest.test_case "claim tag litmus: untagged caught" `Quick
            test_claim_tag_litmus_untagged_caught;
          Alcotest.test_case "unquarantined pointer ABA caught" `Quick
            test_unquarantined_pointer_aba_caught;
          Alcotest.test_case "Untagged_pool_claim caught and shrunk" `Quick
            test_recycle_aba_untagged_caught;
          Alcotest.test_case "pooled fast path clean (pb=3)" `Quick
            test_pooled_fast_path_clean;
          Alcotest.test_case "node recycling exactly-once (pb=3)" `Quick
            test_node_recycling_exactly_once;
        ] );
      ( "claim word",
        Claim_real.tests @ Claim_sim.tests
        @ [
            Alcotest.test_case "31 incarnation bits" `Quick
              test_incarnation_bits;
          ] );
    ]
