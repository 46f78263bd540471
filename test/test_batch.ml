(* Batch-native enqueue/dequeue across the stack:

   1. Sequential batch contract, uniform over every batch-capable
      backend (KP, FPS, ring, strict shard): FIFO within and across
      batches, empty-batch no-ops, short returns on over-ask, the
      negative-want guard.
   2. Ring-specific bounded behaviour: partial acceptance on full,
      [Ring_full] with the accepted prefix kept, batches crossing the
      wraparound.
   3. The shard front-end's batch cost contract, pinned through the
      white-box call-count probes: [dequeue_batch] performs at most [N]
      backend batch dequeues in one steal lap (the bound that replaced
      the per-element [(n+1)*N] sweep), spread enqueues split a batch
      into exactly [N] contiguous backend batches, keep-together
      policies use exactly one.
   4. Scheduler fan-out: [spawn_many]/[submit_batch] push the whole
      task list through one backend-native run-queue batch, promises
      returned in body order.
   5. Four-domain stress on every backend: concurrent mixed single and
      batch producers/consumers, checking conservation (exactly-once)
      and per-producer order.
   6. A simulator-plane PCT run of the KP batch dequeue against its
      helpers: each element is recorded exactly once. *)

module A = Wfq_primitives.Real_atomic
module Kp = Wfq_core.Kp_queue.Make (A)
module Fps = Wfq_core.Kp_queue_fps.Make (A)
module Ring = Wfq_core.Ring_queue.Make (A)
module Shard = Wfq_shard.Shard.Make (A)
module Sched = Wfq_sched.Sched
module Fps_backend = (val Wfq_core.Backends.find "fps-pooled")
module Fps_sched = Sched.Make (A) (Sched.Rq_of (Fps_backend) (A))

(* ------------------------------------------------------------------ *)
(* Uniform sequential contract                                         *)
(* ------------------------------------------------------------------ *)

type 'q batch_queue = {
  make : num_threads:int -> 'q;
  enq : 'q -> tid:int -> int -> unit;
  deq : 'q -> tid:int -> int option;
  enq_batch : 'q -> tid:int -> int list -> unit;
  deq_batch : 'q -> tid:int -> n:int -> int list;
  len : 'q -> int;
  capacity : int option;  (** [Some c] for a bounded queue of [c] slots *)
}

type packed = Q : string * 'q batch_queue -> packed

let ring_capacity = 4096

let backends =
  [
    Q
      ( "kp-opt12",
        {
          make =
            (fun ~num_threads ->
              Kp.create_with ~help:Wfq_core.Kp_queue.Help_one_cyclic
                ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads ());
          enq = (fun q ~tid v -> Kp.enqueue q ~tid v);
          deq = (fun q ~tid -> Kp.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Kp.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Kp.dequeue_batch q ~tid ~n);
          len = Kp.length;
          capacity = None;
        } );
    Q
      ( "kp-fps mf=1",
        {
          make =
            (fun ~num_threads ->
              Fps.create_with ~max_failures:1
                ~help:Wfq_core.Kp_queue_fps.Help_one_cyclic
                ~phase:Wfq_core.Kp_queue_fps.Phase_counter ~num_threads ());
          enq = (fun q ~tid v -> Fps.enqueue q ~tid v);
          deq = (fun q ~tid -> Fps.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Fps.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Fps.dequeue_batch q ~tid ~n);
          len = Fps.length;
          capacity = None;
        } );
    Q
      ( "kp-fps mf=64",
        {
          make =
            (fun ~num_threads ->
              Fps.create_with ~max_failures:64
                ~help:Wfq_core.Kp_queue_fps.Help_one_cyclic
                ~phase:Wfq_core.Kp_queue_fps.Phase_counter ~num_threads ());
          enq = (fun q ~tid v -> Fps.enqueue q ~tid v);
          deq = (fun q ~tid -> Fps.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Fps.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Fps.dequeue_batch q ~tid ~n);
          len = Fps.length;
          capacity = None;
        } );
    Q
      ( "ring mf=1",
        {
          make =
            (fun ~num_threads ->
              Ring.create_with ~capacity:ring_capacity ~max_failures:1
                ~num_threads ());
          enq = (fun q ~tid v -> Ring.enqueue q ~tid v);
          deq = (fun q ~tid -> Ring.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Ring.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Ring.dequeue_batch q ~tid ~n);
          len = Ring.length;
          capacity = Some ring_capacity;
        } );
    Q
      ( "ring mf=0 (all slow)",
        {
          make =
            (fun ~num_threads ->
              Ring.create_with ~capacity:ring_capacity ~max_failures:0
                ~num_threads ());
          enq = (fun q ~tid v -> Ring.enqueue q ~tid v);
          deq = (fun q ~tid -> Ring.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Ring.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Ring.dequeue_batch q ~tid ~n);
          len = Ring.length;
          capacity = Some ring_capacity;
        } );
    (* Strict (single-shard) front-end: a linearizable FIFO, so the
       uniform ordering contract applies verbatim. *)
    Q
      ( "shard strict",
        {
          make = (fun ~num_threads -> Shard.create_strict ~num_threads ());
          enq = (fun q ~tid v -> Shard.enqueue q ~tid v);
          deq = (fun q ~tid -> Shard.dequeue q ~tid);
          enq_batch = (fun q ~tid vs -> Shard.enqueue_batch q ~tid vs);
          deq_batch = (fun q ~tid ~n -> Shard.dequeue_batch q ~tid ~n);
          len = Shard.length;
          capacity = None;
        } );
  ]

let test_batch_fifo (Q (name, b)) () =
  let q = b.make ~num_threads:1 in
  b.enq_batch q ~tid:0 [ 1; 2; 3 ];
  b.enq q ~tid:0 4;
  b.enq_batch q ~tid:0 [ 5; 6 ];
  Alcotest.(check int) (name ^ ": length after batches") 6 (b.len q);
  Alcotest.(check (list int))
    (name ^ ": batch dequeue in FIFO order")
    [ 1; 2; 3; 4 ]
    (b.deq_batch q ~tid:0 ~n:4);
  Alcotest.(check (option int)) (name ^ ": single after batch") (Some 5)
    (b.deq q ~tid:0);
  Alcotest.(check (list int))
    (name ^ ": tail of second batch")
    [ 6 ]
    (b.deq_batch q ~tid:0 ~n:1);
  Alcotest.(check (option int)) (name ^ ": drained") None (b.deq q ~tid:0)

let test_batch_edge_cases (Q (name, b)) () =
  let q = b.make ~num_threads:1 in
  b.enq_batch q ~tid:0 [];
  Alcotest.(check int) (name ^ ": empty batch is a no-op") 0 (b.len q);
  Alcotest.(check (list int))
    (name ^ ": zero want returns nothing")
    [] (b.deq_batch q ~tid:0 ~n:0);
  Alcotest.(check (list int))
    (name ^ ": over-ask on empty returns nothing")
    []
    (b.deq_batch q ~tid:0 ~n:5);
  b.enq_batch q ~tid:0 [ 7; 8 ];
  Alcotest.(check (list int))
    (name ^ ": over-ask returns short")
    [ 7; 8 ]
    (b.deq_batch q ~tid:0 ~n:10);
  b.enq_batch q ~tid:0 [ 9 ];
  Alcotest.(check (list int))
    (name ^ ": singleton batch")
    [ 9 ]
    (b.deq_batch q ~tid:0 ~n:1);
  Alcotest.check_raises (name ^ ": negative want rejected")
    (Invalid_argument
       (match name with
       | "kp-opt12" -> "Kp_queue.dequeue_batch: n"
       | "kp-fps mf=1" | "kp-fps mf=64" -> "Kp_queue_fps.dequeue_batch: n"
       | "ring mf=1" | "ring mf=0 (all slow)" -> "Ring_queue.dequeue_batch: n"
       | _ -> "Shard.dequeue_batch: n"))
    (fun () -> ignore (b.deq_batch q ~tid:0 ~n:(-1)))

let test_batch_interleaved_rounds (Q (name, b)) () =
  (* Many alternating batch/single rounds through one queue: the
     cross-batch FIFO seam never tears. *)
  let q = b.make ~num_threads:1 in
  let next = ref 1 and expect = ref 1 in
  for round = 1 to 50 do
    let k = 1 + (round mod 7) in
    let vs = List.init k (fun i -> !next + i) in
    next := !next + k;
    if round mod 3 = 0 then List.iter (fun v -> b.enq q ~tid:0 v) vs
    else b.enq_batch q ~tid:0 vs;
    let want = 1 + (round mod 5) in
    List.iter
      (fun v ->
        if v <> !expect then
          Alcotest.failf "%s: round %d got %d wanted %d" name round v !expect;
        incr expect)
      (b.deq_batch q ~tid:0 ~n:want)
  done;
  List.iter
    (fun v ->
      if v <> !expect then Alcotest.failf "%s: drain got %d" name v;
      incr expect)
    (b.deq_batch q ~tid:0 ~n:max_int);
  Alcotest.(check int) (name ^ ": all accounted") !next !expect;
  Alcotest.(check int) (name ^ ": empty at end") 0 (b.len q)

(* ------------------------------------------------------------------ *)
(* Ring-specific bounded behaviour                                     *)
(* ------------------------------------------------------------------ *)

(* [~max_failures:0] sends every batch down the slow path, so the
   accepted counts and the short dequeue come from published runs. *)
let test_ring_partial_batch ~max_failures () =
  let q = Ring.create_with ~capacity:4 ~max_failures ~num_threads:1 () in
  Ring.enqueue_batch q ~tid:0 [ 1; 2 ];
  (* Two free slots left: a four-element batch accepts exactly two. *)
  Alcotest.(check int) "accepted = free slots" 2
    (Ring.try_enqueue_batch q ~tid:0 [ 3; 4; 5; 6 ]);
  Alcotest.(check (list int))
    "accepted prefix in order" [ 1; 2; 3; 4 ]
    (Ring.dequeue_batch q ~tid:0 ~n:4);
  (* On full, [enqueue_batch] raises and keeps the accepted prefix. *)
  Ring.enqueue_batch q ~tid:0 [ 7; 8; 9 ];
  Alcotest.check_raises "enqueue_batch on full raises"
    Wfq_core.Ring_queue.Ring_full (fun () ->
      Ring.enqueue_batch q ~tid:0 [ 10; 11 ]);
  Alcotest.(check (list int))
    "prefix accepted before the raise survives"
    [ 7; 8; 9; 10 ]
    (Ring.dequeue_batch q ~tid:0 ~n:5);
  Alcotest.(check int) "try on empty batch accepts zero" 0
    (Ring.try_enqueue_batch q ~tid:0 [])

let test_ring_batch_wraparound () =
  (* Capacity 3, batches of 2: every batch crosses the wraparound
     somewhere within a few laps; order must survive the lap seams. *)
  let q = Ring.create_with ~capacity:3 ~max_failures:1 ~num_threads:1 () in
  let next = ref 0 and expect = ref 0 in
  for _ = 1 to 30 do
    Ring.enqueue_batch q ~tid:0 [ !next; !next + 1 ];
    next := !next + 2;
    List.iter
      (fun v ->
        Alcotest.(check int) "wraparound order" !expect v;
        incr expect)
      (Ring.dequeue_batch q ~tid:0 ~n:2)
  done;
  Alcotest.(check int) "drained" 0 (Ring.length q);
  Alcotest.(check bool) "quiescent invariants" true
    (Result.is_ok (Ring.check_quiescent_invariants q))

(* All-slow-path variant of the same laps: the batch descriptor drives
   every element through claim/install/publish. *)
let test_ring_batch_wraparound_slow () =
  let q = Ring.create_with ~capacity:2 ~max_failures:0 ~num_threads:1 () in
  let next = ref 0 and expect = ref 0 in
  for _ = 1 to 20 do
    Ring.enqueue_batch q ~tid:0 [ !next; !next + 1 ];
    next := !next + 2;
    List.iter
      (fun v ->
        Alcotest.(check int) "slow wraparound order" !expect v;
        incr expect)
      (Ring.dequeue_batch q ~tid:0 ~n:2)
  done;
  Alcotest.(check int) "drained" 0 (Ring.length q)

(* ------------------------------------------------------------------ *)
(* Shard batch routing and the cost contract                           *)
(* ------------------------------------------------------------------ *)

let test_shard_spread_routing () =
  let n = 4 in
  let q = Shard.create ~policy:Wfq_shard.Shard.Round_robin ~shards:n
      ~num_threads:1 ()
  in
  (* A batch of 2N spreads into exactly N contiguous backend batches of
     two elements each. *)
  Shard.enqueue_batch q ~tid:0 (List.init (2 * n) (fun i -> i));
  Alcotest.(check int) "spread used N backend batches" n
    (Shard.last_enqueue_batch_calls q ~tid:0);
  for s = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d got its chunk" s)
      2 (Shard.shard_length q s)
  done;
  (* A batch smaller than N keeps together: one backend batch. *)
  Shard.enqueue_batch q ~tid:0 [ 100; 101 ];
  Alcotest.(check int) "small batch keeps together" 1
    (Shard.last_enqueue_batch_calls q ~tid:0)

let test_shard_keep_together_routing () =
  let q = Shard.create ~policy:Wfq_shard.Shard.Tid_affine ~shards:4
      ~num_threads:4 ()
  in
  Shard.enqueue_batch q ~tid:2 (List.init 16 (fun i -> i));
  Alcotest.(check int) "tid-affine batch is one backend batch" 1
    (Shard.last_enqueue_batch_calls q ~tid:2);
  Alcotest.(check int) "whole batch in tid's shard" 16
    (Shard.shard_length q 2);
  (* The shard holds the batch contiguously in order. *)
  Alcotest.(check (list int))
    "intra-batch order in the shard"
    (List.init 16 (fun i -> i))
    (Shard.dequeue_batch q ~tid:2 ~n:16)

let test_shard_dequeue_cost_contract () =
  (* The satellite fix pinned: [dequeue_batch ~n] performs at most [N]
     backend batch dequeues — one per shard in a single lap — never the
     per-element [(n+1)*N] of the pre-batch front-end. *)
  let n = 4 and per_shard = 100 in
  let q = Shard.create ~policy:Wfq_shard.Shard.Tid_affine ~shards:n
      ~num_threads:n ()
  in
  for tid = 0 to n - 1 do
    Shard.enqueue_batch q ~tid
      (List.init per_shard (fun i -> (tid * 1000) + i))
  done;
  (* Drain everything in one batch: even at want = 400 over 4 shards,
     at most one backend batch per shard. *)
  let got = Shard.dequeue_batch q ~tid:0 ~n:(n * per_shard) in
  Alcotest.(check int) "all elements in one lap" (n * per_shard)
    (List.length got);
  let calls = Shard.last_dequeue_batch_calls q ~tid:0 in
  Alcotest.(check bool)
    (Printf.sprintf "at most N backend batches (got %d)" calls)
    true
    (calls >= 1 && calls <= n);
  (* Want served by the start shard alone: exactly one backend call. *)
  Shard.enqueue_batch q ~tid:1 (List.init 50 (fun i -> i));
  let got = Shard.dequeue_batch q ~tid:1 ~n:20 in
  Alcotest.(check int) "start shard served the want" 20 (List.length got);
  Alcotest.(check int) "one backend batch sufficed" 1
    (Shard.last_dequeue_batch_calls q ~tid:1);
  (* Empty front-end: the lap still costs at most N backend batches
     (steal visits pre-checked empty are skipped). *)
  ignore (Shard.dequeue_batch q ~tid:1 ~n:1000);
  ignore (Shard.dequeue_batch q ~tid:2 ~n:7 : int list);
  let calls = Shard.last_dequeue_batch_calls q ~tid:2 in
  Alcotest.(check bool)
    (Printf.sprintf "empty sweep bounded by N (got %d)" calls)
    true (calls <= n)

let test_shard_batch_steals () =
  (* All elements in shard 3; a dequeue batch starting elsewhere must
     steal the whole want in its single lap. *)
  let q = Shard.create ~policy:Wfq_shard.Shard.Tid_affine ~shards:4
      ~num_threads:4 ()
  in
  Shard.enqueue_batch q ~tid:3 [ 1; 2; 3; 4; 5 ];
  let got = Shard.dequeue_batch q ~tid:0 ~n:5 in
  Alcotest.(check (list int)) "stolen batch in shard order" [ 1; 2; 3; 4; 5 ]
    got;
  Alcotest.(check int) "served by shard 3" 3 (Shard.last_dequeue_shard q ~tid:0);
  Alcotest.(check bool) "within the lap bound" true
    (Shard.last_dequeue_batch_calls q ~tid:0 <= 4)

(* ------------------------------------------------------------------ *)
(* Scheduler fan-out                                                   *)
(* ------------------------------------------------------------------ *)

let test_sched_spawn_many_ordering () =
  let t = Fps_sched.create ~num_workers:1 () in
  let trace = ref [] in
  let log s = trace := s :: !trace in
  let pr =
    Fps_sched.submit t ~tid:0 (fun () ->
        log "P0";
        let prs =
          Fps_sched.spawn_many
            (List.init 3 (fun i ->
                 fun () ->
                   log (Printf.sprintf "C%d" i);
                   i * 10))
        in
        let vs = List.map Fps_sched.await prs in
        log "P1";
        vs)
  in
  ignore (Fps_sched.drain t ~tid:0 : int);
  (* One batch push preserves body order on the FIFO run-queue. *)
  Alcotest.(check (list string))
    "children run in body order" [ "P0"; "C0"; "C1"; "C2"; "P1" ]
    (List.rev !trace);
  Alcotest.(check bool) "promise order = body order" true
    (Fps_sched.result pr = Some (Ok [ 0; 10; 20 ]));
  Alcotest.(check int) "conservation" 0 (Fps_sched.pending_fibers t)

let test_sched_spawn_many_empty_and_single () =
  let t = Fps_sched.create ~num_workers:1 () in
  let pr =
    Fps_sched.submit t ~tid:0 (fun () ->
        let none = Fps_sched.spawn_many [] in
        let one = Fps_sched.spawn_many [ (fun () -> 41) ] in
        (List.length none, List.map Fps_sched.await one))
  in
  ignore (Fps_sched.drain t ~tid:0 : int);
  Alcotest.(check bool) "empty and singleton fan-out" true
    (Fps_sched.result pr = Some (Ok (0, [ 41 ])))

let test_sched_submit_batch () =
  let t = Fps_sched.create ~num_workers:1 () in
  let prs =
    Fps_sched.submit_batch t ~tid:0
      (List.init 10 (fun i -> fun () -> i * i))
  in
  Alcotest.(check int) "ten promises" 10 (List.length prs);
  ignore (Fps_sched.drain t ~tid:0 : int);
  List.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d result" i)
        true
        (Fps_sched.result p = Some (Ok (i * i))))
    prs;
  Alcotest.(check int) "all completed" 10 (Fps_sched.fibers_completed t)

let test_sched_spawn_many_parallel () =
  (* Four workers, a wide fan-out: every task's value arrives on the
     promise that position in the body list returned. *)
  let t = Fps_sched.create ~num_workers:4 () in
  let n = 200 in
  let total =
    Fps_sched.run t (fun () ->
        let prs = Fps_sched.spawn_many (List.init n (fun i -> fun () -> i)) in
        List.fold_left
          (fun acc (i, p) ->
            let v = Fps_sched.await p in
            if v <> i then Alcotest.failf "fan-out result %d got %d" i v;
            acc + v)
          0
          (List.mapi (fun i p -> (i, p)) prs))
  in
  Alcotest.(check int) "sum of fan-out" (n * (n - 1) / 2) total;
  Alcotest.(check int) "no fiber lost" 0 (Fps_sched.pending_fibers t)

(* ------------------------------------------------------------------ *)
(* Four-domain batch stress                                            *)
(* ------------------------------------------------------------------ *)

let encode ~producer ~seq = (producer * 1_000_000) + seq
let producer_of v = v / 1_000_000
let seq_of v = v mod 1_000_000

(* Mixed single/batch producers and batch consumers on real domains:
   conservation (exactly-once) plus per-producer order within each
   consumer's log. Applies to every backend whose global order is FIFO
   per producer — for the multi-shard front-end we use [Tid_affine], so
   each producer's values share a shard and stay mutually ordered. *)
let test_domains_batch_stress (Q (name, b)) () =
  let producers = 2 and consumers = 2 and per_producer = 3_000 in
  let num_threads = producers + consumers in
  let q = b.make ~num_threads in
  let total = producers * per_producer in
  let consumed = Atomic.make 0 and produced = Atomic.make 0 in
  let logs = Array.make consumers [] in
  (* On a bounded row, producers keep at most [capacity - max_batch]
     elements counted in flight, so the ring never fills however the
     domains are scheduled: two producers can pass the check together,
     and each adds at most [max_batch]. The claims here are
     conservation and order; a full ring is covered by the "ring
     bounded" cases. Unbounded rows run free, so a consumer can fall
     far behind a deep queue. *)
  let max_batch = 5 in
  let window = Option.map (fun c -> c - max_batch) b.capacity in
  let producer p () =
    let seq = ref 1 in
    while !seq <= per_producer do
      let k = min (1 + (!seq mod max_batch)) (per_producer - !seq + 1) in
      Option.iter
        (fun w ->
          while Atomic.get produced - Atomic.get consumed + k > w do
            Domain.cpu_relax ()
          done;
          ignore (Atomic.fetch_and_add produced k : int))
        window;
      let vs = List.init k (fun i -> encode ~producer:p ~seq:(!seq + i)) in
      if !seq mod 3 = 0 then List.iter (fun v -> b.enq q ~tid:p v) vs
      else b.enq_batch q ~tid:p vs;
      seq := !seq + k
    done
  in
  let consumer c () =
    let tid = producers + c in
    let got = ref [] in
    while Atomic.get consumed < total do
      match b.deq_batch q ~tid ~n:(1 + (Atomic.get consumed mod 7)) with
      | [] -> Domain.cpu_relax ()
      | xs ->
          List.iter (fun v -> got := v :: !got) xs;
          ignore (Atomic.fetch_and_add consumed (List.length xs) : int)
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
           Alcotest.failf "%s: value %d consumed twice" name v;
         Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int)
    (name ^ ": every value consumed exactly once")
    total (Hashtbl.length seen);
  Alcotest.(check int) (name ^ ": empty at end") 0 (b.len q);
  Array.iter
    (fun log ->
      let last_seq = Array.make producers 0 in
      List.iter
        (fun v ->
          let p = producer_of v and s = seq_of v in
          if s <= last_seq.(p) then
            Alcotest.failf "%s: per-producer order violated (p%d: %d after %d)"
              name p s last_seq.(p);
          last_seq.(p) <- s)
        log)
    logs

let shard_affine =
  Q
    ( "shard tid-affine x4",
      {
        make =
          (fun ~num_threads ->
            Shard.create ~policy:Wfq_shard.Shard.Tid_affine ~shards:4
              ~num_threads ());
        enq = (fun q ~tid v -> Shard.enqueue q ~tid v);
        deq = (fun q ~tid -> Shard.dequeue q ~tid);
        enq_batch = (fun q ~tid vs -> Shard.enqueue_batch q ~tid vs);
        deq_batch = (fun q ~tid ~n -> Shard.dequeue_batch q ~tid ~n);
        len = Shard.length;
        capacity = None;
      } )

let contract_cases =
  List.concat_map
    (fun (Q (name, _) as q) ->
      [
        Alcotest.test_case (name ^ " FIFO across batches") `Quick
          (test_batch_fifo q);
        Alcotest.test_case (name ^ " edge cases") `Quick
          (test_batch_edge_cases q);
        Alcotest.test_case (name ^ " interleaved rounds") `Quick
          (test_batch_interleaved_rounds q);
      ])
    backends

let stress_cases =
  List.map
    (fun (Q (name, _) as q) ->
      Alcotest.test_case (name ^ " 2p/2c mixed batch") `Quick
        (test_domains_batch_stress q))
    (backends @ [ shard_affine ])

(* ------------------------------------------------------------------ *)
(* Simulator: a helper must not record a batch element twice           *)
(* ------------------------------------------------------------------ *)

module Ck = Wfq_sim.Check
module Kp_sim = Wfq_core.Kp_queue.Make (Wfq_sim.Sim_atomic)

(* A helper running the batch's [help_deq] reads [head] while the
   sentinel is still unclaimed; the batch then claims it and records
   its successor's value. If the helper's already-claimed guard ran
   before its descriptor read, the helper re-points the post-record
   descriptor at that sentinel, and its [help_finish_deq] records the
   same value a second time (PCT seed 2990 delivered one element twice
   and left the other). Seeds 0-4000 are deterministic and take about
   a tenth of a second. *)
let test_kp_batch_records_once () =
  let r =
    Ck.run
      ~mode:(Ck.Pct { count = 4001; change_points = 3 })
      ~shrink:false
      ~queue:
        {
          Ck.create =
            (fun ~num_threads ->
              Kp_sim.create_with ~help:Wfq_core.Kp_queue.Help_one_cyclic
                ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads ());
          enqueue = (fun q ~tid v -> Kp_sim.enqueue q ~tid v);
          dequeue = (fun q ~tid -> Kp_sim.dequeue q ~tid);
          contents = Kp_sim.to_list;
        }
      ~dequeue_batch:(fun q ~tid ~n -> Kp_sim.dequeue_batch q ~tid ~n)
      ~scripts:[ [ `Enq 1; `Enq 2 ]; [ `Deq_batch 2 ] ]
      ()
  in
  match r.Ck.failure with
  | None -> Alcotest.(check int) "seeds run" 4001 r.Ck.schedules
  | Some f -> Alcotest.failf "%a" Ck.pp_failure f

let () =
  Alcotest.run "batch"
    [
      ("contract", contract_cases);
      ( "ring bounded",
        [
          Alcotest.test_case "partial acceptance and Ring_full" `Quick
            (test_ring_partial_batch ~max_failures:1);
          Alcotest.test_case
            "partial acceptance and Ring_full (all slow path)" `Quick
            (test_ring_partial_batch ~max_failures:0);
          Alcotest.test_case "batches across wraparound" `Quick
            test_ring_batch_wraparound;
          Alcotest.test_case "all-slow batches across wraparound" `Quick
            test_ring_batch_wraparound_slow;
        ] );
      ( "shard routing",
        [
          Alcotest.test_case "round-robin spread" `Quick
            test_shard_spread_routing;
          Alcotest.test_case "tid-affine keep-together" `Quick
            test_shard_keep_together_routing;
          Alcotest.test_case "dequeue cost contract (<= N batches)" `Quick
            test_shard_dequeue_cost_contract;
          Alcotest.test_case "batch stealing within the lap" `Quick
            test_shard_batch_steals;
        ] );
      ( "sched fan-out",
        [
          Alcotest.test_case "spawn_many body order" `Quick
            test_sched_spawn_many_ordering;
          Alcotest.test_case "spawn_many empty and singleton" `Quick
            test_sched_spawn_many_empty_and_single;
          Alcotest.test_case "submit_batch" `Quick test_sched_submit_batch;
          Alcotest.test_case "spawn_many across 4 workers" `Quick
            test_sched_spawn_many_parallel;
        ] );
      ("domains", stress_cases);
      ( "simulator",
        [
          Alcotest.test_case "kp-opt12 batch records each element once (pct)"
            `Quick test_kp_batch_records_once;
        ] );
    ]
