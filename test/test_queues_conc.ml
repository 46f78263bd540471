(* Concurrency tests on real OCaml domains.

   One physical core means domains interleave by OS/runtime preemption
   rather than true parallelism, but safe-points inside allocation make
   the interleavings plentiful. Each test checks whole-run invariants
   that any linearizable FIFO must satisfy:

   - conservation: every value enqueued is dequeued exactly once (or
     still present at the end);
   - per-producer order: values from one producer are consumed in the
     order that producer pushed them (FIFO implies it);
   - the pairs workload never observes an empty queue. *)

module A = Wfq_primitives.Real_atomic
module Qi = Wfq_core.Queue_intf
module Bk = Wfq_core.Backends
module Ms = Wfq_core.Ms_queue.Make (A)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)

(* A backend as a plain queue: the workloads below need no more. *)
let plain (module B : Qi.BACKEND) : (module Qi.QUEUE) =
  (module struct
    include B.Make (A)

    let create ~num_threads () = create ~num_threads ()
  end)

(* The fast-path/slow-path queue and the ring at the adversarial
   budget: mf=1 keeps falling back under contention (both paths and
   their interaction run constantly). The pooled fps queue runs there
   too, so nodes are recycled while both paths race.
   The default budgets are exercised by the registry-driven rows
   below. *)
let fps_mf1 =
  Bk.make ~id:"fps-mf1" ~label:"kp-fps mf=1"
    (Fps { Bk.fps with max_failures = 1 })

let fps_pooled_mf1 =
  Bk.make ~id:"fps-pooled-mf1" ~label:"kp-fps pooled mf=1"
    (Fps { Bk.fps with max_failures = 1; pool = true })

let ring_mf1 capacity =
  Bk.make ~id:"ring-mf1" ~label:"ring mf=1"
    (Ring { Bk.ring with capacity; max_failures = 1 })

let queues : (string * (module Qi.QUEUE)) list =
  [
    ("ms", (module Ms));
    ( "kp-base",
      plain (Bk.make ~id:"kp-base" ~label:"base WF" (Kp Bk.kp_base)) );
    ( "kp-hp (tiny pool)",
      (module struct
        include Kp_hp

        let create ~num_threads () = create ~scan_threshold:8 ~num_threads ()
      end) );
    ("kp-fps mf=1", plain fps_mf1);
    ("kp-fps pooled mf=1", plain fps_pooled_mf1);
    (* Capacity above every workload's peak occupancy (burst-then-drain
       holds 8_000 live elements), so [enqueue] never meets a full ring
       and the unbounded-FIFO invariants apply unchanged. *)
    ("ring mf=1", plain (ring_mf1 16_384));
  ]

(* Encode producer and sequence into one int so consumers can check
   per-producer order: value = producer * 1_000_000 + seq. *)
let encode ~producer ~seq = (producer * 1_000_000) + seq
let producer_of v = v / 1_000_000
let seq_of v = v mod 1_000_000

let test_producers_consumers (name, (module Q : Qi.QUEUE)) ~producers
    ~consumers ~per_producer () =
  let num_threads = producers + consumers in
  let q = Q.create ~num_threads () in
  let total = producers * per_producer in
  let consumed = Atomic.make 0 in
  (* Per-consumer logs, inspected after the run. *)
  let logs = Array.make consumers [] in
  let producer p () =
    for seq = 1 to per_producer do
      Q.enqueue q ~tid:p (encode ~producer:p ~seq)
    done
  in
  let consumer c () =
    let tid = producers + c in
    let got = ref [] in
    let n = ref 0 in
    while Atomic.get consumed < total do
      match Q.dequeue q ~tid with
      | Some v ->
          got := v :: !got;
          incr n;
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
  (* Conservation: each value seen exactly once, all values seen. *)
  let seen = Hashtbl.create total in
  Array.iter
    (fun log ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then
            Alcotest.fail (Printf.sprintf "%s: value %d seen twice" name v);
          Hashtbl.add seen v ())
        log)
    logs;
  Alcotest.(check int) "every value consumed exactly once" total
    (Hashtbl.length seen);
  Alcotest.(check int) "queue empty" 0 (Q.length q);
  (* Per-producer order within each consumer's log: FIFO implies that the
     subsequence of values from one producer is increasing. *)
  Array.iter
    (fun log ->
      let last_seq = Array.make producers 0 in
      List.iter
        (fun v ->
          let p = producer_of v and s = seq_of v in
          if s <= last_seq.(p) then
            Alcotest.fail
              (Printf.sprintf
                 "%s: per-producer order violated (p%d: %d after %d)" name p
                 s last_seq.(p));
          last_seq.(p) <- s)
        log)
    logs

let test_pairs_never_empty (name, (module Q : Qi.QUEUE)) ~threads ~iters () =
  let q = Q.create ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Q.enqueue q ~tid (encode ~producer:tid ~seq:i);
              match Q.dequeue q ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    (name ^ ": no dequeue may observe empty in pairs")
    0 (Atomic.get empties);
  Alcotest.(check int) "balanced" 0 (Q.length q)

let test_all_enqueue_then_drain ?(per = 2_000) (name, (module Q : Qi.QUEUE))
    () =
  (* Phase 1: everyone enqueues concurrently. Phase 2: sequential drain
     must deliver exactly the enqueued multiset, per-producer ordered. *)
  let threads = 4 in
  let q = Q.create ~num_threads:threads () in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for seq = 1 to per do
              Q.enqueue q ~tid (encode ~producer:tid ~seq)
            done))
  in
  List.iter Domain.join domains;
  let last_seq = Array.make threads 0 in
  let count = ref 0 in
  let rec drain () =
    match Q.dequeue q ~tid:0 with
    | None -> ()
    | Some v ->
        incr count;
        let p = producer_of v and s = seq_of v in
        if s <> last_seq.(p) + 1 then
          Alcotest.fail
            (Printf.sprintf "%s: producer %d out of order: %d after %d" name
               p s last_seq.(p));
        last_seq.(p) <- s;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all present" (threads * per) !count

let row_cases ?cap ((name, _) as q) =
  (* [cap] is the backend's capacity bound when it has one: workload
     sizes are clamped so peak occupancy never reaches it and the
     unbounded-FIFO invariants apply unchanged. *)
  let live = match cap with None -> max_int | Some c -> c in
  [
    Alcotest.test_case (name ^ " 2p/2c") `Quick
      (test_producers_consumers q ~producers:2 ~consumers:2
         ~per_producer:(min 3_000 (live / 2)));
    Alcotest.test_case (name ^ " 4p/1c") `Quick
      (test_producers_consumers q ~producers:4 ~consumers:1
         ~per_producer:(min 2_000 (live / 4)));
    Alcotest.test_case (name ^ " 1p/4c") `Quick
      (test_producers_consumers q ~producers:1 ~consumers:4
         ~per_producer:(min 6_000 live));
    Alcotest.test_case (name ^ " pairs x4") `Quick
      (test_pairs_never_empty q ~threads:4 ~iters:3_000);
    Alcotest.test_case (name ^ " enqueue burst then drain") `Quick
      (test_all_enqueue_then_drain ~per:(min 2_000 (live / 4)) q);
  ]

let cases = List.concat_map row_cases queues

(* Registry-driven rows: every backend registered in Wfq_core.Backends
   runs the same five workloads. A new backend joins this battery by
   registering; nothing here names one. *)
let registry_cases =
  List.concat_map
    (fun ((module B : Qi.BACKEND) as b) ->
      row_cases ?cap:B.capacity (B.id ^ " (registry)", plain b))
    Bk.all

(* Sim-based linearizability rows for the hazard-pointer variant: the
   recycling protocol mutates node fields, so a protocol race corrupts
   history observably — exactly what the Explore × Lincheck driver
   checks on every explored schedule. DPOR covers the one-op-per-fiber
   scenario exhaustively; the two-op scenarios use bounded-preemption
   and fuzz modes (their full trace spaces are beyond any budget). Every
   row also runs the wait-freedom certifier (per-fiber step bound). *)
module SA = Wfq_sim.Sim_atomic
module Ck = Wfq_sim.Check
module Hp_sim = Wfq_core.Kp_queue_hp.Make (SA)

let hp_sim_ops =
  Ck.queue
    ~create:(fun ~num_threads ->
      (* [scan_threshold = 1]: every retire scans, so nodes recycle as
         early as the hazard slots allow. *)
      Hp_sim.create ~scan_threshold:1 ~num_threads ())
    ~enqueue:Hp_sim.enqueue ~dequeue:Hp_sim.dequeue ~contents:Hp_sim.to_list
    ~audit:Hp_sim.check_quiescent_invariants ()

let check_hp_clean name (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted

let test_hp_sim_enq_deq_dpor () =
  check_hp_clean "kp-hp enq|deq under dpor"
    (Ck.run ~mode:Ck.Dpor ~max_schedules:50_000 ~step_bound:100
       ~queue:hp_sim_ops
       ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
       ())

let test_hp_sim_deq_race_pb () =
  check_hp_clean "kp-hp deq|deq under <=2 preemptions"
    (Ck.run ~mode:(Ck.Preemption_bounded 2) ~max_schedules:100_000
       ~step_bound:160 ~init:[ 1; 2 ] ~queue:hp_sim_ops
       ~scripts:[ [ `Deq ]; [ `Deq ] ]
       ())

let test_hp_sim_pairs_pb () =
  check_hp_clean "kp-hp pairs under <=2 preemptions"
    (Ck.run ~mode:(Ck.Preemption_bounded 2) ~max_schedules:100_000
       ~step_bound:200 ~queue:hp_sim_ops
       ~scripts:[ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]
       ())

let test_hp_sim_pairs_fuzz () =
  let r =
    Ck.run
      ~mode:(Ck.Fuzz { seed0 = 17; count = 2_000 })
      ~step_bound:200 ~queue:hp_sim_ops
      ~scripts:[ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "kp-hp fuzz: %a" Ck.pp_failure f

let hp_sim_cases =
  [
    Alcotest.test_case "kp-hp enq|deq: dpor-exhaustive lincheck" `Quick
      test_hp_sim_enq_deq_dpor;
    Alcotest.test_case "kp-hp deq|deq: bounded-preemption lincheck" `Quick
      test_hp_sim_deq_race_pb;
    Alcotest.test_case "kp-hp pairs: bounded-preemption lincheck" `Quick
      test_hp_sim_pairs_pb;
    Alcotest.test_case "kp-hp pairs: fuzz lincheck" `Quick
      test_hp_sim_pairs_fuzz;
  ]

(* Sim-based linearizability rows for the bounded ring, against the
   bounded-FIFO spec: [`Try_enq] results are judged with [~capacity]
   (Rejected is legal exactly when the abstract queue is full). The
   tiny configurations (capacity 1-2, max_failures 0-1) keep every
   protocol layer — claim/rollback, helping hand-off, full/empty
   validation — inside DPOR-exhaustible trace spaces; the two-op rows
   use bounded-preemption and fuzz, as for kp-hp above. Every row runs
   the wait-freedom certifier and the quiescent structural audit. *)
let ring_sim_ops ~capacity ~max_failures =
  Ck.backend
    (Bk.make ~id:"ring-litmus" ~label:"ring"
       (Ring { Bk.ring with capacity; max_failures }))

(* [schedules] pins the count each row explores. *)
let check_ring_clean name ~schedules (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted;
  Alcotest.(check int) (name ^ ": schedules explored") schedules
    r.Ck.schedules

let test_ring_sim_enq_deq_dpor () =
  check_ring_clean "ring enq|deq under dpor" ~schedules:2
    (Ck.run ~mode:Ck.Dpor ~max_schedules:100_000 ~step_bound:120
       ~queue:(ring_sim_ops ~capacity:2 ~max_failures:1)
       ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
       ())

let test_ring_sim_full_race_dpor () =
  (* Capacity-1 ring pre-filled to the brim: Try_enq must linearize to
     Rejected or Done depending on whether the racing Deq's removal has
     happened — the bounded spec's hardest corner. All-slow-path. *)
  check_ring_clean "ring try_enq|deq on full capacity-1 ring under dpor"
    ~schedules:103_742
    (Ck.run ~mode:Ck.Dpor ~max_schedules:300_000 ~step_bound:120
       ~init:[ 9 ]
       ~queue:(ring_sim_ops ~capacity:1 ~max_failures:0)
       ~scripts:[ [ `Try_enq 1 ]; [ `Deq ] ]
       ())

let test_ring_sim_pairs_pb () =
  check_ring_clean "ring pairs under <=2 preemptions" ~schedules:308
    (Ck.run ~mode:(Ck.Preemption_bounded 2) ~max_schedules:100_000
       ~step_bound:200
       ~queue:(ring_sim_ops ~capacity:2 ~max_failures:1)
       ~scripts:[ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]
       ())

let test_ring_sim_pairs_fuzz () =
  let r =
    Ck.run
      ~mode:(Ck.Fuzz { seed0 = 23; count = 2_000 })
      ~step_bound:200
      ~queue:(ring_sim_ops ~capacity:2 ~max_failures:1)
      ~scripts:[ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "ring fuzz: %a" Ck.pp_failure f

let ring_sim_cases =
  [
    Alcotest.test_case "ring enq|deq: dpor-exhaustive lincheck" `Quick
      test_ring_sim_enq_deq_dpor;
    Alcotest.test_case "ring full-race: dpor-exhaustive bounded lincheck"
      `Quick test_ring_sim_full_race_dpor;
    Alcotest.test_case "ring pairs: bounded-preemption lincheck" `Quick
      test_ring_sim_pairs_pb;
    Alcotest.test_case "ring pairs: fuzz lincheck" `Quick
      test_ring_sim_pairs_fuzz;
  ]

(* ------------------------------------------------------------------ *)
(* Cross-backend differential batch fuzzer                             *)
(* ------------------------------------------------------------------ *)

(* Random mixed single/batch scripts replayed against the sequential
   FIFO model on every batch-capable backend — KP, FPS, ring, shard —
   under both the deterministic simulator (random schedules, every one
   judged by the linearizability checker) and real 4-domain runs (the
   thread-safe history recorder, then the same checker; multi-shard
   front-ends are judged on conservation, their global order being
   deliberately relaxed). Scripts are generated from a seed, so any
   failure replays. *)

module H = Wfq_lincheck.History
module C = Wfq_lincheck.Checker

(* Deterministic LCG so every generated script replays by seed. *)
let mk_rng seed =
  let s = ref ((seed * 2) + 1) in
  fun bound ->
    s := ((!s * 2685821657736338717) + 1442695040888963407) land max_int;
    (!s lsr 17) mod bound

(* [threads] scripts of [ops] operations each, batches of at most
   [max_batch] elements, enqueued values globally unique so duplicate
   delivery and loss are attributable. Expanded sub-op count is at most
   [threads * ops * max_batch] — callers keep that under the checker's
   62-op limit. *)
let gen_scripts rng ~threads ~ops ~max_batch : Ck.script list =
  let v = ref 0 in
  let fresh () =
    incr v;
    !v
  in
  List.init threads (fun _ ->
      List.init ops (fun _ ->
          match rng 6 with
          | 0 | 1 ->
              `Enq_batch (List.init (1 + rng max_batch) (fun _ -> fresh ()))
          | 2 -> `Deq_batch (1 + rng max_batch)
          | 3 -> `Deq
          | _ -> `Enq (fresh ())))

(* --- simulator plane: random schedules, lincheck on every one ------ *)

let strict_shard = Wfq_shard.Shard.as_backend ~shards:1 "kp-opt12"

let sim_diff_rows =
  [
    ("kp-opt12", Bk.find "kp-opt12");
    ("kp-fps mf=1", fps_mf1);
    (* Capacity far above the script's enqueue count, so the bounded
       spec never sees a full queue. *)
    ("ring mf=1", ring_mf1 64);
    ("shard strict", strict_shard);
  ]

let test_diff_fuzz_sim () =
  List.iter
    (fun (name, b) ->
      for seed = 1 to 6 do
        let rng = mk_rng seed in
        let scripts = gen_scripts rng ~threads:3 ~ops:4 ~max_batch:3 in
        let r =
          Ck.run
            ~mode:(Ck.Fuzz { seed0 = seed * 7919; count = 40 })
            ~queue:(Ck.backend b) ~scripts ()
        in
        match r.Ck.failure with
        | None -> ()
        | Some f -> Alcotest.failf "%s seed %d: %a" name seed Ck.pp_failure f
      done)
    sim_diff_rows

(* --- real domains: thread-safe recording, same checker ------------- *)

(* [fifo]: strict global FIFO, judged with the linearizability checker;
   multi-shard front-ends are k-relaxed, so conservation only. *)
let diff_rows =
  [
    ("kp-opt12", Bk.find "kp-opt12", true);
    ("kp-fps mf=1", fps_mf1, true);
    ("ring mf=1", ring_mf1 256, true);
    ("shard strict", strict_shard, true);
    ( "shard tid-affine x4",
      Wfq_shard.Shard.as_backend ~policy:Tid_affine ~shards:4 "kp-opt12",
      false );
  ]

let run_diff_domains (name, b, fifo) seed =
  let threads = 4 in
  let rng = mk_rng seed in
  let scripts = gen_scripts rng ~threads ~ops:3 ~max_batch:3 in
  let q = Bk.instantiate b ~num_threads:threads () in
  let h = H.create ~thread_safe:true () in
  let worker tid script () =
    List.iter
      (function
        | `Enq v ->
            H.call h ~thread:tid (H.Enq v);
            q.enq ~tid v;
            H.return h ~thread:tid H.Done
        | `Deq -> (
            H.call h ~thread:tid H.Deq;
            match q.deq ~tid with
            | Some v -> H.return h ~thread:tid (H.Got v)
            | None -> H.return h ~thread:tid H.Empty)
        | `Enq_batch vs ->
            H.call_batch h ~thread:tid (List.map (fun v -> H.Enq v) vs);
            q.enq_batch ~tid vs;
            H.return_batch h ~thread:tid (List.map (fun _ -> H.Done) vs)
        | `Deq_batch want ->
            H.call_batch h ~thread:tid (List.init want (fun _ -> H.Deq));
            let got = q.deq_batch ~tid ~n:want in
            let rec responses got i =
              if i = want then []
              else
                match got with
                | v :: tl -> H.Got v :: responses tl (i + 1)
                | [] -> H.Empty :: responses [] (i + 1)
            in
            H.return_batch h ~thread:tid (responses got 0)
        | `Try_enq _ | `Try_enq_batch _ -> assert false)
      script
  in
  let domains = List.mapi (fun tid s -> Domain.spawn (worker tid s)) scripts in
  List.iter Domain.join domains;
  let completed = H.completed h in
  (* Differential vs the sequential model, part 1 — conservation: the
     multiset of accepted enqueues equals dequeued plus what is left. *)
  let enqueued =
    List.filter_map
      (fun (c : H.completed) ->
        match (c.H.op, c.H.response) with
        | H.Enq v, H.Done -> Some v
        | _ -> None)
      completed
  in
  let dequeued =
    List.filter_map
      (fun (c : H.completed) ->
        match c.H.response with H.Got v -> Some v | _ -> None)
      completed
  in
  let left = q.dump () in
  let sort = List.sort compare in
  if sort enqueued <> sort (dequeued @ left) then
    Alcotest.failf "%s seed %d: conservation violated (%d enq, %d deq, %d left)"
      name seed (List.length enqueued) (List.length dequeued)
      (List.length left);
  (* Part 2 — for strict-FIFO backends, the recorded history must be a
     linearization of the sequential queue model. *)
  if fifo && not (C.is_linearizable completed) then
    Alcotest.failf "%s seed %d: not linearizable:@.%a" name seed C.pp_history
      completed

let diff_cases =
  Alcotest.test_case "sim: random schedules x lincheck" `Quick
    test_diff_fuzz_sim
  :: List.map
       (fun ((name, _, _) as row) ->
         Alcotest.test_case
           (name ^ " 4 domains x 5 seeds")
           `Quick
           (fun () ->
             for seed = 1 to 5 do
               run_diff_domains row seed
             done))
       diff_rows

let () =
  Alcotest.run "queues-concurrent"
    [
      ("domains", cases);
      ("domains (registry)", registry_cases);
      ("sim-lincheck (kp-hp)", hp_sim_cases);
      ("sim-lincheck (ring)", ring_sim_cases);
      ("differential batch fuzzer", diff_cases);
    ]
