(* Concurrency tests for the sharded front-end on real OCaml domains.

   What a relaxed-FIFO sharded queue must still guarantee under real
   concurrency:

   - conservation: every enqueued value is dequeued exactly once (or
     remains at the end) — no loss, no duplication;
   - per-(producer, shard) order: the values one producer placed in one
     shard are consumed in that producer's program order (each shard is
     a strict FIFO and a producer's inserts into it are ordered);
   - quiescence: once the domains join, the remaining elements are
     exactly recoverable — the sweep never reports empty early;
   - strict mode (one shard) passes the unsharded pairs test verbatim,
     including its "empty is impossible" property. *)

module P = Wfq_shard.Shard
module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)

let policies = [ (P.Round_robin, "rr"); (P.Tid_affine, "affine") ]

(* value = producer * 1_000_000 + seq, as in test_queues_conc. *)
let encode ~producer ~seq = (producer * 1_000_000) + seq
let producer_of v = v / 1_000_000
let seq_of v = v mod 1_000_000

let test_producers_consumers (policy, pname) ~shards ~producers ~consumers
    ~per_producer () =
  let num_threads = producers + consumers in
  let t = Sh.create ~policy ~shards ~num_threads () in
  let total = producers * per_producer in
  let consumed = Atomic.make 0 in
  (* Each consumer logs (value, serving shard); the shard probe is
     single-writer per tid, so reading it right after the dequeue
     returns is race-free. *)
  let logs = Array.make consumers [] in
  let producer p () =
    for seq = 1 to per_producer do
      Sh.enqueue t ~tid:p (encode ~producer:p ~seq)
    done
  in
  let consumer c () =
    let tid = producers + c in
    let got = ref [] in
    while Atomic.get consumed < total do
      match Sh.dequeue t ~tid with
      | Some v ->
          got := (v, Sh.last_dequeue_shard t ~tid) :: !got;
          Atomic.incr consumed
      | None ->
          (* Legitimate: a sweep may race ahead of the producers. *)
          Domain.cpu_relax ()
    done;
    logs.(c) <- List.rev !got
  in
  let domains =
    List.init producers (fun p -> Domain.spawn (producer p))
    @ List.init consumers (fun c -> Domain.spawn (consumer c))
  in
  List.iter Domain.join domains;
  let name = Printf.sprintf "%s x%d" pname shards in
  (* Conservation. *)
  let seen = Hashtbl.create total in
  Array.iter
    (List.iter (fun (v, _) ->
         if Hashtbl.mem seen v then
           Alcotest.fail (Printf.sprintf "%s: value %d seen twice" name v);
         Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int) "every value consumed exactly once" total
    (Hashtbl.length seen);
  Alcotest.(check int) "queue empty" 0 (Sh.length t);
  (* Per-(producer, shard) order within each consumer's log. *)
  Array.iter
    (fun log ->
      let last_seq = Hashtbl.create 16 in
      List.iter
        (fun (v, s) ->
          Alcotest.(check bool) "shard probe in range" true
            (s >= 0 && s < shards);
          let key = (producer_of v, s) in
          let prev = Option.value (Hashtbl.find_opt last_seq key) ~default:0 in
          if seq_of v <= prev then
            Alcotest.fail
              (Printf.sprintf
                 "%s: per-(producer,shard) order violated (p%d/s%d: %d \
                  after %d)"
                 name (producer_of v) s (seq_of v) prev);
          Hashtbl.replace last_seq key (seq_of v))
        log)
    logs;
  (match Sh.check_quiescent_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Stats agree with the run at quiescence. *)
  let st = Sh.stats t in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  Alcotest.(check int) "stats: enqueues" total (sum (fun s -> s.P.enqueues));
  Alcotest.(check int) "stats: dequeues" total (sum (fun s -> s.P.dequeues))

(* Pairs with retry (the relaxed workload shape): each domain enqueues
   then dequeues-until-hit. Every enqueue must eventually be matched;
   the queue must balance to empty. *)
let test_pairs_relaxed (policy, pname) ~shards ~threads ~iters () =
  let t = Sh.create ~policy ~shards ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Sh.enqueue t ~tid (encode ~producer:tid ~seq:i);
              let rec take () =
                match Sh.dequeue t ~tid with
                | Some _ -> ()
                | None ->
                    Atomic.incr empties;
                    Domain.cpu_relax ();
                    take ()
              in
              take ()
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int)
    (Printf.sprintf "%s x%d: balanced" pname shards)
    0 (Sh.length t);
  Alcotest.(check bool) "empty at quiescence" true (Sh.is_empty t)

(* Strict mode must satisfy the STRICT pairs property: with one shard
   there is no sweep relaxation, so a dequeue right after an enqueue
   can never observe empty. *)
let test_strict_pairs_never_empty () =
  let threads = 4 and iters = 3_000 in
  let t = Sh.create ~shards:1 ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let domains =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Sh.enqueue t ~tid (encode ~producer:tid ~seq:i);
              match Sh.dequeue t ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "strict mode: empty is impossible in pairs" 0
    (Atomic.get empties);
  Alcotest.(check int) "balanced" 0 (Sh.length t)

(* Concurrent batches: producers push batches, consumers pull batches;
   conservation plus intra-batch order per (producer, shard) — batch
   elements from one producer that landed in one shard must come back
   in batch order inside each consumer's stream. *)
let test_batches_concurrent (policy, pname) ~shards () =
  let producers = 2 and consumers = 2 in
  let batches = 300 and batch = 7 in
  let num_threads = producers + consumers in
  let t = Sh.create ~policy ~shards ~num_threads () in
  let total = producers * batches * batch in
  let consumed = Atomic.make 0 in
  let logs = Array.make consumers [] in
  let producer p () =
    for b = 0 to batches - 1 do
      Sh.enqueue_batch t ~tid:p
        (List.init batch (fun i ->
             encode ~producer:p ~seq:((b * batch) + i + 1)))
    done
  in
  let consumer c () =
    let tid = producers + c in
    let got = ref [] in
    while Atomic.get consumed < total do
      match Sh.dequeue_batch t ~tid ~n:5 with
      | [] -> Domain.cpu_relax ()
      | vs ->
          got := List.rev_append vs !got;
          ignore (Atomic.fetch_and_add consumed (List.length vs))
    done;
    logs.(c) <- List.rev !got
  in
  let domains =
    List.init producers (fun p -> Domain.spawn (producer p))
    @ List.init consumers (fun c -> Domain.spawn (consumer c))
  in
  List.iter Domain.join domains;
  let name = Printf.sprintf "%s x%d batches" pname shards in
  let seen = Hashtbl.create total in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.fail (Printf.sprintf "%s: value %d seen twice" name v);
         Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int) "conservation" total (Hashtbl.length seen);
  Alcotest.(check int) "drained" 0 (Sh.length t)

(* The acceptance property, on real domains: whatever interleaving the
   concurrent phase produced, at quiescence a dequeuing sweep finds
   every remaining element before it ever reports None. Producers
   deliberately outpace consumers so a remainder exists. *)
let test_quiescent_remainder_recoverable (policy, pname) ~shards () =
  let producers = 3 and consumers = 1 in
  let per = 4_000 and take = 2_000 in
  let num_threads = producers + consumers in
  let t = Sh.create ~policy ~shards ~num_threads () in
  let taken = Atomic.make 0 in
  let domains =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for seq = 1 to per do
              Sh.enqueue t ~tid:p (encode ~producer:p ~seq)
            done))
    @ [
        Domain.spawn (fun () ->
            let tid = producers in
            while Atomic.get taken < take do
              match Sh.dequeue t ~tid with
              | Some _ -> Atomic.incr taken
              | None -> Domain.cpu_relax ()
            done);
      ]
  in
  List.iter Domain.join domains;
  let remaining = (producers * per) - Atomic.get taken in
  Alcotest.(check int)
    (Printf.sprintf "%s x%d: remainder visible in length" pname shards)
    remaining (Sh.length t);
  (* Sequential drain: exactly [remaining] hits, then None, and never
     None before that. *)
  let rec drain got =
    match Sh.dequeue t ~tid:0 with
    | Some _ -> drain (got + 1)
    | None -> got
  in
  let got = drain 0 in
  Alcotest.(check int) "sweep recovered every element" remaining got;
  Alcotest.(check bool) "empty after recovery" true (Sh.is_empty t)

let per_policy_cases =
  List.concat_map
    (fun ((_, pname) as p) ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s x4 2p/2c" pname)
          `Quick
          (test_producers_consumers p ~shards:4 ~producers:2 ~consumers:2
             ~per_producer:3_000);
        Alcotest.test_case
          (Printf.sprintf "%s x2 4p/1c" pname)
          `Quick
          (test_producers_consumers p ~shards:2 ~producers:4 ~consumers:1
             ~per_producer:2_000);
        Alcotest.test_case
          (Printf.sprintf "%s x4 pairs-with-retry" pname)
          `Quick
          (test_pairs_relaxed p ~shards:4 ~threads:4 ~iters:3_000);
        Alcotest.test_case
          (Printf.sprintf "%s x4 concurrent batches" pname)
          `Quick
          (test_batches_concurrent p ~shards:4);
        Alcotest.test_case
          (Printf.sprintf "%s x3 quiescent remainder" pname)
          `Quick
          (test_quiescent_remainder_recoverable p ~shards:3);
      ])
    policies

let () =
  Alcotest.run "shard-concurrent"
    [
      ("domains", per_policy_cases);
      ( "strict",
        [
          Alcotest.test_case "strict pairs never observes empty" `Quick
            test_strict_pairs_never_empty;
        ] );
    ]
