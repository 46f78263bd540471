(* Tests for the sharded front-end (lib/shard): sequential semantics
   against a per-shard FIFO model, the quiescent never-false-empty sweep
   guarantee, batch operations, the ticket-amortization cost profile
   (via counted atomics), and model checking under the deterministic
   simulator with per-shard linearizability.

   The ordering contract under test (see lib/shard/shard.mli): each
   shard is a strict linearizable FIFO; global order across shards is
   relaxed; a dequeue sweeps every shard before returning [None], so at
   quiescence [None] implies the whole queue is empty. *)

module P = Wfq_shard.Shard
module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)

let policies = [ (P.Round_robin, "rr"); (P.Tid_affine, "affine") ]

let shard_counts = [ 1; 2; 3; 4 ]

let check_invariants t =
  match Sh.check_quiescent_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)
(* Construction                                                      *)
(* ---------------------------------------------------------------- *)

let test_create_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Shard.create: shards must be positive") (fun () ->
      ignore (Sh.create ~shards:0 ~num_threads:1 () : int Sh.t));
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Shard.create: num_threads") (fun () ->
      ignore (Sh.create ~shards:2 ~num_threads:0 () : int Sh.t));
  let t : int Sh.t = Sh.create ~num_threads:2 () in
  Alcotest.(check int) "default shard count" 4 (Sh.shards t);
  Alcotest.(check bool) "default policy" true (Sh.policy t = P.Round_robin);
  let s : int Sh.t = Sh.create ~shards:1 ~num_threads:2 () in
  Alcotest.(check int) "strict is single-shard" 1 (Sh.shards s)

(* The [Registered id] constructor: every backend in the
   Wfq_core.Backends registry must work as a shard with no edit to the
   front-end — the QUEUE_BACKEND uniformity contract. *)
let test_registered_backends () =
  List.iter
    (fun id ->
      let t : int Sh.t =
        Sh.create ~backend:(P.Registered id) ~shards:2 ~num_threads:2 ()
      in
      Alcotest.(check bool)
        (id ^ ": backend recorded") true
        (Sh.backend t = P.Registered id);
      Sh.enqueue t ~tid:0 1;
      Sh.enqueue t ~tid:1 2;
      Alcotest.(check int) (id ^ ": length") 2 (Sh.length t);
      let a = Sh.dequeue t ~tid:0 in
      let b = Sh.dequeue t ~tid:1 in
      Alcotest.(check bool)
        (id ^ ": both elements served") true
        (a <> None && b <> None && a <> b);
      Alcotest.(check (option int)) (id ^ ": drained") None (Sh.dequeue t ~tid:0);
      check_invariants t)
    Wfq_core.Backends.ids;
  match Sh.create ~backend:(P.Registered "no-such") ~num_threads:1 () with
  | (_ : int Sh.t) -> Alcotest.fail "unknown registered id must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "rejection names the id" true
        (String.length msg > 0
        && String.sub msg 0 12 = "Shard.create")

(* [as_backend]: a shard configuration behind the uniform BACKEND
   signature, so registry-driven clients build it through
   [Backends.instantiate]; bounded backends are refused, since a full
   shard cannot answer [try_enqueue] with [false]. *)
let test_as_backend () =
  let b = P.as_backend ~policy:P.Round_robin ~shards:2 "fps-pooled" in
  let module B = (val b : Wfq_core.Queue_intf.BACKEND) in
  Alcotest.(check string) "id" "shard-rr2-fps-pooled" B.id;
  let reg = Wfq_obsv.Metrics.create () in
  let q = Wfq_core.Backends.instantiate b ~obsv:(reg, "s") ~num_threads:2 () in
  Alcotest.(check bool) "try_enq" true (q.try_enq ~tid:0 1);
  q.enq ~tid:1 2;
  Alcotest.(check (option int)) "depth gauge" (Some 2)
    (Wfq_obsv.Metrics.value reg "s.depth");
  Alcotest.(check (list int)) "both served" [ 1; 2 ]
    (List.sort compare (q.deq_batch ~tid:0 ~n:3));
  Alcotest.(check (result unit string)) "audit" (Ok ()) (q.check ());
  match P.as_backend "ring" with
  | _ -> Alcotest.fail "a bounded backend must be refused"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Sequential semantics vs a per-shard FIFO model                    *)
(* ---------------------------------------------------------------- *)

(* Random single-thread op sequence checked against an array of model
   FIFOs, one per shard. The white-box probes attribute each completed
   operation to its shard, so the model never guesses the policy's
   choice — it only demands that whatever shard served the operation
   behaves as a FIFO. *)
let test_sequential_model (policy, _) shards () =
  let nt = 3 in
  let t = Sh.create ~policy ~shards ~num_threads:nt () in
  let models = Array.init shards (fun _ -> Queue.create ()) in
  let pending = ref 0 in
  let enqueued = ref 0 and dequeued = ref 0 in
  let rng = Random.State.make [| 42; shards |] in
  let do_dequeue tid =
    match Sh.dequeue t ~tid with
    | None ->
        Alcotest.fail
          (Printf.sprintf "false empty: %d elements present" !pending)
    | Some v ->
        decr pending;
        incr dequeued;
        let s = Sh.last_dequeue_shard t ~tid in
        Alcotest.(check bool) "served shard in range" true
          (s >= 0 && s < shards);
        let expect = Queue.pop models.(s) in
        if expect <> v then
          Alcotest.fail
            (Printf.sprintf "shard %d FIFO violated: got %d, expected %d" s
               v expect)
  in
  for i = 1 to 400 do
    let tid = Random.State.int rng nt in
    if !pending > 0 && Random.State.bool rng then do_dequeue tid
    else begin
      Sh.enqueue t ~tid i;
      incr pending;
      incr enqueued;
      let s = Sh.last_enqueue_shard t ~tid in
      Alcotest.(check bool) "placed shard in range" true
        (s >= 0 && s < shards);
      Queue.push i models.(s)
    end
  done;
  (* Model and queue agree per shard before draining. *)
  Array.iteri
    (fun s m ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d length" s)
        (Queue.length m) (Sh.shard_length t s))
    models;
  Alcotest.(check int) "total length" !pending (Sh.length t);
  while !pending > 0 do
    do_dequeue 0
  done;
  Alcotest.(check bool) "empty after drain" true (Sh.is_empty t);
  Alcotest.(check (option int)) "None only when empty" None
    (Sh.dequeue t ~tid:1);
  let st = Sh.stats t in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  Alcotest.(check int) "stats: enqueues" !enqueued
    (sum (fun s -> s.P.enqueues));
  Alcotest.(check int) "stats: dequeues" !dequeued
    (sum (fun s -> s.P.dequeues));
  Alcotest.(check bool) "stats: the final None swept" true
    (sum (fun s -> s.P.empty_sweeps) >= 1);
  check_invariants t

(* Strict mode is a plain global FIFO regardless of which tid runs
   which operation. *)
let test_strict_global_fifo () =
  let t = Sh.create ~shards:1 ~num_threads:4 () in
  for i = 1 to 40 do
    Sh.enqueue t ~tid:(i mod 4) i
  done;
  for i = 1 to 40 do
    match Sh.dequeue t ~tid:((i + 1) mod 4) with
    | Some v -> Alcotest.(check int) "global FIFO order" i v
    | None -> Alcotest.fail "false empty"
  done;
  Alcotest.(check (option int)) "drained" None (Sh.dequeue t ~tid:0)

(* ---------------------------------------------------------------- *)
(* Quiescent sweep: None is only ever returned by an empty queue      *)
(* ---------------------------------------------------------------- *)

(* A single element, enqueued by any tid under any policy at any ticket
   offset, must be found by a dequeue from any other tid: the sweep
   visits every shard, so no placement can hide it. *)
let test_singleton_always_found (policy, _) shards () =
  let nt = 4 in
  for pre = 0 to shards do
    for enq_tid = 0 to nt - 1 do
      for deq_tid = 0 to nt - 1 do
        let t = Sh.create ~policy ~shards ~num_threads:nt () in
        (* Advance the tickets so the start shards vary. *)
        for i = 1 to pre do
          Sh.enqueue t ~tid:0 (-i);
          match Sh.dequeue t ~tid:0 with
          | Some _ -> ()
          | None -> Alcotest.fail "false empty during ticket advance"
        done;
        Sh.enqueue t ~tid:enq_tid 7;
        (match Sh.dequeue t ~tid:deq_tid with
        | Some 7 -> ()
        | Some v -> Alcotest.fail (Printf.sprintf "wrong element %d" v)
        | None ->
            Alcotest.fail
              (Printf.sprintf
                 "sweep missed the element (pre=%d enq_tid=%d deq_tid=%d)"
                 pre enq_tid deq_tid));
        Alcotest.(check (option int)) "then truly empty" None
          (Sh.dequeue t ~tid:deq_tid);
        check_invariants t
      done
    done
  done

(* ---------------------------------------------------------------- *)
(* Batch operations                                                  *)
(* ---------------------------------------------------------------- *)

let test_batch_round_robin_spread () =
  let t = Sh.create ~policy:P.Round_robin ~shards:4 ~num_threads:1 () in
  Sh.enqueue_batch t ~tid:0 [ 10; 20; 30; 40; 50; 60 ];
  (* A batch of k >= N spreads as N contiguous sub-batches over
     consecutive ticket-selected shards (docs/BATCHING.md): ticket 0
     starts at shard 0, which gets [10;20], shard 1 [30;40], then the
     two singleton remainders. *)
  Alcotest.(check (list int))
    "per-shard placement" [ 2; 2; 1; 1 ]
    (List.init 4 (Sh.shard_length t));
  Alcotest.(check (list int))
    "shard-major contents" [ 10; 20; 30; 40; 50; 60 ] (Sh.to_list t);
  (* dequeue_batch drains shard by shard, preserving per-shard order. *)
  let got = Sh.dequeue_batch t ~tid:0 ~n:6 in
  Alcotest.(check (list int)) "batch drain" [ 10; 20; 30; 40; 50; 60 ] got;
  Alcotest.(check bool) "empty" true (Sh.is_empty t);
  check_invariants t

let test_batch_contiguous_policies () =
  let t = Sh.create ~policy:P.Tid_affine ~shards:4 ~num_threads:4 () in
  Sh.enqueue_batch t ~tid:1 [ 1; 2; 3; 4; 5 ];
  let s = Sh.last_enqueue_shard t ~tid:1 in
  Alcotest.(check int) "whole batch in one shard" 5 (Sh.shard_length t s);
  (* Intra-batch FIFO: the batch comes back in order. *)
  let got = Sh.dequeue_batch t ~tid:1 ~n:5 in
  Alcotest.(check (list int)) "intra-batch order" [ 1; 2; 3; 4; 5 ] got;
  check_invariants t

let test_batch_edge_cases () =
  let t = Sh.create ~shards:3 ~num_threads:2 () in
  Sh.enqueue_batch t ~tid:0 [];
  Alcotest.(check bool) "empty batch is a no-op" true (Sh.is_empty t);
  Alcotest.(check (list int)) "dequeue_batch n=0" []
    (Sh.dequeue_batch t ~tid:0 ~n:0);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Shard.dequeue_batch: n") (fun () ->
      ignore (Sh.dequeue_batch t ~tid:0 ~n:(-1)));
  Alcotest.(check (list int)) "batch on empty queue" []
    (Sh.dequeue_batch t ~tid:1 ~n:5);
  Sh.enqueue_batch t ~tid:0 [ 1; 2; 3 ];
  (* Asking for more than is present returns what exists — a partial
     batch implies a full empty sweep. *)
  Alcotest.(check int) "partial batch" 3
    (List.length (Sh.dequeue_batch t ~tid:1 ~n:10));
  check_invariants t

(* ---------------------------------------------------------------- *)
(* Cost profile: ticket amortization, counted                        *)
(* ---------------------------------------------------------------- *)

(* The underlying KP queue never uses fetch-and-add (its phase counter
   is CAS-based), so the [fetch_adds] counter isolates shard-ticket
   acquisitions exactly: k singles cost k tickets, a k-batch costs one. *)
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Sh_counted = Wfq_shard.Shard.Make (CA)

let test_ticket_amortization () =
  let t = Sh_counted.create ~policy:P.Round_robin ~shards:4 ~num_threads:1 () in
  CA.reset ();
  for i = 1 to 8 do
    Sh_counted.enqueue t ~tid:0 i
  done;
  Alcotest.(check int) "k singles, k tickets" 8
    (CA.snapshot ()).Wfq_primitives.Counted_atomic.fetch_adds;
  CA.reset ();
  Sh_counted.enqueue_batch t ~tid:0 [ 9; 10; 11; 12; 13; 14; 15; 16 ];
  Alcotest.(check int) "one batch, one ticket" 1
    (CA.snapshot ()).Wfq_primitives.Counted_atomic.fetch_adds;
  CA.reset ();
  let got = Sh_counted.dequeue_batch t ~tid:0 ~n:16 in
  Alcotest.(check int) "batch dequeue: one ticket" 1
    (CA.snapshot ()).Wfq_primitives.Counted_atomic.fetch_adds;
  Alcotest.(check int) "batch dequeue drained all" 16 (List.length got)

let test_tid_affine_no_tickets () =
  let t = Sh_counted.create ~policy:P.Tid_affine ~shards:4 ~num_threads:2 () in
  CA.reset ();
  for i = 1 to 8 do
    Sh_counted.enqueue t ~tid:1 i;
    ignore (Sh_counted.dequeue t ~tid:1)
  done;
  Alcotest.(check int) "affine selection needs no shared state" 0
    (CA.snapshot ()).Wfq_primitives.Counted_atomic.fetch_adds

(* ---------------------------------------------------------------- *)
(* Model checking under the simulator                                *)
(* ---------------------------------------------------------------- *)

module S = Wfq_sim.Scheduler
module E = Wfq_sim.Explore
module H = Wfq_lincheck.History
module C = Wfq_lincheck.Checker
module Sh_sim = Wfq_shard.Shard.Make (Wfq_sim.Sim_atomic)

type script = [ `Enq of int | `Deq ] list

(* One recorded operation, attributed to the shard that served it via
   the white-box probes (-1 = an empty sweep, which observed EVERY
   shard empty at some instant inside its interval). The simulator is
   single-domain, so a plain counter is an exact event clock. *)
type event = {
  thread : int;
  op : H.op;
  response : H.response;
  call : int;
  return : int;
  shard : int;
}

let to_completed (e : event) : H.completed =
  {
    H.thread = e.thread;
    op = e.op;
    response = e.response;
    call = e.call;
    return = e.return;
  }

(* Build an explorable scenario over a [shards]-shard queue. The check
   asserts, for every explored interleaving:
   - element conservation (nothing lost, nothing duplicated);
   - per-shard linearizability: the operations served by each shard,
     plus every empty sweep, form a linearizable FIFO history;
   - with a single shard, whole-history linearizability (strict mode);
   - the quiescent sweep guarantee: draining the final state yields
     exactly [length] elements before the first [None]. *)
let scenario ~policy ~shards (scripts : script list) () =
  let num_threads = List.length scripts in
  let q = Sh_sim.create ~policy ~shards ~num_threads () in
  let clock = ref 0 in
  let tick () = incr clock; !clock in
  let events = ref [] in
  let record e = events := e :: !events in
  let fiber tid script () =
    List.iter
      (function
        | `Enq v ->
            let call = tick () in
            Sh_sim.enqueue q ~tid v;
            record
              {
                thread = tid;
                op = H.Enq v;
                response = H.Done;
                call;
                return = tick ();
                shard = Sh_sim.last_enqueue_shard q ~tid;
              }
        | `Deq ->
            let call = tick () in
            let r = Sh_sim.dequeue q ~tid in
            let return = tick () in
            let shard = Sh_sim.last_dequeue_shard q ~tid in
            record
              {
                thread = tid;
                op = H.Deq;
                response =
                  (match r with Some v -> H.Got v | None -> H.Empty);
                call;
                return;
                shard = (match r with Some _ -> shard | None -> -1);
              })
      script
  in
  let check (_ : S.result) =
    let evs = List.sort (fun a b -> compare a.call b.call) !events in
    let enqueued =
      List.filter_map
        (fun e -> match e.op with H.Enq v -> Some v | H.Deq -> None)
        evs
    in
    let dequeued =
      List.filter_map
        (fun e ->
          match e.response with
          | H.Got v -> Some v
          | H.Done | H.Empty | H.Rejected -> None)
        evs
    in
    let left = S.ignore_yields (fun () -> Sh_sim.to_list q) in
    let sort = List.sort compare in
    if sort enqueued <> sort (dequeued @ left) then
      Error
        (Printf.sprintf "conservation violated: %d enq, %d deq, %d left"
           (List.length enqueued) (List.length dequeued) (List.length left))
    else
      let shard_ok s =
        let hist =
          List.filter (fun e -> e.shard = s || e.shard = -1) evs
          |> List.map to_completed
        in
        if C.is_linearizable hist then Ok ()
        else
          Error
            (Format.asprintf "shard %d not linearizable:@.%a" s
               C.pp_history hist)
      in
      let rec all_shards s =
        if s = shards then Ok ()
        else match shard_ok s with Ok () -> all_shards (s + 1) | e -> e
      in
      match all_shards 0 with
      | Error _ as e -> e
      | Ok () ->
          (* Quiescent drain: every remaining element is reachable
             before any [None]. *)
          S.ignore_yields (fun () ->
              let expected = List.length left in
              let rec drain got =
                match Sh_sim.dequeue q ~tid:0 with
                | Some _ -> drain (got + 1)
                | None -> got
              in
              let got = drain 0 in
              if got <> expected then
                Error
                  (Printf.sprintf
                     "quiescent sweep lost elements: drained %d of %d" got
                     expected)
              else Ok ())
  in
  (Array.of_list (List.mapi fiber scripts), check)

let scenarios : (string * script list) list =
  [
    ("2x enq race", [ [ `Enq 1 ]; [ `Enq 2 ] ]);
    ("enq vs deq on empty", [ [ `Enq 1 ]; [ `Deq ] ]);
    ("2x deq on singleton", [ [ `Deq ]; [ `Deq; `Enq 9 ] ]);
    ("pairs x2", [ [ `Enq 1; `Deq ]; [ `Enq 2; `Deq ] ]);
    ("producer/consumer", [ [ `Enq 1; `Enq 2 ]; [ `Deq; `Deq ] ]);
  ]

let explore_case ~policy ~shards name (scen_name, scripts) budget =
  Alcotest.test_case
    (Printf.sprintf "%s/%d: %s (<=%d preemptions)" name shards scen_name
       budget)
    `Quick
    (fun () ->
      let report =
        E.preemption_bounded ~budget ~max_schedules:60_000
          ~make:(scenario ~policy ~shards scripts) ()
      in
      (match report.E.failure with
      | Some (prefix, msg) ->
          Alcotest.fail
            (Printf.sprintf "schedule %s failed: %s"
               (String.concat "," (List.map string_of_int prefix))
               msg)
      | None -> ());
      Alcotest.(check bool) "search exhausted" true report.E.exhausted)

let fuzz_case ~policy ~shards name (scen_name, scripts) count =
  Alcotest.test_case
    (Printf.sprintf "%s/%d: %s (fuzz %d)" name shards scen_name count)
    `Quick
    (fun () ->
      let report =
        E.fuzz ~count ~make:(scenario ~policy ~shards scripts) ()
      in
      match report.E.failure with
      | Some (_, msg) -> Alcotest.fail msg
      | None -> ())

let systematic_tests =
  List.concat_map
    (fun (scen : string * script list) ->
      [
        (* Strict mode: the whole history is one shard's, so the
           per-shard check IS global linearizability. *)
        explore_case ~policy:P.Round_robin ~shards:1 "strict" scen 2;
        explore_case ~policy:P.Round_robin ~shards:2 "rr" scen 2;
        explore_case ~policy:P.Tid_affine ~shards:2 "affine" scen 2;
      ])
    scenarios

let fuzz_tests =
  let big : string * script list =
    ( "3 threads mixed",
      [
        [ `Enq 1; `Deq; `Enq 2 ];
        [ `Deq; `Enq 3; `Deq ];
        [ `Enq 4; `Deq; `Deq ];
      ] )
  in
  [
    fuzz_case ~policy:P.Round_robin ~shards:2 "rr" big 300;
    fuzz_case ~policy:P.Round_robin ~shards:3 "rr" big 300;
    fuzz_case ~policy:P.Tid_affine ~shards:2 "affine" big 300;
  ]

(* ---------------------------------------------------------------- *)
(* Steal_order: the sweep-order contract, pinned                     *)
(* ---------------------------------------------------------------- *)

(* The sweep order is a contract shared between the shard dequeue
   sweep and the scheduler's steal ([Wfq_sched]): one full lap from
   the start queue, neighbours first, wrapping once. Pin it exactly. *)
let test_steal_order_pinned () =
  let module SO = Wfq_shard.Steal_order in
  Alcotest.(check (list int)) "n=4 start=0" [ 0; 1; 2; 3 ]
    (SO.order ~n:4 ~start:0);
  Alcotest.(check (list int)) "n=4 start=2" [ 2; 3; 0; 1 ]
    (SO.order ~n:4 ~start:2);
  Alcotest.(check (list int)) "n=1 start=0" [ 0 ] (SO.order ~n:1 ~start:0);
  Alcotest.(check (list int)) "n=5 start=4" [ 4; 0; 1; 2; 3 ]
    (SO.order ~n:5 ~start:4);
  (* Position arithmetic agrees with the list form everywhere. *)
  for n = 1 to 6 do
    for start = 0 to n - 1 do
      Alcotest.(check (list int))
        (Printf.sprintf "visit = order (n=%d start=%d)" n start)
        (SO.order ~n ~start)
        (List.init n (fun i -> SO.visit ~n ~start i));
      (* Every queue visited exactly once: the lap is a permutation. *)
      Alcotest.(check (list int))
        (Printf.sprintf "permutation (n=%d start=%d)" n start)
        (List.init n Fun.id)
        (List.sort compare (SO.order ~n ~start))
    done
  done;
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Steal_order: n must be positive") (fun () ->
      ignore (SO.order ~n:0 ~start:0));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Steal_order: start") (fun () ->
      ignore (SO.visit ~n:3 ~start:3 0));
  Alcotest.check_raises "position out of range"
    (Invalid_argument "Steal_order: position") (fun () ->
      ignore (SO.visit ~n:3 ~start:0 3))

(* The shard dequeue sweep serves shards in Steal_order: with every
   shard non-empty except the start, the first steal comes from the
   start's ring successor, then its successor, ... — observed through
   the last_dequeue_shard probe with a Tid_affine start pinned to 0. *)
let test_sweep_follows_steal_order () =
  let module SO = Wfq_shard.Steal_order in
  (* A 4-shard front-end with num_threads = 4; tid [s] (Tid_affine)
     fills shard [s]. Dequeues by tid 0 must then drain shard 0 first,
     then 1, 2, 3 — the pinned lap from start 0. *)
  let shards = 4 in
  let t = Sh.create ~policy:P.Tid_affine ~shards ~num_threads:4 () in
  for s = 0 to shards - 1 do
    Sh.enqueue t ~tid:s s
  done;
  List.iter
    (fun expect ->
      match Sh.dequeue t ~tid:0 with
      | None -> Alcotest.fail "sweep reported empty with elements present"
      | Some v ->
          Alcotest.(check int) "sweep order value" expect v;
          Alcotest.(check int) "sweep order shard" expect
            (Sh.last_dequeue_shard t ~tid:0))
    (SO.order ~n:shards ~start:0)

let seq_cases =
  test_create_validation
  |> fun f ->
  Alcotest.test_case "create validation / defaults" `Quick f
  :: Alcotest.test_case "registered backends as shards" `Quick
       test_registered_backends
  :: Alcotest.test_case "shard configuration as a backend" `Quick
       test_as_backend
  :: (List.concat_map
        (fun p ->
          List.map
            (fun shards ->
              Alcotest.test_case
                (Printf.sprintf "model: %s x%d" (snd p) shards)
                `Quick
                (test_sequential_model p shards))
            shard_counts)
        policies
     @ [ Alcotest.test_case "strict mode is a global FIFO" `Quick
           test_strict_global_fifo ])

let sweep_cases =
  List.concat_map
    (fun p ->
      List.map
        (fun shards ->
          Alcotest.test_case
            (Printf.sprintf "singleton found: %s x%d" (snd p) shards)
            `Quick
            (test_singleton_always_found p shards))
        shard_counts)
    policies

let () =
  Alcotest.run "shard"
    [
      ("sequential", seq_cases);
      ( "steal order",
        [
          Alcotest.test_case "lap pinned" `Quick test_steal_order_pinned;
          Alcotest.test_case "sweep follows the lap" `Quick
            test_sweep_follows_steal_order;
        ] );
      ("quiescent sweep", sweep_cases);
      ( "batches",
        [
          Alcotest.test_case "round-robin spread" `Quick
            test_batch_round_robin_spread;
          Alcotest.test_case "contiguous policies" `Quick
            test_batch_contiguous_policies;
          Alcotest.test_case "edge cases" `Quick test_batch_edge_cases;
        ] );
      ( "cost profile",
        [
          Alcotest.test_case "batch amortizes tickets" `Quick
            test_ticket_amortization;
          Alcotest.test_case "tid-affine needs no tickets" `Quick
            test_tid_affine_no_tickets;
        ] );
      ("sim systematic", systematic_tests);
      ("sim fuzz", fuzz_tests);
    ]
