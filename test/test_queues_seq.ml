(* Sequential (single-thread) semantics of every queue implementation:
   each must behave exactly like Stdlib.Queue on any operation sequence.
   Differential testing via qcheck plus targeted unit cases. *)

module A = Wfq_primitives.Real_atomic
module Ms = Wfq_core.Ms_queue.Make (A)
module Kp = Wfq_core.Kp_queue.Make (A)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)
module Bk = Wfq_core.Backends

(* A uniform view of each queue for the differential tests. *)
type 'q ops = {
  qname : string;
  make : unit -> 'q;
  enq : 'q -> int -> unit;
  deq : 'q -> int option;
  to_list : 'q -> int list;
  len : 'q -> int;
  empty : 'q -> bool;
}

type packed = Ops : 'q ops -> packed

let ms_ops =
  Ops
    {
      qname = "ms";
      make = (fun () -> Ms.create ~num_threads:1 ());
      enq = (fun q v -> Ms.enqueue q ~tid:0 v);
      deq = (fun q -> Ms.dequeue q ~tid:0);
      to_list = Ms.to_list;
      len = Ms.length;
      empty = Ms.is_empty;
    }

(* The paper's four §3.3 policy points, as configurations. *)
let kp_ops name config =
  let b = Bk.make ~id:name ~label:name (Kp config) in
  Ops
    {
      qname = name;
      make = (fun () -> Bk.instantiate b ~num_threads:1 ());
      enq = (fun q v -> q.enq ~tid:0 v);
      deq = (fun q -> q.deq ~tid:0);
      to_list = (fun q -> q.dump ());
      len = (fun q -> q.size ());
      empty = (fun q -> q.empty ());
    }

let kp_base = kp_ops "kp-base" Bk.kp_base
let kp_opt1 = kp_ops "kp-opt1" Bk.kp_opt1
let kp_opt2 = kp_ops "kp-opt2" Bk.kp_opt2
let kp_opt12 = kp_ops "kp-opt12" Bk.kp

let kp_hp_ops =
  Ops
    {
      qname = "kp-hp";
      make = (fun () -> Kp_hp.create ~num_threads:1 ());
      enq = (fun q v -> Kp_hp.enqueue q ~tid:0 v);
      deq = (fun q -> Kp_hp.dequeue q ~tid:0);
      to_list = Kp_hp.to_list;
      len = Kp_hp.length;
      empty = Kp_hp.is_empty;
    }

let mutex_ops =
  Ops
    {
      qname = "mutex";
      make = (fun () -> Wfq_core.Mutex_queue.create ~num_threads:1 ());
      enq = (fun q v -> Wfq_core.Mutex_queue.enqueue q ~tid:0 v);
      deq = (fun q -> Wfq_core.Mutex_queue.dequeue q ~tid:0);
      to_list = Wfq_core.Mutex_queue.to_list;
      len = Wfq_core.Mutex_queue.length;
      empty = Wfq_core.Mutex_queue.is_empty;
    }

let all_queues =
  [
    ms_ops; kp_base; kp_opt1; kp_opt2; kp_opt12; kp_hp_ops; mutex_ops;
  ]

(* Static interface conformance: these bindings compile only if the
   implementations satisfy the shared signatures. *)
module _ : Wfq_core.Queue_intf.CHECKABLE_QUEUE = Ms
module _ : Wfq_core.Queue_intf.CHECKABLE_QUEUE = Kp
module _ : Wfq_core.Queue_intf.QUEUE = Wfq_core.Mutex_queue

(* ------------------------------------------------------------------ *)
(* Unit tests *)
(* ------------------------------------------------------------------ *)

let test_fifo (Ops o) () =
  let q = o.make () in
  Alcotest.(check bool) "fresh queue empty" true (o.empty q);
  Alcotest.(check (option int)) "deq on empty" None (o.deq q);
  List.iter (o.enq q) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length 5" 5 (o.len q);
  Alcotest.(check (list int)) "contents" [ 1; 2; 3; 4; 5 ] (o.to_list q);
  Alcotest.(check (option int)) "deq 1" (Some 1) (o.deq q);
  Alcotest.(check (option int)) "deq 2" (Some 2) (o.deq q);
  o.enq q 6;
  Alcotest.(check (list int)) "after mixed ops" [ 3; 4; 5; 6 ] (o.to_list q);
  Alcotest.(check (option int)) "deq 3" (Some 3) (o.deq q);
  Alcotest.(check (option int)) "deq 4" (Some 4) (o.deq q);
  Alcotest.(check (option int)) "deq 5" (Some 5) (o.deq q);
  Alcotest.(check (option int)) "deq 6" (Some 6) (o.deq q);
  Alcotest.(check (option int)) "empty again" None (o.deq q);
  Alcotest.(check bool) "is_empty after drain" true (o.empty q)

let test_empty_run (Ops o) () =
  let q = o.make () in
  (* Repeated empty dequeues must stay stable (the paper's unsuccessful
     dequeue leaves the queue unchanged). *)
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "still empty" None (o.deq q)
  done;
  o.enq q 42;
  Alcotest.(check (option int)) "enq after empties" (Some 42) (o.deq q)

let test_drain_refill (Ops o) () =
  let q = o.make () in
  for round = 1 to 5 do
    for i = 1 to 100 do
      o.enq q ((round * 1000) + i)
    done;
    for i = 1 to 100 do
      Alcotest.(check (option int))
        "fifo across rounds"
        (Some ((round * 1000) + i))
        (o.deq q)
    done;
    Alcotest.(check (option int)) "drained" None (o.deq q)
  done

(* ------------------------------------------------------------------ *)
(* qcheck differential property: any op sequence ≡ Stdlib.Queue *)
(* ------------------------------------------------------------------ *)

type op = Enq of int | Deq

let op_gen =
  QCheck2.Gen.(
    oneof [ map (fun v -> Enq v) (int_bound 1000); return Deq ])

let ops_gen = QCheck2.Gen.(list_size (int_bound 200) op_gen)

let print_ops ops =
  String.concat ";"
    (List.map (function Enq v -> Printf.sprintf "E%d" v | Deq -> "D") ops)

let differential_prop (Ops o) ops =
  let q = o.make () in
  let model = Queue.create () in
  List.for_all
    (function
      | Enq v ->
          o.enq q v;
          Queue.push v model;
          true
      | Deq -> o.deq q = Queue.take_opt model)
    ops
  && o.to_list q = List.of_seq (Queue.to_seq model)
  && o.len q = Queue.length model

let differential_tests =
  List.map
    (fun (Ops o as packed) ->
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make
           ~name:(Printf.sprintf "%s ≡ Stdlib.Queue" o.qname)
           ~count:300 ~print:print_ops ops_gen
           (differential_prop packed)))
    all_queues

(* ------------------------------------------------------------------ *)
(* KP-specific white-box checks *)
(* ------------------------------------------------------------------ *)

let test_kp_invariants () =
  let q = Kp.create ~num_threads:4 () in
  for i = 1 to 50 do
    Kp.enqueue q ~tid:(i mod 4) i
  done;
  for _ = 1 to 20 do
    ignore (Kp.dequeue q ~tid:0)
  done;
  (match Kp.check_quiescent_invariants q with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "30 left" 30 (Kp.length q)

let test_kp_phases_monotonic () =
  let q = Kp.create ~num_threads:2 () in
  let last = ref (-1) in
  for i = 1 to 20 do
    Kp.enqueue q ~tid:(i mod 2) i;
    let ph = Kp.phase_of q ~tid:(i mod 2) in
    Alcotest.(check bool) "phase grows" true (ph > !last);
    last := ph;
    Alcotest.(check bool) "not pending after return" false
      (Kp.pending_of q ~tid:(i mod 2))
  done

let test_ms_invariants () =
  let q = Ms.create ~num_threads:1 () in
  for i = 1 to 10 do
    Ms.enqueue q ~tid:0 i
  done;
  ignore (Ms.dequeue q ~tid:0);
  match Ms.check_quiescent_invariants q with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_generic_payload () =
  (* The queues are polymorphic; exercise a non-int payload. *)
  let q = Kp.create ~num_threads:1 () in
  Kp.enqueue q ~tid:0 "alpha";
  Kp.enqueue q ~tid:0 "beta";
  Alcotest.(check (option string)) "string deq" (Some "alpha")
    (Kp.dequeue q ~tid:0);
  Alcotest.(check (option string)) "string deq 2" (Some "beta")
    (Kp.dequeue q ~tid:0)

let per_queue_cases =
  List.concat_map
    (fun (Ops o as packed) ->
      [
        Alcotest.test_case (o.qname ^ " fifo basics") `Quick
          (test_fifo packed);
        Alcotest.test_case (o.qname ^ " empty dequeues") `Quick
          (test_empty_run packed);
        Alcotest.test_case (o.qname ^ " drain/refill cycles") `Quick
          (test_drain_refill packed);
      ])
    all_queues

let () =
  Alcotest.run "queues-sequential"
    [
      ("basics", per_queue_cases);
      ("differential", differential_tests);
      ( "white-box",
        [
          Alcotest.test_case "kp quiescent invariants" `Quick
            test_kp_invariants;
          Alcotest.test_case "kp phases monotonic" `Quick
            test_kp_phases_monotonic;
          Alcotest.test_case "ms quiescent invariants" `Quick
            test_ms_invariants;
          Alcotest.test_case "generic payload" `Quick test_generic_payload;
        ] );
    ]
