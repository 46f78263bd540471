(* Tests for the linearizability checker itself: known-good and known-bad
   histories, the real-time-order rule, and qcheck properties relating
   sequential histories to linearizability. *)

module H = Wfq_lincheck.History
module C = Wfq_lincheck.Checker

(* Handy constructor for completed operations. *)
let op ?(thread = 0) ~call ~return o resp =
  { H.thread; op = o; response = resp; call; return }

let lin = C.is_linearizable

let test_empty_history () = Alcotest.(check bool) "empty ok" true (lin [])

let test_sequential_good () =
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 (H.Enq 2) H.Done;
      op ~call:4 ~return:5 H.Deq (H.Got 1);
      op ~call:6 ~return:7 H.Deq (H.Got 2);
      op ~call:8 ~return:9 H.Deq H.Empty;
    ]
  in
  Alcotest.(check bool) "fifo respected" true (lin h)

let test_sequential_wrong_order () =
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 (H.Enq 2) H.Done;
      op ~call:4 ~return:5 H.Deq (H.Got 2) (* LIFO! *);
    ]
  in
  Alcotest.(check bool) "lifo rejected" false (lin h)

let test_sequential_false_empty () =
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 H.Deq H.Empty;
    ]
  in
  Alcotest.(check bool) "empty after enq rejected" false (lin h)

let test_dequeue_of_never_enqueued () =
  let h = [ op ~call:0 ~return:1 H.Deq (H.Got 99) ] in
  Alcotest.(check bool) "phantom value rejected" false (lin h)

let test_concurrent_flexibility () =
  (* Two overlapping enqueues followed by two dequeues that observe them
     in either order: both response orders must be accepted. *)
  let base got1 got2 =
    [
      op ~thread:0 ~call:0 ~return:3 (H.Enq 1) H.Done;
      op ~thread:1 ~call:1 ~return:2 (H.Enq 2) H.Done;
      op ~thread:0 ~call:4 ~return:5 H.Deq (H.Got got1);
      op ~thread:0 ~call:6 ~return:7 H.Deq (H.Got got2);
    ]
  in
  Alcotest.(check bool) "order 1,2 ok" true (lin (base 1 2));
  Alcotest.(check bool) "order 2,1 ok" true (lin (base 2 1))

let test_real_time_order_enforced () =
  (* enq(1) completes strictly before enq(2) begins, so deq order 2,1 is
     NOT allowed — the same responses as above, minus the overlap. *)
  let h =
    [
      op ~thread:0 ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~thread:1 ~call:2 ~return:3 (H.Enq 2) H.Done;
      op ~thread:0 ~call:4 ~return:5 H.Deq (H.Got 2);
      op ~thread:0 ~call:6 ~return:7 H.Deq (H.Got 1);
    ]
  in
  Alcotest.(check bool) "real-time order enforced" false (lin h)

let test_concurrent_empty () =
  (* A dequeue overlapping an enqueue may legitimately report empty. *)
  let h =
    [
      op ~thread:0 ~call:0 ~return:3 (H.Enq 1) H.Done;
      op ~thread:1 ~call:1 ~return:2 H.Deq H.Empty;
      op ~thread:1 ~call:4 ~return:5 H.Deq (H.Got 1);
    ]
  in
  Alcotest.(check bool) "overlapping empty ok" true (lin h)

let test_duplicate_delivery_rejected () =
  let h =
    [
      op ~thread:0 ~call:0 ~return:1 (H.Enq 7) H.Done;
      op ~thread:0 ~call:2 ~return:3 H.Deq (H.Got 7);
      op ~thread:1 ~call:4 ~return:5 H.Deq (H.Got 7);
    ]
  in
  Alcotest.(check bool) "element delivered twice rejected" false (lin h)

let test_witness_order_is_valid () =
  let h =
    [
      op ~thread:0 ~call:0 ~return:5 (H.Enq 1) H.Done;
      op ~thread:1 ~call:1 ~return:4 (H.Enq 2) H.Done;
      op ~thread:2 ~call:2 ~return:3 H.Deq (H.Got 2);
    ]
  in
  match C.check h with
  | C.Not_linearizable -> Alcotest.fail "expected linearizable"
  | C.Linearizable order ->
      Alcotest.(check int) "witness covers all ops" (List.length h)
        (List.length order);
      (* Replaying the witness sequentially must satisfy the spec. *)
      let q = Queue.create () in
      List.iter
        (fun (c : H.completed) ->
          match (c.op, c.response) with
          | H.Enq v, H.Done -> Queue.push v q
          | H.Deq, H.Got v ->
              Alcotest.(check (option int)) "witness deq" (Some v)
                (Queue.take_opt q)
          | H.Deq, H.Empty ->
              Alcotest.(check bool) "witness empty" true (Queue.is_empty q)
          | _ -> Alcotest.fail "malformed witness op")
        order

(* ------------------------ bounded spec -------------------------- *)

let test_bounded_reject_at_capacity () =
  (* Full queue rejects: legal exactly at the bounded capacity. *)
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 (H.Enq 2) H.Rejected;
    ]
  in
  Alcotest.(check bool) "rejection at capacity 1 accepted" true
    (lin ~capacity:1 h);
  Alcotest.(check bool) "rejection below capacity 2 non-linearizable" false
    (lin ~capacity:2 h)

let test_bounded_done_over_capacity () =
  (* Accepting past the bound is as wrong as rejecting under it. *)
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 (H.Enq 2) H.Done;
    ]
  in
  Alcotest.(check bool) "second Done breaks capacity 1" false
    (lin ~capacity:1 h);
  Alcotest.(check bool) "fine at capacity 2" true (lin ~capacity:2 h)

let test_bounded_reject_then_reuse () =
  (* Reject while full, dequeue, then the slot is insertable again. *)
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 (H.Enq 2) H.Rejected;
      op ~call:4 ~return:5 H.Deq (H.Got 1);
      op ~call:6 ~return:7 (H.Enq 3) H.Done;
      op ~call:8 ~return:9 H.Deq (H.Got 3);
    ]
  in
  Alcotest.(check bool) "reject / drain / reuse" true (lin ~capacity:1 h)

let test_bounded_reject_overlapping_deq () =
  (* The rejecting enqueue overlaps the dequeue that empties the queue:
     it may linearize before the removal (full -> Rejected is legal),
     even though after the removal there is room. *)
  let h =
    [
      op ~thread:0 ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~thread:0 ~call:2 ~return:5 H.Deq (H.Got 1);
      op ~thread:1 ~call:3 ~return:4 (H.Enq 2) H.Rejected;
    ]
  in
  Alcotest.(check bool) "overlapping rejection accepted" true
    (lin ~capacity:1 h);
  (* Sequentially after the dequeue, the same rejection is a bug. *)
  let h_seq =
    [
      op ~thread:0 ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~thread:0 ~call:2 ~return:3 H.Deq (H.Got 1);
      op ~thread:1 ~call:4 ~return:5 (H.Enq 2) H.Rejected;
    ]
  in
  Alcotest.(check bool) "rejection on empty queue rejected" false
    (lin ~capacity:1 h_seq)

let test_rejected_without_capacity () =
  (* Unbounded queues never reject: any Rejected response without
     ~capacity is non-linearizable, however plausible the schedule. *)
  let h = [ op ~call:0 ~return:1 (H.Enq 1) H.Rejected ] in
  Alcotest.(check bool) "Rejected under unbounded spec" false (lin h)

let test_rejected_dequeue_malformed () =
  (* Rejected is an enqueue response; on a dequeue it is malformed even
     under the bounded spec. *)
  let h =
    [
      op ~call:0 ~return:1 (H.Enq 1) H.Done;
      op ~call:2 ~return:3 H.Deq H.Rejected;
    ]
  in
  Alcotest.(check bool) "Deq/Rejected rejected (bounded)" false
    (lin ~capacity:1 h);
  Alcotest.(check bool) "Deq/Rejected rejected (unbounded)" false (lin h)

let test_size_guard () =
  let h =
    List.init 63 (fun i -> op ~call:(2 * i) ~return:((2 * i) + 1) (H.Enq i) H.Done)
  in
  Alcotest.check_raises "over 62 ops rejected"
    (Invalid_argument "Checker.check: histories over 62 operations not supported")
    (fun () -> ignore (C.check h))

(* --------------------------- recorder --------------------------- *)

let test_history_recorder () =
  let h = H.create () in
  H.call h ~thread:0 (H.Enq 5);
  Alcotest.(check bool) "pending registered" true (H.has_pending h);
  H.return h ~thread:0 H.Done;
  H.call h ~thread:1 H.Deq;
  H.return h ~thread:1 (H.Got 5);
  let completed = H.completed h in
  Alcotest.(check int) "two completed" 2 (List.length completed);
  Alcotest.(check bool) "no pending left" false (H.has_pending h);
  Alcotest.(check bool) "recorded history linearizable" true (lin completed);
  (* intervals are well-formed and ordered *)
  List.iter
    (fun (c : H.completed) ->
      Alcotest.(check bool) "call < return" true (c.call < c.return))
    completed

let test_history_recorder_errors () =
  let h = H.create () in
  Alcotest.check_raises "return without call"
    (Invalid_argument "History.return: no pending call for thread")
    (fun () -> H.return h ~thread:3 H.Done)

(* -------------------------- batch spec -------------------------- *)

(* Batch operations are recorded as per-element sub-ops sharing the
   batch's real-time window: increasing call ticks (the intra-batch
   order) and one shared return tick. The checker's per-thread
   program-order constraint is what pins intra-batch FIFO — these
   histories would all be linearizable under the interval rule alone. *)

let batch_enq thread ~call ~return vs =
  List.mapi
    (fun i v -> op ~thread ~call:(call + i) ~return (H.Enq v) H.Done)
    vs

let test_batch_fifo_accepted () =
  (* enqueue_batch [1;2] then dequeues observing batch order *)
  let h =
    batch_enq 0 ~call:0 ~return:2 [ 1; 2 ]
    @ [
        op ~thread:1 ~call:3 ~return:4 H.Deq (H.Got 1);
        op ~thread:1 ~call:5 ~return:6 H.Deq (H.Got 2);
      ]
  in
  Alcotest.(check bool) "batch order observed" true (lin h)

let test_batch_fifo_violation_rejected () =
  (* Same window, dequeues observing the batch in REVERSE order: the
     sub-ops overlap in real time, so only the program-order constraint
     can reject this. *)
  let h =
    batch_enq 0 ~call:0 ~return:2 [ 1; 2 ]
    @ [
        op ~thread:1 ~call:3 ~return:4 H.Deq (H.Got 2);
        op ~thread:1 ~call:5 ~return:6 H.Deq (H.Got 1);
      ]
  in
  Alcotest.(check bool) "intra-batch reorder rejected" false (lin h)

let test_batch_exactly_once () =
  (* One batch element delivered twice: conservation inside the spec. *)
  let h =
    batch_enq 0 ~call:0 ~return:2 [ 1; 2 ]
    @ [
        op ~thread:1 ~call:3 ~return:4 H.Deq (H.Got 1);
        op ~thread:1 ~call:5 ~return:6 H.Deq (H.Got 1);
      ]
  in
  Alcotest.(check bool) "duplicate batch element rejected" false (lin h)

let test_batches_interleave_across_threads () =
  (* Two concurrent batches may interleave with each other at batch
     granularity — only the order WITHIN each batch is pinned. *)
  let deqs got =
    List.mapi
      (fun i v ->
        op ~thread:2 ~call:(10 + (2 * i)) ~return:(11 + (2 * i)) H.Deq
          (H.Got v))
      got
  in
  let both =
    batch_enq 0 ~call:0 ~return:4 [ 1; 2 ] @ batch_enq 1 ~call:1 ~return:4 [ 3; 4 ]
  in
  Alcotest.(check bool) "interleaved batches ok" true
    (lin (both @ deqs [ 1; 3; 2; 4 ]));
  Alcotest.(check bool) "intra-batch order still pinned" false
    (lin (both @ deqs [ 2; 3; 1; 4 ]))

let test_batch_partial_reject_on_full () =
  (* A bounded batch accepts a prefix and rejects the rest at one full
     observation: Done then Rejected is legal exactly at capacity 1. *)
  let h =
    [
      op ~thread:0 ~call:0 ~return:2 (H.Enq 1) H.Done;
      op ~thread:0 ~call:1 ~return:2 (H.Enq 2) H.Rejected;
    ]
  in
  Alcotest.(check bool) "partial batch at capacity 1" true
    (lin ~capacity:1 h);
  Alcotest.(check bool) "rejection below capacity 2 rejected" false
    (lin ~capacity:2 h);
  Alcotest.(check bool) "rejection under unbounded spec rejected" false
    (lin h)

let test_batch_short_dequeue_empty_suffix () =
  (* A short batch dequeue answers Empty for its unserved suffix; all
     the Empties can share the one observed-empty point. *)
  let h =
    batch_enq 0 ~call:0 ~return:2 [ 1; 2 ]
    @ [
        op ~thread:1 ~call:3 ~return:7 H.Deq (H.Got 1);
        op ~thread:1 ~call:4 ~return:7 H.Deq (H.Got 2);
        op ~thread:1 ~call:5 ~return:7 H.Deq H.Empty;
        op ~thread:1 ~call:6 ~return:7 H.Deq H.Empty;
      ]
  in
  Alcotest.(check bool) "short batch Empty suffix ok" true (lin h);
  (* An Empty BEFORE a Got in the same batch is a FIFO violation of the
     batch dequeue itself: the suffix observed empty, then a later
     sub-op got a value that was already there. *)
  let bad =
    batch_enq 0 ~call:0 ~return:2 [ 1 ]
    @ [
        op ~thread:1 ~call:3 ~return:5 H.Deq H.Empty;
        op ~thread:1 ~call:4 ~return:5 H.Deq (H.Got 1);
      ]
  in
  Alcotest.(check bool) "Empty before Got within batch rejected" false
    (lin bad)

let test_batch_recorder () =
  let h = H.create () in
  H.call_batch h ~thread:0 [ H.Enq 1; H.Enq 2; H.Enq 3 ];
  Alcotest.(check bool) "batch pending" true (H.has_pending h);
  H.return_batch h ~thread:0 [ H.Done; H.Done; H.Done ];
  H.call_batch h ~thread:1 [ H.Deq; H.Deq ];
  H.return_batch h ~thread:1 [ H.Got 1; H.Got 2 ];
  let completed = H.completed h in
  Alcotest.(check int) "five sub-ops" 5 (List.length completed);
  Alcotest.(check bool) "no pending left" false (H.has_pending h);
  Alcotest.(check bool) "recorded batch history linearizable" true
    (lin completed);
  (* Sub-ops of one batch share a return tick and carry increasing call
     ticks (their intra-batch order). *)
  let enqs =
    List.filter (fun (c : H.completed) -> c.thread = 0) completed
  in
  (match enqs with
  | [ a; b; c ] ->
      Alcotest.(check bool) "calls increase" true
        (a.call < b.call && b.call < c.call);
      Alcotest.(check bool) "returns shared" true
        (a.return = b.return && b.return = c.return)
  | _ -> Alcotest.fail "expected three enqueue sub-ops");
  Alcotest.check_raises "response count mismatch"
    (Invalid_argument "History.return_batch: response count mismatch")
    (fun () ->
      H.call_batch h ~thread:2 [ H.Deq; H.Deq ];
      H.return_batch h ~thread:2 [ H.Empty ])

(* ---------------------- qcheck properties ----------------------- *)

(* Independent oracle: enumerate ALL permutations of the operations
   (histories are kept tiny), keep those compatible with real-time
   precedence (if op a returned before op b was invoked, a must precede
   b), and replay each against the model queue. Shares no code or search
   strategy with the memoized Wing-Gong checker. *)
let brute_force (ops : H.completed list) =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
        (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x rest)
  in
  let rec permutations = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insert_everywhere x) (permutations rest)
  in
  let respects_precedence order =
    let arr = Array.of_list order in
    let ok = ref true in
    Array.iteri
      (fun i (a : H.completed) ->
        Array.iteri
          (fun j (b : H.completed) ->
            if i < j && b.return < a.call then ok := false)
          arr)
      arr;
    !ok
  in
  let replays order =
    let q = Queue.create () in
    List.for_all
      (fun (c : H.completed) ->
        match (c.op, c.response) with
        | H.Enq v, H.Done ->
            Queue.push v q;
            true
        | H.Deq, H.Got v -> Queue.take_opt q = Some v
        | H.Deq, H.Empty -> Queue.is_empty q
        | _ -> false)
      order
  in
  List.exists
    (fun order -> respects_precedence order && replays order)
    (permutations ops)

(* Random tiny concurrent histories: per-thread sequential intervals with
   random spacing and arbitrary (often inconsistent) responses. The
   checker must agree with the brute-force oracle on every one. *)
let history_gen =
  QCheck2.Gen.(
    let* threads = int_range 1 3 in
    let* ops_per_thread = int_range 1 2 in
    let* raw =
      list_size
        (return (threads * ops_per_thread))
        (tup3 (int_bound 2) (int_bound 3) (int_bound 4))
    in
    (* Assign ops to threads round-robin; give thread t's k-th op the
       interval [base, base + 1 + gap] with bases spread so intervals
       overlap across threads but stay sequential within one. The
       per-thread clamp enforces the sequentiality: a thread's next
       call strictly follows its previous return, as in any history
       the recorder can produce — the checker's per-thread
       program-order constraint (which restores intra-batch order)
       assumes exactly this well-formedness. *)
    let last_return = Array.make threads (-1) in
    let ops =
      List.mapi
        (fun i (kind, v, gap) ->
          let thread = i mod threads in
          let call =
            max ((i * 2) + (gap mod 3)) (last_return.(thread) + 1)
          in
          let return = call + 1 + gap in
          last_return.(thread) <- return;
          match kind with
          | 0 -> { H.thread; op = H.Enq v; response = H.Done; call; return }
          | 1 ->
              { H.thread; op = H.Deq; response = H.Got v; call; return }
          | _ -> { H.thread; op = H.Deq; response = H.Empty; call; return })
        raw
    in
    return ops)

let checker_agrees_with_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"checker ≡ brute-force oracle" ~count:500
       ~print:(fun ops -> Format.asprintf "%a" C.pp_history ops)
       history_gen
       (fun ops -> lin ops = brute_force ops))

(* Any history generated by running ops sequentially against a real FIFO
   is linearizable. *)
let sequential_histories_linearizable =
  QCheck2.Test.make ~name:"sequential executions are linearizable"
    ~count:300
    QCheck2.Gen.(
      list_size (int_bound 30)
        (oneof [ map (fun v -> `Enq v) (int_bound 100); return `Deq ]))
    (fun script ->
      let h = H.create () in
      let q = Queue.create () in
      List.iter
        (fun cmd ->
          match cmd with
          | `Enq v ->
              H.call h ~thread:0 (H.Enq v);
              Queue.push v q;
              H.return h ~thread:0 H.Done
          | `Deq -> (
              H.call h ~thread:0 H.Deq;
              match Queue.take_opt q with
              | Some v -> H.return h ~thread:0 (H.Got v)
              | None -> H.return h ~thread:0 H.Empty))
        script;
      lin (H.completed h))

(* Corrupting one dequeue response of a valid sequential history with a
   value that was never enqueued must break linearizability. *)
let corrupted_histories_rejected =
  QCheck2.Test.make ~name:"phantom-value corruption is detected" ~count:200
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let ops =
        List.concat
          (List.init n (fun i ->
               [
                 op ~call:(4 * i) ~return:((4 * i) + 1) (H.Enq i) H.Done;
                 op ~call:((4 * i) + 2) ~return:((4 * i) + 3) H.Deq
                   (H.Got (if i = n - 1 then 777777 else i));
               ]))
      in
      not (lin ops))

(* Thread-safe recording on real domains: concurrent operations against
   the mutex queue recorded with the locked recorder must produce a
   linearizable history (the lock coarsens intervals but keeps the check
   sound). *)
let test_thread_safe_recording () =
  let module Mq = Mutex_queue in
  let h = H.create ~thread_safe:true () in
  let q = Mq.create ~num_threads:3 () in
  let worker thread () =
    for i = 1 to 8 do
      if i mod 2 = 1 then begin
        H.call h ~thread (H.Enq ((thread * 100) + i));
        Mq.enqueue q ~tid:thread ((thread * 100) + i);
        H.return h ~thread H.Done
      end
      else begin
        H.call h ~thread H.Deq;
        match Mq.dequeue q ~tid:thread with
        | Some v -> H.return h ~thread (H.Got v)
        | None -> H.return h ~thread H.Empty
      end
    done
  in
  let ds = List.init 3 (fun t -> Domain.spawn (worker t)) in
  List.iter Domain.join ds;
  let completed = H.completed h in
  Alcotest.(check int) "all recorded" 24 (List.length completed);
  Alcotest.(check bool) "real-domain history linearizable" true
    (lin completed)

let () =
  Alcotest.run "lincheck"
    [
      ( "checker",
        [
          Alcotest.test_case "empty history" `Quick test_empty_history;
          Alcotest.test_case "sequential FIFO accepted" `Quick
            test_sequential_good;
          Alcotest.test_case "LIFO rejected" `Quick
            test_sequential_wrong_order;
          Alcotest.test_case "false empty rejected" `Quick
            test_sequential_false_empty;
          Alcotest.test_case "phantom value rejected" `Quick
            test_dequeue_of_never_enqueued;
          Alcotest.test_case "overlap permits both orders" `Quick
            test_concurrent_flexibility;
          Alcotest.test_case "real-time order enforced" `Quick
            test_real_time_order_enforced;
          Alcotest.test_case "overlapping empty accepted" `Quick
            test_concurrent_empty;
          Alcotest.test_case "duplicate delivery rejected" `Quick
            test_duplicate_delivery_rejected;
          Alcotest.test_case "witness order replays" `Quick
            test_witness_order_is_valid;
          Alcotest.test_case "size guard" `Quick test_size_guard;
        ] );
      ( "bounded spec",
        [
          Alcotest.test_case "reject legal only at capacity" `Quick
            test_bounded_reject_at_capacity;
          Alcotest.test_case "accept illegal over capacity" `Quick
            test_bounded_done_over_capacity;
          Alcotest.test_case "reject / drain / reuse" `Quick
            test_bounded_reject_then_reuse;
          Alcotest.test_case "overlapping rejection" `Quick
            test_bounded_reject_overlapping_deq;
          Alcotest.test_case "Rejected without capacity" `Quick
            test_rejected_without_capacity;
          Alcotest.test_case "Rejected dequeue malformed" `Quick
            test_rejected_dequeue_malformed;
        ] );
      ( "batch spec",
        [
          Alcotest.test_case "intra-batch FIFO accepted" `Quick
            test_batch_fifo_accepted;
          Alcotest.test_case "intra-batch reorder rejected" `Quick
            test_batch_fifo_violation_rejected;
          Alcotest.test_case "exactly-once per element" `Quick
            test_batch_exactly_once;
          Alcotest.test_case "batches interleave across threads" `Quick
            test_batches_interleave_across_threads;
          Alcotest.test_case "partial batch Rejected on full" `Quick
            test_batch_partial_reject_on_full;
          Alcotest.test_case "short batch Empty suffix" `Quick
            test_batch_short_dequeue_empty_suffix;
          Alcotest.test_case "batch recorder" `Quick test_batch_recorder;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "records calls and returns" `Quick
            test_history_recorder;
          Alcotest.test_case "rejects unmatched return" `Quick
            test_history_recorder_errors;
          Alcotest.test_case "thread-safe recording on domains" `Quick
            test_thread_safe_recording;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest sequential_histories_linearizable;
          QCheck_alcotest.to_alcotest corrupted_histories_rejected;
          checker_agrees_with_brute_force;
        ] );
    ]
