(* Tests specific to the hazard-pointer KP queue: reclamation really
   happens, recycled nodes are really reused, and none of it breaks the
   queue semantics — including under domain concurrency with a pool small
   enough to force constant recycling. *)

module A = Wfq_primitives.Real_atomic
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)
module Hp = Kp_hp.Hp

let test_reclamation_happens () =
  let q = Kp_hp.create ~scan_threshold:8 ~num_threads:1 () in
  for i = 1 to 1000 do
    Kp_hp.enqueue q ~tid:0 i;
    ignore (Kp_hp.dequeue q ~tid:0)
  done;
  let stats = Kp_hp.reclamation_stats q in
  Alcotest.(check bool)
    (Printf.sprintf "retired (%d) close to op count" stats.Hp.retired)
    true
    (stats.Hp.retired >= 990);
  Alcotest.(check bool)
    (Printf.sprintf "most retirees freed (%d)" stats.Hp.freed)
    true
    (stats.Hp.freed >= stats.Hp.retired - 16)

let test_nodes_are_reused () =
  let q = Kp_hp.create ~scan_threshold:4 ~num_threads:1 () in
  for i = 1 to 500 do
    Kp_hp.enqueue q ~tid:0 i;
    ignore (Kp_hp.dequeue q ~tid:0)
  done;
  let reused, fresh, _pooled = Kp_hp.pool_stats q in
  Alcotest.(check bool)
    (Printf.sprintf "alloc mostly from pool (fresh %d, reused %d)" fresh
       reused)
    true
    (reused > fresh);
  (* Steady state allocates almost nothing fresh. *)
  Alcotest.(check bool) "bounded fresh allocations" true (fresh < 64)

let test_flush_reclaims_tail () =
  let q = Kp_hp.create ~scan_threshold:1_000_000 ~num_threads:1 () in
  for i = 1 to 100 do
    Kp_hp.enqueue q ~tid:0 i;
    ignore (Kp_hp.dequeue q ~tid:0)
  done;
  let before = Kp_hp.reclamation_stats q in
  Alcotest.(check int) "scan never triggered" 0 before.Hp.freed;
  Kp_hp.flush_reclamation q;
  let after = Kp_hp.reclamation_stats q in
  Alcotest.(check bool) "flush freed the backlog" true
    (after.Hp.freed >= 99)

let test_values_survive_recycling () =
  (* FIFO delivery with aggressive recycling: any stale-node bug shows as
     a wrong or duplicated value. *)
  let q = Kp_hp.create ~scan_threshold:2 ~num_threads:1 () in
  let window = 16 in
  for i = 1 to window do
    Kp_hp.enqueue q ~tid:0 i
  done;
  for i = 1 to 2_000 do
    Kp_hp.enqueue q ~tid:0 (window + i);
    match Kp_hp.dequeue q ~tid:0 with
    | Some v -> Alcotest.(check int) "strict FIFO" i v
    | None -> Alcotest.fail "unexpected empty"
  done

let test_empty_dequeue_with_reclamation () =
  let q = Kp_hp.create ~scan_threshold:2 ~num_threads:2 () in
  Alcotest.(check (option int)) "empty" None (Kp_hp.dequeue q ~tid:0);
  Kp_hp.enqueue q ~tid:1 7;
  Alcotest.(check (option int)) "single" (Some 7) (Kp_hp.dequeue q ~tid:0);
  Alcotest.(check (option int)) "empty again" None (Kp_hp.dequeue q ~tid:1);
  Kp_hp.enqueue q ~tid:0 8;
  Alcotest.(check (option int)) "usable after empties" (Some 8)
    (Kp_hp.dequeue q ~tid:1)

(* Domain stress with a tiny scan threshold: cross-thread recycling
   under real concurrency. Every domain both enqueues and dequeues (the
   pairs pattern), so the threads that retire nodes also allocate —
   exercising genuine pool reuse. (With disjoint producer/consumer roles
   the per-thread pools would fill on the consumer side only, a
   documented property of thread-local pooling.) Conservation proves no
   node was recycled while still visible to another thread. *)
let test_domains_with_forced_recycling () =
  let threads = 4 and per = 5_000 in
  let q = Kp_hp.create ~scan_threshold:4 ~num_threads:threads () in
  let total = threads * per in
  let logs = Array.make threads [] in
  let encode p s = (p * 1_000_000) + s in
  let worker tid () =
    let acc = ref [] in
    for s = 1 to per do
      Kp_hp.enqueue q ~tid (encode tid s);
      match Kp_hp.dequeue q ~tid with
      | Some v -> acc := v :: !acc
      | None -> Alcotest.fail "impossible empty in pairs pattern"
    done;
    logs.(tid) <- !acc
  in
  let ds = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  let seen = Hashtbl.create total in
  Array.iter
    (List.iter (fun v ->
         if Hashtbl.mem seen v then
           Alcotest.fail (Printf.sprintf "duplicate value %d" v)
         else Hashtbl.add seen v ()))
    logs;
  Alcotest.(check int) "conservation under recycling" total
    (Hashtbl.length seen);
  let reused, _, _ = Kp_hp.pool_stats q in
  Alcotest.(check bool)
    (Printf.sprintf "recycling occurred (%d reuses)" reused)
    true (reused > 0)

let test_no_unbounded_growth () =
  (* With reclamation the live node count must stay near the queue size,
     not near the op count. *)
  let q = Kp_hp.create ~scan_threshold:16 ~num_threads:1 () in
  for i = 1 to 20_000 do
    Kp_hp.enqueue q ~tid:0 i;
    ignore (Kp_hp.dequeue q ~tid:0)
  done;
  Kp_hp.flush_reclamation q;
  let stats = Kp_hp.reclamation_stats q in
  let outstanding = stats.Hp.retired - stats.Hp.freed in
  Alcotest.(check bool)
    (Printf.sprintf "outstanding retirees bounded (%d)" outstanding)
    true (outstanding <= 64)

let () =
  Alcotest.run "kp-hp"
    [
      ( "reclamation",
        [
          Alcotest.test_case "nodes retired and freed" `Quick
            test_reclamation_happens;
          Alcotest.test_case "pool reuse dominates" `Quick
            test_nodes_are_reused;
          Alcotest.test_case "flush reclaims backlog" `Quick
            test_flush_reclaims_tail;
          Alcotest.test_case "no unbounded growth" `Quick
            test_no_unbounded_growth;
        ] );
      ( "semantics under recycling",
        [
          Alcotest.test_case "strict FIFO with tiny pool" `Quick
            test_values_survive_recycling;
          Alcotest.test_case "empty-queue cases" `Quick
            test_empty_dequeue_with_reclamation;
          Alcotest.test_case "domain stress, forced recycling" `Quick
            test_domains_with_forced_recycling;
        ] );
    ]
