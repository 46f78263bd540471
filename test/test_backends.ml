(* The registry-driven conformance battery (docs/BACKENDS.md): every
   backend registered in Wfq_core.Backends automatically runs

   - the sequential suite (fifo basics, empty-dequeue stability,
     drain/refill, differential vs Stdlib.Queue),
   - a real-domains pairs stress,
   - the (bounded-aware) lincheck litmus under the model checker, and
   - the batch lincheck spec,

   replacing the hand-maintained per-backend row lists the concurrent
   test file used to carry. A new backend gets all of this from its one
   registry entry; nothing here names a backend. *)

module Q = Wfq_core.Queue_intf
module B = Wfq_core.Backends
module SA = Wfq_sim.Sim_atomic
module Ck = Wfq_sim.Check

let backends = B.all
let bid (module Bk : Q.BACKEND) = Bk.id

(* ------------------------------------------------------------------ *)
(* Registry sanity *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let ids = B.ids in
  Alcotest.(check bool) "non-empty" true (ids <> []);
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "ids unique" (List.length ids) (List.length sorted);
  List.iter
    (fun id -> Alcotest.(check string) "find roundtrip" id (bid (B.find id)))
    ids;
  Alcotest.(check bool) "polylog registered" true (List.mem "polylog" ids)

(* The registry is a static list, so these are the checks a
   registration-time guard would make: no two entries share an id or a
   bench label, and an unknown id is refused with the known ones. *)
let test_registry_invariants () =
  let unique what l =
    Alcotest.(check int) (what ^ " unique") (List.length l)
      (List.length (List.sort_uniq compare l))
  in
  unique "ids" (List.map bid backends);
  unique "labels" (List.map (fun (module Bk : Q.BACKEND) -> Bk.label) backends);
  Alcotest.(check (list string)) "ids in registry order"
    (List.map bid backends) B.ids;
  Alcotest.check_raises "unknown id names the known ones"
    (Invalid_argument
       (Printf.sprintf "Backends.find: unknown backend %S (known: %s)"
          "no-such" (String.concat ", " B.ids)))
    (fun () -> ignore (B.find "no-such"))

(* ------------------------------------------------------------------ *)
(* Sequential suite (real atomics, one thread) *)
(* ------------------------------------------------------------------ *)

let test_seq_fifo bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  Alcotest.(check bool) "fresh empty" true (i.Q.empty ());
  Alcotest.(check (option int)) "deq on empty" None (i.Q.deq ~tid:0);
  List.iter (fun v -> i.Q.enq ~tid:0 v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 5 (i.Q.size ());
  Alcotest.(check (list int)) "contents" [ 1; 2; 3; 4; 5 ] (i.Q.dump ());
  Alcotest.(check (option int)) "fifo" (Some 1) (i.Q.deq ~tid:0);
  Alcotest.(check bool) "try_enq accepts" true (i.Q.try_enq ~tid:0 6);
  Alcotest.(check (list int)) "mixed" [ 2; 3; 4; 5; 6 ] (i.Q.dump ());
  (match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m);
  for v = 2 to 6 do
    Alcotest.(check (option int)) "drain" (Some v) (i.Q.deq ~tid:0)
  done;
  Alcotest.(check (option int)) "empty again" None (i.Q.deq ~tid:0)

let test_seq_empty_runs bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  for _ = 1 to 10 do
    Alcotest.(check (option int)) "still empty" None (i.Q.deq ~tid:0)
  done;
  i.Q.enq ~tid:0 42;
  Alcotest.(check (option int)) "revived" (Some 42) (i.Q.deq ~tid:0)

let test_seq_batches bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  i.Q.enq_batch ~tid:0 [ 1; 2; 3 ];
  i.Q.enq_batch ~tid:0 [];
  Alcotest.(check (list int)) "batch in" [ 1; 2; 3 ] (i.Q.dump ());
  Alcotest.(check (list int)) "batch out" [ 1; 2 ] (i.Q.deq_batch ~tid:0 ~n:2);
  Alcotest.(check (list int)) "short out" [ 3 ] (i.Q.deq_batch ~tid:0 ~n:5);
  match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m

let test_seq_differential bk () =
  let i : int Q.instance = B.instantiate bk ~num_threads:1 () in
  let model = Queue.create () in
  let rng = Wfq_primitives.Rng.create ~seed:23 in
  for v = 1 to 800 do
    if Wfq_primitives.Rng.bool rng then begin
      (* [try_enq] keeps bounded backends honest if a configuration
         ever registers a capacity smaller than this run. *)
      if i.Q.try_enq ~tid:0 v then Queue.push v model
    end
    else if i.Q.deq ~tid:0 <> Queue.take_opt model then
      Alcotest.failf "diverged from model at op %d" v
  done;
  Alcotest.(check (list int))
    "final contents"
    (List.of_seq (Queue.to_seq model))
    (i.Q.dump ())

(* ------------------------------------------------------------------ *)
(* Real domains: pairs stress *)
(* ------------------------------------------------------------------ *)

let test_domains bk () =
  let threads = 4 and iters = 1_500 in
  let i : int Q.instance = B.instantiate bk ~num_threads:threads () in
  let empties = Atomic.make 0 in
  let ds =
    List.init threads (fun tid ->
        Domain.spawn (fun () ->
            for n = 1 to iters do
              i.Q.enq ~tid ((tid * iters) + n);
              match i.Q.deq ~tid with
              | Some _ -> ()
              | None -> Atomic.incr empties
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no empties in pairs" 0 (Atomic.get empties);
  Alcotest.(check int) "drained" 0 (i.Q.size ());
  match i.Q.check () with Ok () -> () | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Model-checked lincheck litmuses (sim-safe backends) *)
(* ------------------------------------------------------------------ *)

let sim_ops bk : int Q.instance Ck.ops =
  {
    Ck.create =
      (fun ~num_threads -> B.instantiate_with (module SA) bk ~num_threads ());
    enqueue = (fun i ~tid v -> i.Q.enq ~tid v);
    dequeue = (fun i ~tid -> i.Q.deq ~tid);
    contents = (fun i -> i.Q.dump ());
  }

let run_battery_litmus (module Bk : Q.BACKEND) scripts =
  Ck.run ~mode:Ck.Dpor ~max_schedules:300_000
    ?capacity:Bk.capacity
    ~try_enqueue:(fun i ~tid v -> i.Q.try_enq ~tid v)
    ~enqueue_batch:(fun i ~tid vs -> i.Q.enq_batch ~tid vs)
    ~dequeue_batch:(fun i ~tid ~n -> i.Q.deq_batch ~tid ~n)
    ~extra_check:(fun i -> i.Q.check ())
    ~queue:(sim_ops (module Bk))
    ~scripts ()

let expect_clean name (r : Ck.report) =
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "%s: %a" name Ck.pp_failure f);
  Alcotest.(check bool) (name ^ ": exhausted") true r.Ck.exhausted

let test_lincheck (module Bk : Q.BACKEND) () =
  expect_clean Bk.id
    (run_battery_litmus (module Bk) [ [ `Enq 1 ]; [ `Deq ] ])

let test_lincheck_batch (module Bk : Q.BACKEND) () =
  expect_clean (Bk.id ^ " batch")
    (run_battery_litmus (module Bk)
       [ [ `Enq_batch [ 1; 2 ] ]; [ `Deq_batch 2 ] ])

(* ------------------------------------------------------------------ *)

let per_backend mk label =
  List.map
    (fun bk -> Alcotest.test_case (bid bk ^ " " ^ label) `Quick (mk bk))
    backends

let sim_backends =
  List.filter (fun (module Bk : Q.BACKEND) -> Bk.sim_safe) backends

let per_sim_backend mk label =
  List.map
    (fun bk -> Alcotest.test_case (bid bk ^ " " ^ label) `Quick (mk bk))
    sim_backends

let () =
  Alcotest.run "backend-battery"
    [
      ( "registry",
        [
          Alcotest.test_case "sanity" `Quick test_registry;
          Alcotest.test_case "invariants" `Quick test_registry_invariants;
        ] );
      ( "sequential",
        per_backend test_seq_fifo "fifo"
        @ per_backend test_seq_empty_runs "empty runs"
        @ per_backend test_seq_batches "batches"
        @ per_backend test_seq_differential "differential" );
      ("domains", per_backend test_domains "pairs");
      ( "lincheck",
        per_sim_backend test_lincheck "enq|deq"
        @ per_sim_backend test_lincheck_batch "batch spec" );
    ]
