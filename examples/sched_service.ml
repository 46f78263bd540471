(* A miniature service on the effect-based fiber scheduler (Wfq_sched):
   requests fan out into subfibers that hop through the wait-free
   run-queues (spawn, yield, await), and the scheduler's metrics
   registry reports what happened — fibers, steals, run-queue depths,
   per-fiber latency.

   Unlike examples/task_scheduler.ml, which hand-rolls a ready-pool
   loop over one shared queue, this uses the real scheduler: per-domain
   run-queues, steal-on-empty sweeps, and direct-style fiber code via
   effect handlers.

     dune exec examples/sched_service.exe
*)

module Sched = Wfq_sched.Sched
module A = Wfq_primitives.Real_atomic
module Fps_pooled = (val Wfq_core.Backends.find "fps-pooled")
module S = Sched.Make (A) (Sched.Rq_of (Fps_pooled) (A))

let domains = 4
let requests = 100
let fanout = 8

(* Pretend CPU work: hash a range of ints. *)
let hash_range seed n =
  let h = ref seed in
  for i = 1 to n do
    h := (!h + (i * 0x9E3779B1)) lxor (!h lsr 7)
  done;
  !h land 0xFFFF

let () =
  let reg = Wfq_obsv.Metrics.create () in
  let obsv = Sched.metrics reg ~prefix:"svc" ~slots:domains in
  let clock () = Int64.to_int (Monotonic_clock.now ()) in
  let t = S.create ~obsv ~clock ~num_workers:domains () in
  S.register_metrics t reg ~prefix:"svc";

  (* One request: parse, fan out shard lookups, merge, respond. *)
  let handle_request id =
    let _parsed = hash_range id 200 in
    let lookups =
      List.init fanout (fun shard ->
          S.spawn (fun () ->
              S.yield ();
              (* a queue hop, as a real lookup would do *)
              hash_range (id + shard) 300))
    in
    let merged = List.fold_left (fun acc p -> acc + S.await p) 0 lookups in
    hash_range merged 200
  in

  let answers =
    S.run t (fun () ->
        let reqs = List.init requests (fun id -> S.spawn (fun () -> handle_request id)) in
        List.map S.await reqs)
  in

  Printf.printf "served %d requests on %d domains (checksum %d)\n\n"
    (List.length answers) domains
    (List.fold_left ( + ) 0 answers land 0xFFFF);
  Printf.printf "fibers: %d spawned, %d completed; steals: %d won of %d sweeps\n\n"
    (S.fibers_spawned t) (S.fibers_completed t) (S.steals_won t)
    (S.steal_attempts t);
  print_endline "=== scheduler metrics ===";
  Wfq_obsv.Metrics.dump reg stdout
