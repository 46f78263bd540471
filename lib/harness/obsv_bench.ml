(** Observability benchmarking: instrumented multi-domain runs that
    populate a {!Wfq_obsv.Metrics} registry (the [wfq_bench stats]
    backend), and the disabled-vs-enabled overhead guard that keeps the
    instrumentation honest about its "low-overhead" claim.

    Latency histograms and timing runs use the shared monotonic clock
    ({!Clock}, bechamel's raw [@noalloc] ns source) so per-op sampling
    does not allocate and durations survive wall-clock steps; runs are
    timed around a barrier release, like {!Workload}.

    Overhead methodology (docs/OBSERVABILITY.md): for each guarded
    queue, the {e same} benchmark loop runs over a plain queue and over
    a queue constructed with [?obsv] — the only difference is the
    queue-internal instrumentation — run back-to-back in [runs] pairs
    with alternating in-pair order, guarding the median of per-pair
    ratios (noise slower than a pair cancels inside it). Latency
    sampling is {e not} part
    of the enabled configuration: clock reads are a per-call opt-in of
    the stats collector, not of instrumented queues. *)

module RA = Wfq_primitives.Real_atomic
module Sh = Wfq_shard.Shard.Make (RA)
module Obsv = Wfq_obsv

let now_ns = Clock.now_ns

(* A fresh queue of backend [b] on real atomics, its hot-path
   instrumentation and metrics attached under [?obsv]'s prefix, as its
   enqueue and dequeue. *)
let instrumented b ?obsv ~num_threads () =
  let module B = (val b : Wfq_core.Queue_intf.BACKEND) in
  let module Q = B.Make (RA) in
  let q = Q.create ?obsv ~num_threads () in
  (Q.enqueue q, Q.dequeue q)

(* ------------------------------------------------------------------ *)
(* Instrumented collection runs                                       *)
(* ------------------------------------------------------------------ *)

type run_line = {
  queue : string;
  threads : int;
  iters : int;
  seconds : float;
  ops : int;
}

(* Barrier-released pairs loop; each op's latency lands in the caller's
   histograms. [relaxed] retries [None] dequeues (sharded front-end:
   a non-atomic sweep may observe empty while elements are in flight). *)
let timed_pairs ~relaxed ~threads ~iters ~enq ~deq ~h_enq ~h_deq =
  Gc.full_major ();
  let barrier = Barrier.create (threads + 1) in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            Barrier.wait barrier;
            for i = 1 to iters do
              let t0 = now_ns () in
              enq ~tid ((tid * iters) + i);
              Obsv.Histogram.record h_enq ~slot:tid (now_ns () - t0);
              let rec take () =
                let t0 = now_ns () in
                let r = deq ~tid in
                Obsv.Histogram.record h_deq ~slot:tid (now_ns () - t0);
                match r with
                | Some _ -> ()
                | None ->
                    if relaxed then take ()
                    else failwith "obsv_bench: impossible empty dequeue"
              in
              take ()
            done))
  in
  Barrier.wait barrier;
  let t0 = Clock.now_s () in
  Array.iter Domain.join domains;
  Clock.now_s () -. t0

let collect ~threads ~iters () =
  if threads <= 0 || iters <= 0 then invalid_arg "Obsv_bench.collect";
  let reg = Obsv.Metrics.create () in
  let slots = threads + 1 in
  let lines = ref [] in
  let run name ~relaxed ~enq ~deq =
    let h_enq = Obsv.Metrics.histogram reg ~name:(name ^ ".enqueue_ns") ~slots
    and h_deq =
      Obsv.Metrics.histogram reg ~name:(name ^ ".dequeue_ns") ~slots
    in
    let seconds =
      timed_pairs ~relaxed ~threads ~iters ~enq ~deq ~h_enq ~h_deq
    in
    lines :=
      { queue = name; threads; iters; seconds; ops = 2 * threads * iters }
      :: !lines
  in
  (* opt WF (1+2): the phase-lag / help-event / lost-phase-bump story. *)
  let enq, deq =
    instrumented (Wfq_core.Backends.find "kp-opt12") ~obsv:(reg, "kp_opt12")
      ~num_threads:slots ()
  in
  run "kp_opt12" ~relaxed:false ~enq ~deq;
  (* WF fps pooled: fast-path rounds, claim handoffs, pool hit rate. *)
  let enq, deq =
    instrumented
      (Wfq_core.Backends.find "fps-pooled")
      ~obsv:(reg, "fps_pooled") ~num_threads:slots ()
  in
  run "fps_pooled" ~relaxed:false ~enq ~deq;
  (* WF fps with a zero fast budget: every operation takes the slow
     path, so the slow-path-rate metrics are guaranteed non-trivial. *)
  let enq, deq =
    instrumented
      Wfq_core.Backends.(
        make ~id:"fps-slow" ~label:"WF fps mf=0"
          (Fps { fps with max_failures = 0 }))
      ~obsv:(reg, "fps_slow") ~num_threads:slots ()
  in
  run "fps_slow" ~relaxed:false ~enq ~deq;
  (* Sharded front-end, round-robin tickets: per-shard depth and steal
     sweeps (tickets decouple enqueue and dequeue shards, so steals
     happen constantly). *)
  let sh =
    Sh.create ~policy:Wfq_shard.Shard.Round_robin ~shards:4
      ~num_threads:slots ()
  in
  Sh.register_metrics sh reg ~prefix:"shard_rr4";
  run "shard_rr4" ~relaxed:true ~enq:(Sh.enqueue sh) ~deq:(Sh.dequeue sh);
  (* The balanced pairs loop can leave the enqueue and dequeue ticket
     streams aligned (every dequeue starts at the shard just enqueued
     to), reporting zero steals — misleading for a front-end whose whole
     point is steal-on-empty. Force the behaviour deterministically: one
     dequeue on the empty queue records an empty sweep and advances the
     dequeue ticket alone, so every following pair starts its dequeue
     one shard behind its enqueue and must steal. *)
  assert (Sh.dequeue sh ~tid:0 = None);
  for i = 1 to 64 do
    Sh.enqueue sh ~tid:0 i;
    assert (Sh.dequeue sh ~tid:0 <> None)
  done;
  (* Registry churn: the exact-total acquisition counter. *)
  let rg = Wfq_registry.Registry.create ~capacity:slots in
  Wfq_registry.Registry.register_metrics rg reg ~prefix:"registry";
  let rounds = max 1 (iters / 10) in
  let barrier = Barrier.create (threads + 1) in
  let domains =
    Array.init threads (fun _ ->
        Domain.spawn (fun () ->
            Barrier.wait barrier;
            for _ = 1 to rounds do
              Wfq_registry.Registry.with_tid rg (fun (_ : int) -> ())
            done))
  in
  Barrier.wait barrier;
  Array.iter Domain.join domains;
  (reg, List.rev !lines)

(* ------------------------------------------------------------------ *)
(* Overhead guard                                                     *)
(* ------------------------------------------------------------------ *)

type overhead = {
  oh_queue : string;
  disabled_ns_per_op : float;
  enabled_ns_per_op : float;
  ratio : float;
}

let overhead_budget = 1.02
let overhead_backends = [ ("kp_opt12", "kp-opt12"); ("fps", "fps") ]
let overhead_queues = List.map fst overhead_backends

(* Minimum over chunks: external noise (timer interrupts, co-tenants,
   GC pauses) is strictly additive, so the per-side minimum estimates
   intrinsic per-op cost. *)
let best l = List.fold_left min infinity l

(* Even-count median averages the middle pair: the guard runs an equal
   number of disabled-first and enabled-first rounds, and picking the
   upper-middle element alone would bias the statistic toward whichever
   in-pair order is systematically slower second. *)
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let measure_overhead ~iters ~runs () =
  if iters <= 0 || runs <= 0 then
    invalid_arg "Obsv_bench.measure_overhead";
  (* The instrumentation is thread-local by construction — single-writer
     padded cells, no shared-cache traffic — so its per-op cost is a
     sequential quantity. Measure it on one domain, in-process: no
     Domain.spawn per sample, no scheduler, just two persistently
     warmed queues (one plain, one instrumented, both aging at the same
     rate) timed over back-to-back chunk pairs with alternating in-pair
     order. The guarded statistic is the median of per-pair ratios:
     noise slower than a pair cancels inside it, spikes faster than a
     pair are outvoted. Per-side aggregates (mean, median, even min of
     separate multi-domain runs) do not converge on a shared 1-core
     host; this does. *)
  let slots = 2 and tid = 0 in
  let chunk ~enq ~deq () =
    let t0 = now_ns () in
    for i = 1 to iters do
      enq ~tid i;
      ignore (deq ~tid : int option)
    done;
    float_of_int (now_ns () - t0)
  in
  (* The throwaway registry receives the enabled side's metrics;
     nothing reads it — the cost under test is the write path. *)
  let queue id obsv =
    let obsv = if obsv then Some (Obsv.Metrics.create (), id) else None in
    let enq, deq =
      instrumented (Wfq_core.Backends.find id) ?obsv ~num_threads:slots ()
    in
    chunk ~enq ~deq
  in
  let guard name mk =
    let disabled = mk false and enabled = mk true in
    (* Warm both queues (and the code paths) before recording. *)
    ignore (disabled () : float);
    ignore (enabled () : float);
    Gc.full_major ();
    let doff = ref [] and don_ = ref [] and ratios = ref [] in
    for r = 1 to runs do
      let d, e =
        if r land 1 = 1 then begin
          let d = disabled () in
          (d, enabled ())
        end
        else begin
          let e = enabled () in
          (disabled (), e)
        end
      in
      doff := d :: !doff;
      don_ := e :: !don_;
      ratios := (e /. d) :: !ratios
    done;
    let ops = float_of_int (2 * iters) in
    { oh_queue = name;
      disabled_ns_per_op = best !doff /. ops;
      enabled_ns_per_op = best !don_ /. ops;
      ratio = median !ratios }
  in
  List.map (fun (name, id) -> guard name (queue id)) overhead_backends
