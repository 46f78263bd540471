(** First-class-module registry of the benchmarked queue algorithms,
    specialized to [int] payloads as in the paper ("we assume the queue
    stores integer values").

    Series names match the paper's figure legends. *)

module A = Wfq_primitives.Real_atomic
module Ms = Wfq_core.Ms_queue.Make (A)
module Lms = Wfq_core.Lms_queue.Make (A)
module Uq = Wfq_universal.Universal.Queue (A)
module Fc = Wfq_core.Fc_queue.Make (A)
module Kp = Wfq_core.Kp_queue.Make (A)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)
module Fps = Wfq_core.Kp_queue_fps.Make (A)
module Rg = Wfq_core.Ring_queue.Make (A)

module type BENCH_QUEUE = sig
  type t

  val name : string
  val create : num_threads:int -> t
  val enqueue : t -> tid:int -> int -> unit
  val dequeue : t -> tid:int -> int option
end

type impl = (module BENCH_QUEUE)

module type BATCH_BENCH_QUEUE = sig
  include BENCH_QUEUE

  val enqueue_batch : t -> tid:int -> int list -> unit
  val dequeue_batch : t -> tid:int -> n:int -> int list
end

type batch_impl = (module BATCH_BENCH_QUEUE)

(* The registry route: any {!Wfq_core.Queue_intf.BACKEND} as a bench
   impl. The backend's own functions are packed directly — no
   closure-record hop — so a registry row costs per operation exactly
   what a hand-built module over the same functor did. A bounded
   backend's [enqueue] waits out a full queue ([try_enqueue] retry):
   under open-loop load the delay lands in the enqueue-latency samples,
   the honest reading of "the queue was full". *)
let of_backend ?label (module B : Wfq_core.Queue_intf.BACKEND) : batch_impl =
  (module struct
    module Q = B.Make (A)

    type t = int Q.t

    let name = Option.value label ~default:B.label
    let create ~num_threads = Q.create ~num_threads ()

    let enqueue : t -> tid:int -> int -> unit =
      if B.capacity = None then Q.enqueue
      else fun q ~tid v ->
        while not (Q.try_enqueue q ~tid v) do
          Domain.cpu_relax ()
        done

    let dequeue = Q.dequeue
    let enqueue_batch = Q.enqueue_batch
    let dequeue_batch = Q.dequeue_batch
  end)

let unbatched (module Q : BATCH_BENCH_QUEUE) : impl = (module Q)
let registered id = unbatched (of_backend (Wfq_core.Backends.find id))

let lf : impl =
  (module struct
    type t = int Ms.t

    let name = "LF"
    let create ~num_threads = Ms.create ~num_threads ()
    let enqueue = Ms.enqueue
    let dequeue = Ms.dequeue
  end)

(* Pooled (segment-pool node recycling) counterpart of each family's
   headline member: same algorithm, allocation routed through
   Segment_pool so steady-state operations reuse retired nodes (and,
   for the KP family, retired operation descriptors) instead of minting
   fresh ones. These exist for the allocation-rate decomposition
   ([alloc_series]); they are also regular registry members so every
   correctness-checking workload exercises the recycling paths. *)
let lf_pooled : impl =
  (module struct
    type t = int Ms.t

    let name = "LF pooled"
    let create ~num_threads = Ms.create_pooled ~num_threads ()
    let enqueue = Ms.enqueue
    let dequeue = Ms.dequeue
  end)

let lms : impl =
  (module struct
    type t = int Lms.t

    let name = "LF optimistic"
    let create ~num_threads = Lms.create ~num_threads ()
    let enqueue = Lms.enqueue
    let dequeue = Lms.dequeue
  end)

(* The paper's §3.3 ablation rows, each with a helping or phase policy
   (or tuning) no registry entry carries. *)
let kp_variant ?tuning variant_name help phase : impl =
  (module struct
    type t = int Kp.t

    let name = variant_name
    let create ~num_threads =
      Kp.create_with ?tuning ~help ~phase ~num_threads ()
    let enqueue = Kp.enqueue
    let dequeue = Kp.dequeue
  end)

let wf_base = kp_variant "base WF" Help_all Phase_scan
let wf_opt1 = kp_variant "opt WF (1)" Help_one_cyclic Phase_scan
let wf_opt2 = kp_variant "opt WF (2)" Help_all Phase_counter
let wf_opt12 = registered "kp-opt12"
let wf_pooled = registered "kp-opt12-pooled"

(* §3.3 extension variants (not in the paper's evaluation): chunked
   cyclic helping and the further tuning enhancements. *)
let wf_chunk k =
  kp_variant (Printf.sprintf "WF chunk-%d" k) (Help_chunk k) Phase_counter

let wf_tuned =
  kp_variant "WF tuned" Help_one_cyclic Phase_counter
    ~tuning:{ Wfq_core.Kp_queue.gc_friendly = true; validate_before_cas = true }

(* Sharded front-end (lib/shard) over opt-(1+2) KP shards. The pairs
   workload must use its relaxed variant: a sweep can miss a concurrent
   enqueue, so "impossible empty" does not hold for [shards > 1]. *)
let shard_impl label ~policy k =
  of_backend ~label (Wfq_shard.Shard.as_backend ~policy ~shards:k "kp-opt12")

(* The headline entries use the tid-affine policy: on the pairs
   workload a thread's dequeue starts at the shard its enqueue just
   fed, which minimizes cross-shard traffic; it measures consistently
   ahead of both the round-robin ticket policy and the unsharded queue
   at 8 domains. The ticketed general-purpose policy is kept as a
   labelled variant. *)
let wf_shard k =
  unbatched
    (shard_impl (Printf.sprintf "WF shard-%d" k) ~policy:Tid_affine k)

let wf_shard_rr k =
  unbatched
    (shard_impl (Printf.sprintf "WF shard-%d (rr)" k) ~policy:Round_robin k)

(* Series for the shard-scaling bench: the best unsharded variant
   against the front-end at growing shard counts (shard-1 measures the
   strict mode's overhead, which should be nil). *)
let shard_series =
  [ wf_opt12; wf_shard 1; wf_shard 2; wf_shard 4; wf_shard 8;
    wf_shard_rr 8 ]

(* Fast-path/slow-path KP queue (PPoPP 2012 methodology): lock-free
   Michael-Scott rounds until [max_failures] failures, then the KP
   helping slow path. The registry carries the default budget; the
   sweep below pins others, with the slow path in the paper's fastest
   variant (opt 1+2), matching the registered rows. *)
let wf_fps = registered "fps"
let wf_fps_pooled = registered "fps-pooled"

let wf_fps_mf k : impl =
  (module struct
    type t = int Fps.t

    let name = Printf.sprintf "WF fps mf=%d" k

    let create ~num_threads =
      Fps.create_with ~max_failures:k
        ~help:Wfq_core.Kp_queue_fps.Help_one_cyclic
        ~phase:Wfq_core.Kp_queue_fps.Phase_counter ~num_threads ()

    let enqueue = Fps.enqueue
    let dequeue = Fps.dequeue
  end)

(* The issue's sweep: how quickly does throughput degrade as the
   fast-path budget shrinks toward pure-slow-path behaviour? *)
let wf_fps_series = [ wf_fps_mf 1; wf_fps_mf 8; wf_fps_mf 64; wf_fps_mf 1024 ]

(* Series for the fps bench: baselines the acceptance criteria compare
   against (raw LF, base WF, best unsharded WF) plus the headline fps
   queue (unpooled and pooled) and the max_failures sweep. *)
let fps_bench_series =
  [ lf; wf_base; wf_opt12; wf_fps; wf_fps_pooled ] @ wf_fps_series

(* Series for the allocation-rate bench (wfq_bench alloc): each family's
   headline member next to its pooled counterpart, so the words/op delta
   isolates what segment-pool recycling saves. *)
let alloc_series = [ lf; lf_pooled; wf_opt12; wf_pooled; wf_fps; wf_fps_pooled ]

(* Bounded-memory ring (Ring_queue): elements live in pre-allocated
   slots, so steady state allocates nothing per operation. 8192 slots
   (the registry's ring has 1024) comfortably exceed every benchmark
   workload's peak depth (pairs peaks at [threads] elements); [enqueue]
   on a full ring raises. *)
let ring_8192 name : batch_impl =
  (module struct
    type t = int Rg.t

    let name = name
    let create ~num_threads = Rg.create_with ~capacity:8192 ~num_threads ()
    let enqueue = Rg.enqueue
    let dequeue = Rg.dequeue
    let enqueue_batch = Rg.enqueue_batch
    let dequeue_batch = Rg.dequeue_batch
  end)

let wf_ring = unbatched (ring_8192 "WF ring")

(* Series for the ring bench (wfq_bench ring): the ring against the
   linked-queue allocation floor (the pooled members of each family) and
   the raw throughput baselines. The CI guard compares the ring's
   words/op against "opt WF (1+2) pooled" (the BENCH_alloc floor) and
   its pairs throughput against "WF fps pooled" at 1 domain. *)
let ring_series = [ wf_opt12; wf_pooled; wf_fps_pooled; wf_ring ]

(* The polylog tournament tree (Naderibeni & Ruppert): O(log^2 p) steps
   per operation against the KP family's O(p) helping scans. *)
let wf_polylog = registered "polylog"

(* Series for the crossover bench (wfq_bench polylog): the paper's
   fastest O(p) queue, the lowest-allocation O(p) variant, and the
   O(log^2 p) tree whose step bound grows slower with p. *)
let polylog_series = [ wf_opt12; wf_fps_pooled; wf_polylog ]

let wf_hp : impl =
  (module struct
    type t = int Kp_hp.t

    let name = "WF hazard-ptr"
    let create ~num_threads = Kp_hp.create ~num_threads ()
    let enqueue = Kp_hp.enqueue
    let dequeue = Kp_hp.dequeue
  end)

let wf_universal : impl =
  (module struct
    type t = Uq.t

    let name = "WF universal"
    let create ~num_threads = Uq.create ~num_threads ()
    let enqueue = Uq.enqueue
    let dequeue = Uq.dequeue
  end)

let flat_combining : impl =
  (module struct
    type t = int Fc.t

    let name = "flat-combining"
    let create ~num_threads = Fc.create ~num_threads ()
    let enqueue = Fc.enqueue
    let dequeue = Fc.dequeue
  end)

let two_lock : impl =
  (module struct
    type t = int Wfq_core.Two_lock_queue.t

    let name = "two-lock"
    let create ~num_threads = Wfq_core.Two_lock_queue.create ~num_threads ()
    let enqueue = Wfq_core.Two_lock_queue.enqueue
    let dequeue = Wfq_core.Two_lock_queue.dequeue
  end)

let mutex : impl =
  (module struct
    type t = int Wfq_core.Mutex_queue.t

    let name = "mutex"
    let create ~num_threads = Wfq_core.Mutex_queue.create ~num_threads ()
    let enqueue = Wfq_core.Mutex_queue.enqueue
    let dequeue = Wfq_core.Mutex_queue.dequeue
  end)

let all =
  [ lf; lf_pooled; lms; wf_base; wf_opt1; wf_opt2; wf_opt12; wf_pooled;
    wf_fps; wf_fps_pooled; wf_ring; wf_polylog; wf_hp; wf_universal;
    flat_combining; two_lock; mutex ]

(* Variants for the ablation bench: helping-chunk size sweep plus the
   tuning enhancements. *)
let ablation = [ wf_opt12; wf_chunk 2; wf_chunk 4; wf_tuned ]

(* Batch-native rows (docs/BATCHING.md): the backends exposing
   first-class [enqueue_batch]/[dequeue_batch], plus a per-item wrapper
   over the headline fps queue. The wrapper loops the single-element
   operations, so in the batch workload the only variable between
   "WF fps per-item" and "WF fps batch" is batch nativeness — the
   amortization headline's baseline. Both fps rows run the pooled
   configuration (the family's headline, as in [ring_series]): with
   segment-recycled nodes the allocator no longer dominates either
   side, so the ratio isolates what batching actually amortizes — the
   per-element CAS protocol. *)
let per_item label (module Q : BATCH_BENCH_QUEUE) : batch_impl =
  (module struct
    include Q

    let name = label
    let enqueue_batch q ~tid vs = List.iter (fun v -> Q.enqueue q ~tid v) vs

    let dequeue_batch q ~tid ~n =
      let rec go k acc =
        if k = 0 then List.rev acc
        else
          match Q.dequeue q ~tid with
          | Some v -> go (k - 1) (v :: acc)
          | None -> List.rev acc
      in
      go n []
  end)

let fps_batch =
  of_backend ~label:"WF fps batch" (Wfq_core.Backends.find "fps-pooled")

let fps_per_item = per_item "WF fps per-item" fps_batch

let kp_batch =
  of_backend ~label:"opt WF (1+2) batch" (Wfq_core.Backends.find "kp-opt12")

let ring_batch = ring_8192 "WF ring batch"

let shard_batch = shard_impl "WF shard-4 (rr) batch" ~policy:Round_robin 4

let batch_series =
  [ fps_per_item; fps_batch; kp_batch; ring_batch; shard_batch ]

let batch_name (module Q : BATCH_BENCH_QUEUE) = Q.name

let name (module Q : BENCH_QUEUE) = Q.name

let by_name n =
  match List.find_opt (fun i -> name i = n) all with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Impls.by_name: unknown %S (known: %s)" n
           (String.concat ", " (List.map name all)))
