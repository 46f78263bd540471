(** First-class-module registry of the benchmarked queue algorithms,
    specialized to [int] payloads as in the paper ("we assume the queue
    stores integer values").

    Series names match the paper's figure legends. *)

module A = Wfq_primitives.Real_atomic
module Ms = Wfq_core.Ms_queue.Make (A)
module Kp_hp = Wfq_core.Kp_queue_hp.Make (A)
module Bk = Wfq_core.Backends

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
let registered id = unbatched (of_backend (Bk.find id))

(* A configuration no registry entry carries, under its own label. *)
let variant ~id ~label config =
  unbatched (of_backend (Bk.make ~id ~label config))

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

(* The paper's §3.3 ablation rows: opt (1+2) with one optimization
   reverted, or both. *)
let wf_base = variant ~id:"kp-base" ~label:"base WF" (Kp Bk.kp_base)

let wf_opt1 = variant ~id:"kp-opt1" ~label:"opt WF (1)" (Kp Bk.kp_opt1)
let wf_opt2 = variant ~id:"kp-opt2" ~label:"opt WF (2)" (Kp Bk.kp_opt2)

let wf_opt12 = registered "kp-opt12"
let wf_pooled = registered "kp-opt12-pooled"

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

let wf_fps_mf k =
  variant
    ~id:(Printf.sprintf "fps-mf%d" k)
    ~label:(Printf.sprintf "WF fps mf=%d" k)
    (Fps { Bk.fps with max_failures = k })

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
   slots, so no node is allocated per element; each operation still
   allocates its slot record (3.50 words/op on pairs). 8192 slots
   (the registry's ring has 1024) comfortably exceed every benchmark
   workload's peak depth (pairs peaks at [threads] elements); like any
   bounded row, [enqueue] on a full ring retries [try_enqueue]. *)
let ring_8192 label =
  of_backend
    (Bk.make ~id:"ring-8192" ~label (Ring { Bk.ring with capacity = 8192 }))

let wf_ring = unbatched (ring_8192 "WF ring")

(* Series for the ring bench (wfq_bench ring): the ring next to the
   pooled members of each family and the raw throughput baselines. The
   CI guard is the ring's own words/op: at most 3.52 on one domain and
   a spread of at most 0.2 across widths. *)
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

let mutex : impl =
  (module struct
    type t = int Wfq_core.Mutex_queue.t

    let name = "mutex"
    let create ~num_threads = Wfq_core.Mutex_queue.create ~num_threads ()
    let enqueue = Wfq_core.Mutex_queue.enqueue
    let dequeue = Wfq_core.Mutex_queue.dequeue
  end)

let all =
  [ lf; lf_pooled; wf_base; wf_opt1; wf_opt2; wf_opt12; wf_pooled; wf_fps;
    wf_fps_pooled; wf_ring; wf_polylog; wf_hp; mutex ]

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

let fps_batch = of_backend ~label:"WF fps batch" (Bk.find "fps-pooled")

let fps_per_item = per_item "WF fps per-item" fps_batch

let kp_batch = of_backend ~label:"opt WF (1+2) batch" (Bk.find "kp-opt12")

let ring_batch = ring_8192 "WF ring batch"

let shard_batch = shard_impl "WF shard-4 (rr) batch" ~policy:Round_robin 4

let batch_series =
  [ fps_per_item; fps_batch; kp_batch; ring_batch; shard_batch ]

let batch_name (module Q : BATCH_BENCH_QUEUE) = Q.name

let name (module Q : BENCH_QUEUE) = Q.name
