(* Effect-based fiber scheduler over wait-free run-queues.

   N workers (OCaml domains in production, or plain callers of [step]
   under the deterministic simulator) each own one MPMC run-queue of
   tasks. A task is a slice of a fiber: either the start of a fresh
   fiber or a captured continuation to resume. Fibers interact with the
   scheduler through effects ([Yield], [Spawn], [Await] and the
   internal [Complete]); the worker executing a slice installs a
   {e shallow} handler for exactly that slice.

   Why shallow handlers: a fiber suspended on this scheduler is resumed
   by {e whichever} worker dequeues it — usually not the worker that
   started it. A deep handler is captured inside the continuation, so
   the resuming worker would run the fiber under the {e original}
   worker's handler, and any thread identity closed over in it would be
   stale: two domains would perform queue operations under the same
   [tid], breaking the Kogan-Petrank per-thread state discipline. With
   shallow handlers every resumption installs a handler freshly
   constructed by the executing worker, closing over {e its} tid, so
   the tid used for every run-queue operation is always the operating
   domain's own. (This also keeps the core simulator-runnable: effects
   the handler does not recognize — the simulator's yield-per-access
   effects — are forwarded to the outer handler by returning [None].)

   Progress and termination: [outstanding] counts fibers spawned but
   not yet completed. It is incremented {e before} the fresh task is
   enqueued and decremented only by [Complete], so [outstanding = 0]
   implies no task exists in any queue and none is mid-execution —
   the condition under which [run]'s workers exit. A fiber suspended
   on [Await] sits in no queue, but its own spawn count keeps
   [outstanding] positive until it completes.

   The await/complete hand-off is the one genuinely racy protocol the
   scheduler adds on top of the queues (stealing is just a dequeue by
   another tid, already covered by the queue's own linearizability):
   [Await] publishes the waiter with a CAS on the promise cell, and
   [Complete] claims the whole waiter list with an exchange. If the
   exchange lands first, the waiter's CAS fails (the cell changed) and
   the awaiter re-reads the completed value — no lost wakeup; if the
   CAS lands first, the exchange sees the waiter and re-enqueues it.
   Both cells live on the [A] functor plane, so DPOR explores exactly
   these interleavings (test_sched.ml litmus). *)

module C = Wfq_obsv.Counter
module H = Wfq_obsv.Histogram
module Steal_order = Wfq_shard.Steal_order

module type RUN_QUEUE = Wfq_core.Queue_intf.RUN_QUEUE

(* ------------------------------------------------------------------ *)
(* Observability handle                                               *)
(* ------------------------------------------------------------------ *)

(* Same split as Kp_queue/Kp_queue_fps: always-on Counter cells live in
   [t] and are attached by [register_metrics]; the [?obsv] handle
   carries the two histograms whose sampling is opt-in. All writes are
   per-tid single-writer plain cells, so an instrumented scheduler
   performs no extra shared-cell traffic and its DPOR traces are
   identical to an uninstrumented one's. *)
type metrics = { m_depth : H.t; m_latency : H.t }

let metrics registry ~prefix ~slots =
  {
    m_depth =
      Wfq_obsv.Metrics.histogram registry ~name:(prefix ^ ".runq_depth")
        ~slots;
    m_latency =
      Wfq_obsv.Metrics.histogram registry
        ~name:(prefix ^ ".fiber_latency_ns") ~slots;
  }

(* ------------------------------------------------------------------ *)
(* The scheduler functor                                              *)
(* ------------------------------------------------------------------ *)

module type S = sig
  type t
  type 'a promise

  val name : string

  val create :
    ?obsv:metrics -> ?clock:(unit -> int) -> num_workers:int -> unit -> t

  val num_workers : t -> int

  (* Fiber-context operations (require a worker's handler). *)
  val spawn : (unit -> 'a) -> 'a promise
  val spawn_many : (unit -> 'a) list -> 'a promise list
  val yield : unit -> unit
  val await : 'a promise -> 'a

  (* External operations. *)
  val submit : t -> tid:int -> (unit -> 'a) -> 'a promise
  val submit_batch : t -> tid:int -> (unit -> 'a) list -> 'a promise list
  val result : 'a promise -> ('a, exn) result option
  val run : t -> (unit -> 'a) -> 'a

  (* Deterministic core (single caller per tid at a time). *)
  val step : t -> tid:int -> bool
  val drain : t -> tid:int -> int

  (* Probes (racy snapshots; exact at quiescence). *)
  val pending_fibers : t -> int
  val fibers_spawned : t -> int
  val fibers_completed : t -> int
  val steal_attempts : t -> int
  val steals_won : t -> int
  val run_queue_depth : t -> int -> int

  val register_metrics : t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
end

module Make
    (A : Wfq_primitives.Atomic_intf.ATOMIC)
    (Q : RUN_QUEUE) : S = struct
  (* A fiber's overall computation always has type [unit]: user bodies
     are wrapped to deliver their value (or exception) to the fiber's
     promise via [Complete], so every captured continuation is a
     [(_, unit) Effect.Shallow.continuation]. *)
  type 'a state =
    | Completed of ('a, exn) result
    | Pending of ('a, unit) Effect.Shallow.continuation list
        (** waiters, most recent first; woken in FIFO order *)

  type 'a promise = 'a state A.t

  type task =
    | Fresh of (unit -> unit)  (** start a new fiber *)
    | Resume : ('a, unit) Effect.Shallow.continuation * 'a -> task
        (** resume a suspended fiber with an effect's result *)
    | Cancel : ('a, unit) Effect.Shallow.continuation * exn -> task
        (** resume a suspended fiber by raising at its await point
            (the awaited fiber failed) *)

  (* [Spawn]'s answer type must determine ['a], but ['a promise] is
     abstract over [A.t] and so not known injective; the concrete box
     restores deducibility. *)
  type 'a pbox = Prom of 'a promise

  type _ Effect.t +=
    | Yield : unit Effect.t
    | Await : 'a promise -> 'a Effect.t
    | Spawn : (unit -> 'a) -> 'a pbox Effect.t
    | Spawn_many : (unit -> 'a) list -> 'a pbox list Effect.t
          (** fan-out: all fresh tasks pushed with one run-queue batch *)
    | Complete : 'a promise * ('a, exn) result * int -> unit Effect.t
          (** internal: fiber body finished; the [int] is its spawn
              timestamp for the latency histogram *)

  type t = {
    workers : int;
    queues : task Q.t array;  (** run-queue [i] is worker [i]'s *)
    outstanding : int A.t;  (** fibers spawned and not yet completed *)
    (* Always-on single-writer stats, indexed by the executing tid. *)
    spawned : C.t;
    completed : C.t;
    steal_attempts : C.t;  (** empty-local-queue sweeps entered *)
    steals_won : C.t;  (** tasks taken from another worker's queue *)
    rq_push : C.t array;  (** per queue: tasks pushed, by pusher tid *)
    rq_take : C.t array;  (** per queue: tasks taken, by taker tid *)
    obsv : metrics option;
    clock : (unit -> int) option;  (** monotonic ns for fiber latency *)
  }

  let name = "sched(" ^ Q.name ^ ")"

  let create ?obsv ?clock ~num_workers () =
    if num_workers <= 0 then invalid_arg "Sched.create: num_workers";
    let counter () = C.create ~slots:num_workers () in
    {
      workers = num_workers;
      queues =
        Array.init num_workers (fun _ ->
            Q.create ~num_threads:num_workers ());
      outstanding = A.make 0;
      spawned = counter ();
      completed = counter ();
      steal_attempts = counter ();
      steals_won = counter ();
      rq_push = Array.init num_workers (fun _ -> counter ());
      rq_take = Array.init num_workers (fun _ -> counter ());
      obsv;
      clock;
    }

  let num_workers t = t.workers
  let now t = match t.clock with Some f -> f () | None -> 0
  let pending_fibers t = A.get t.outstanding
  let fibers_spawned t = C.total t.spawned
  let fibers_completed t = C.total t.completed
  let steal_attempts t = C.total t.steal_attempts
  let steals_won t = C.total t.steals_won

  let run_queue_depth t i =
    if i < 0 || i >= t.workers then invalid_arg "Sched.run_queue_depth";
    C.total t.rq_push.(i) - C.total t.rq_take.(i)

  (* --- task plumbing ---------------------------------------------- *)

  (* All pushes are local (to the pushing worker's own queue): spawns,
     yields and wakeups land where they happened, and redistribution is
     the stealers' job — the classic work-stealing locality split. *)
  let push_local t ~tid task =
    Q.enqueue t.queues.(tid) ~tid task;
    C.incr t.rq_push.(tid) ~slot:tid;
    match t.obsv with
    | Some m ->
        (* Approximate depth from the push/take counters: two plain
           sums over [workers] padded cells — no atomic traffic, cheap
           next to the enqueue itself. *)
        let d = C.total t.rq_push.(tid) - C.total t.rq_take.(tid) in
        H.record m.m_depth ~slot:tid (max d 0)
    | None -> ()

  (* Fan-out counterpart of [push_local]: one backend-native run-queue
     batch covers every task (docs/BATCHING.md) — on the KP-family
     backends the whole fan-out linearizes at a single append CAS. *)
  let push_local_batch t ~tid tasks =
    match tasks with
    | [] -> ()
    | tasks ->
        let k = List.length tasks in
        Q.enqueue_batch t.queues.(tid) ~tid tasks;
        C.add t.rq_push.(tid) ~slot:tid k;
        (match t.obsv with
        | Some m ->
            let d = C.total t.rq_push.(tid) - C.total t.rq_take.(tid) in
            H.record m.m_depth ~slot:tid (max d 0)
        | None -> ())

  let wrap_body pr t0 f () =
    let r = match f () with v -> Ok v | exception e -> Error e in
    Effect.perform (Complete (pr, r, t0))

  (* Spawn accounting order matters: [outstanding] rises before the
     task becomes visible, so a worker can never observe an empty
     system ([outstanding = 0]) while a runnable task exists. *)
  let spawn_into t ~tid f =
    ignore (A.fetch_and_add t.outstanding 1 : int);
    C.incr t.spawned ~slot:tid;
    let pr = A.make (Pending []) in
    push_local t ~tid (Fresh (wrap_body pr (now t) f));
    pr

  (* Batch spawn: the whole fan-out is accounted (outstanding up by
     [k] first, same visibility argument as [spawn_into]) and then
     pushed as one run-queue batch. *)
  let spawn_many_into t ~tid fs =
    match fs with
    | [] -> []
    | [ f ] -> [ spawn_into t ~tid f ]
    | fs ->
        let k = List.length fs in
        ignore (A.fetch_and_add t.outstanding k : int);
        C.add t.spawned ~slot:tid k;
        let t0 = now t in
        let entries =
          List.map
            (fun f ->
              let pr = A.make (Pending []) in
              (pr, Fresh (wrap_body pr t0 f)))
            fs
        in
        push_local_batch t ~tid (List.map snd entries);
        List.map fst entries

  let submit t ~tid f =
    if tid < 0 || tid >= t.workers then invalid_arg "Sched.submit: tid";
    spawn_into t ~tid f

  let submit_batch t ~tid fs =
    if tid < 0 || tid >= t.workers then invalid_arg "Sched.submit_batch: tid";
    spawn_many_into t ~tid fs

  let result p =
    match A.get p with Completed r -> Some r | Pending _ -> None

  (* Complete the promise and wake its waiters. The exchange claims the
     whole waiter list atomically against concurrent [Await] CASes. The
     completed fiber's [outstanding] decrement comes last: until then
     the system still counts it, so no worker can exit between the
     value becoming visible and the waiters being requeued. *)
  let complete : type a. t -> tid:int -> a promise -> (a, exn) result
      -> int -> unit =
   fun t ~tid pr r t0 ->
    (match A.exchange pr (Completed r) with
    | Pending waiters ->
        (* Wake every waiter with one run-queue batch, FIFO order
           (waiters are stored most recent first). *)
        push_local_batch t ~tid
          (List.rev_map
             (fun k ->
               match r with
               | Ok v -> Resume (k, v)
               | Error e -> Cancel (k, e))
             waiters)
    | Completed _ ->
        (* A promise is completed exactly once, by its own fiber. *)
        assert false);
    C.incr t.completed ~slot:tid;
    (match (t.obsv, t.clock) with
    | Some m, Some _ -> H.record m.m_latency ~slot:tid (max 0 (now t - t0))
    | _ -> ());
    ignore (A.fetch_and_add t.outstanding (-1) : int)

  (* --- the per-slice handler -------------------------------------- *)

  let rec handler : t -> tid:int -> (unit, unit) Effect.Shallow.handler =
   fun t ~tid ->
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (c, unit) Effect.Shallow.continuation) ->
                  push_local t ~tid (Resume (k, ())))
          | Spawn f ->
              Some
                (fun k ->
                  let pr = spawn_into t ~tid f in
                  Effect.Shallow.continue_with k (Prom pr) (handler t ~tid))
          | Spawn_many fs ->
              Some
                (fun k ->
                  let prs = spawn_many_into t ~tid fs in
                  Effect.Shallow.continue_with k
                    (List.map (fun p -> Prom p) prs)
                    (handler t ~tid))
          | Await p -> Some (fun k -> await_with t ~tid p k)
          | Complete (pr, r, t0) ->
              Some
                (fun k ->
                  complete t ~tid pr r t0;
                  Effect.Shallow.continue_with k () (handler t ~tid))
          | _ -> None (* forward (e.g. the simulator's yields) *));
    }

  and await_with : type a. t -> tid:int -> a promise
      -> (a, unit) Effect.Shallow.continuation -> unit =
   fun t ~tid p k ->
    match A.get p with
    | Completed (Ok v) ->
        Effect.Shallow.continue_with k v (handler t ~tid)
    | Completed (Error e) ->
        Effect.Shallow.discontinue_with k e (handler t ~tid)
    | Pending waiters as old ->
        if A.compare_and_set p old (Pending (k :: waiters)) then ()
          (* Suspended: the completing fiber now owns the wakeup. *)
        else await_with t ~tid p k

  let exec t ~tid task =
    match task with
    | Fresh body ->
        Effect.Shallow.continue_with (Effect.Shallow.fiber body) ()
          (handler t ~tid)
    | Resume (k, v) -> Effect.Shallow.continue_with k v (handler t ~tid)
    | Cancel (k, e) -> Effect.Shallow.discontinue_with k e (handler t ~tid)

  (* --- taking work ------------------------------------------------- *)

  (* Own queue first; on empty, one {!Steal_order} lap over the other
     workers' queues, with the same [is_empty] pre-check discipline as
     the shard sweep (most swept queues are empty; a full dequeue on an
     empty KP queue still runs the phase/descriptor ceremony). *)
  let take t ~tid =
    match Q.dequeue t.queues.(tid) ~tid with
    | Some _ as r ->
        C.incr t.rq_take.(tid) ~slot:tid;
        r
    | None ->
        let n = t.workers in
        if n = 1 then None
        else begin
          C.incr t.steal_attempts ~slot:tid;
          let rec sweep i =
            if i = n then None
            else
              let v = Steal_order.visit ~n ~start:tid i in
              if Q.is_empty t.queues.(v) then sweep (i + 1)
              else
                match Q.dequeue t.queues.(v) ~tid with
                | Some _ as r ->
                    C.incr t.rq_take.(v) ~slot:tid;
                    C.incr t.steals_won ~slot:tid;
                    r
                | None -> sweep (i + 1)
          in
          sweep 1
        end

  let step t ~tid =
    match take t ~tid with
    | Some task ->
        exec t ~tid task;
        true
    | None -> false

  let drain t ~tid =
    let rec go n = if step t ~tid then go (n + 1) else n in
    go 0

  (* --- fiber-context API ------------------------------------------- *)

  let yield () = Effect.perform Yield
  let await p = Effect.perform (Await p)
  let spawn f = match Effect.perform (Spawn f) with Prom p -> p

  let spawn_many fs =
    match fs with
    | [] -> []
    | fs ->
        List.map (fun (Prom p) -> p) (Effect.perform (Spawn_many fs))

  (* --- parallel runner --------------------------------------------- *)

  (* Work until the system is empty: a failed take with [outstanding]
     still positive means some fiber is mid-execution on another worker
     or suspended on a promise a running fiber will complete — back
     off and retry. [outstanding = 0] is stable (only fibers create
     fibers, and external submits are the caller's responsibility), so
     exiting is safe.

     The idle wait is the shared clamped {!Wfq_primitives.Backoff}
     schedule rather than a raw [cpu_relax] per probe: each failed
     probe doubles the spin-wait (16 .. 4096 relax hints), reset as
     soon as a task is found. An idle worker therefore re-enters the
     steal sweep geometrically less often — steal_attempts drops by an
     order of magnitude on imbalanced workloads (BENCH_sched.json) —
     while the clamp keeps the worst extra wake-up latency at one
     bounded spin, leaving fiber p99 unchanged. *)
  let worker_loop t ~tid =
    let b = Wfq_primitives.Backoff.create () in
    let rec go () =
      if step t ~tid then begin
        Wfq_primitives.Backoff.reset b;
        go ()
      end
      else if A.get t.outstanding > 0 then begin
        Wfq_primitives.Backoff.once b;
        go ()
      end
    in
    go ()

  let run t main =
    let pr = submit t ~tid:0 main in
    let others =
      Array.init (t.workers - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~tid:(i + 1)))
    in
    worker_loop t ~tid:0;
    Array.iter Domain.join others;
    match A.get pr with
    | Completed (Ok v) -> v
    | Completed (Error e) -> raise e
    | Pending _ ->
        (* outstanding hit 0, so every fiber — main included —
           completed. *)
        assert false

  (* --- observability ------------------------------------------------ *)

  let register_metrics t registry ~prefix =
    let open Wfq_obsv in
    Metrics.register registry
      (prefix ^ ".fibers_spawned")
      (Metrics.Counter t.spawned);
    Metrics.register registry
      (prefix ^ ".fibers_completed")
      (Metrics.Counter t.completed);
    Metrics.register registry
      (prefix ^ ".steal_attempts")
      (Metrics.Counter t.steal_attempts);
    Metrics.register registry (prefix ^ ".steals_won")
      (Metrics.Counter t.steals_won);
    Metrics.gauge registry
      ~name:(prefix ^ ".pending_fibers")
      (fun () -> pending_fibers t);
    Array.iteri
      (fun i q ->
        let p = Printf.sprintf "%s.rq%d" prefix i in
        Metrics.register registry (p ^ ".pushes")
          (Metrics.Counter t.rq_push.(i));
        Metrics.register registry (p ^ ".takes")
          (Metrics.Counter t.rq_take.(i));
        (* The uniform RUN_QUEUE hook: every backend contributes at
           least its depth gauge here, plus its own diagnostics. *)
        Q.register_metrics q registry ~prefix:p)
      t.queues
end

(* ------------------------------------------------------------------ *)
(* Run-queue backends                                                 *)
(* ------------------------------------------------------------------ *)

(* The registry route: any {!Wfq_core.Queue_intf.BACKEND} as a
   run-queue. A QUEUE_BACKEND's [create] carries the optional [?obsv] /
   [?pool] configuration hooks, so the only adaptation needed is
   pinning [create] to the plain RUN_QUEUE arity — the backend's
   registered default configuration applies. *)
module Rq_of
    (B : Wfq_core.Queue_intf.BACKEND)
    (A : Wfq_primitives.Atomic_intf.ATOMIC) : RUN_QUEUE = struct
  module Q = B.Make (A)
  include Q

  let create ~num_threads () = Q.create ~num_threads ()
end
