(** The queue configurations (docs/BACKENDS.md). A {!config} is one
    algorithm family with its [create_with] arguments, {!make} turns it
    into a {!Queue_intf.BACKEND}, and a variant is a named default with
    some fields changed. {!all} lists the registered ones once each:
    [Wfq_shard], the scheduler's run-queue adapter, the conformance
    battery and [wfq_bench] all iterate it. *)

module type ATOMIC = Wfq_primitives.Atomic_intf.ATOMIC

(* --- instances ----------------------------------------------------- *)

(* The closure-record view of one live queue (see
   {!Queue_intf.instance}): how heterogeneous clients hold any backend
   without a per-backend variant. *)

let instantiate_with (type v) (module At : ATOMIC)
    (module B : Queue_intf.BACKEND) ?obsv ~num_threads () :
    v Queue_intf.instance =
  let module Q = B.Make (At) in
  let q : v Q.t = Q.create ?obsv ~num_threads () in
  {
    Queue_intf.i_name = Q.name;
    enq = (fun ~tid v -> Q.enqueue q ~tid v);
    try_enq = (fun ~tid v -> Q.try_enqueue q ~tid v);
    deq = (fun ~tid -> Q.dequeue q ~tid);
    enq_batch = (fun ~tid vs -> Q.enqueue_batch q ~tid vs);
    deq_batch = (fun ~tid ~n -> Q.dequeue_batch q ~tid ~n);
    size = (fun () -> Q.length q);
    empty = (fun () -> Q.is_empty q);
    dump = (fun () -> Q.to_list q);
    check = (fun () -> Q.check_quiescent_invariants q);
    metrics = (fun registry ~prefix -> Q.register_metrics q registry ~prefix);
  }

let instantiate b = instantiate_with (module Wfq_primitives.Real_atomic) b

(* --- configurations ------------------------------------------------ *)

(* Each field is the [create_with] argument of the same name. *)
type kp = { help : Kp_queue.help_policy; phase : Kp_queue.phase_policy }

(* [Fps] runs [kp]'s helping and phase policies. Pooling is chosen here
   and nowhere else: every family's [create] ignores [?pool]. *)
type fps = {
  pool : bool;
  max_failures : int;
  fault : Kp_queue_fps.fault option;
}

type ring = {
  capacity : int;
  max_failures : int;
  fault : Ring_queue.fault option;
}

type polylog = { fault : Polylog_queue.fault option }
type config = Kp of kp | Fps of fps | Ring of ring | Polylog of polylog

(* The named defaults. Both KP families run the paper's fastest
   slow-path configuration, opt (1+2): cyclic single-thread helping,
   atomic phase counter. *)
let kp : kp =
  { help = Kp_queue.Help_one_cyclic; phase = Kp_queue.Phase_counter }

(* The paper's base algorithm, not registered: every operation helps
   every pending one and scans all slots for its phase. *)
let kp_base = { help = Kp_queue.Help_all; phase = Kp_queue.Phase_scan }

(* Each optimisation alone: (1) cyclic helping, (2) the phase counter. *)
let kp_opt1 = { kp with phase = Kp_queue.Phase_scan }
let kp_opt2 = { kp with help = Kp_queue.Help_all }

let fps =
  {
    pool = false;
    max_failures = Kp_queue_fps.default_max_failures;
    fault = None;
  }

let ring =
  {
    capacity = Ring_queue.default_capacity;
    max_failures = Ring_queue.default_max_failures;
    fault = None;
  }

let polylog = { fault = None }

(* --- configurations as backends ------------------------------------ *)

(* The instrumentation handle [?obsv] asks for, and the metrics
   registered on the new queue. Neither allocates without [?obsv]: the
   queue's heap placement moves the benchmark's latencies. *)
let handle metrics obsv ~num_threads =
  match obsv with
  | None -> None
  | Some (r, p) -> Some (metrics r ~prefix:p ~slots:num_threads)

let register f q = function None -> () | Some (r, p) -> f q r ~prefix:p

let make ~id ~label config : (module Queue_intf.BACKEND) =
  let module Meta = struct
    let id = id
    let label = label
    let capacity = match config with Ring c -> Some c.capacity | _ -> None
    let sim_safe = true
  end in
  match config with
  | Kp c ->
      (module struct
        include Meta
        let family = "kp"

        module Make (A : ATOMIC) = struct
          module Q = Kp_queue.Make (A)
          include Q

          (* Nodes are left to the GC, as in the paper: [?pool] is
             ignored. *)
          let create ?obsv ?pool:_ ~num_threads () =
            let q =
              Q.create_with
                ?obsv:(handle Kp_queue.metrics obsv ~num_threads)
                ~help:c.help ~phase:c.phase ~num_threads ()
            in
            register Q.register_metrics q obsv;
            q

          let try_enqueue t ~tid v =
            Q.enqueue t ~tid v;
            true
        end
      end)
  | Fps c ->
      (module struct
        include Meta
        let family = "fps"

        module Make (A : ATOMIC) = struct
          module Q = Kp_queue_fps.Make (A)
          include Q

          (* Pooling is the configuration's [pool]: [?pool] is
             ignored. *)
          let create ?obsv ?pool:_ ~num_threads () =
            let q =
              Q.create_with
                ?obsv:(handle Kp_queue_fps.metrics obsv ~num_threads)
                ~max_failures:c.max_failures ?fault:c.fault ~pool:c.pool
                ~help:kp.help ~phase:kp.phase ~num_threads ()
            in
            register Q.register_metrics q obsv;
            q

          let try_enqueue t ~tid v =
            Q.enqueue t ~tid v;
            true
        end
      end)
  | Ring c ->
      (module struct
        include Meta
        let family = "ring"

        module Make (A : ATOMIC) = struct
          module Q = Ring_queue.Make (A)
          include Q

          (* Flat pre-allocated slots: [?pool] is ignored. *)
          let create ?obsv ?pool:_ ~num_threads () =
            let q =
              Q.create_with
                ?obsv:(handle Ring_queue.metrics obsv ~num_threads)
                ~capacity:c.capacity ~max_failures:c.max_failures
                ?fault:c.fault ~num_threads ()
            in
            register Q.register_metrics q obsv;
            q
        end
      end)
  | Polylog c ->
      (module struct
        include Meta
        let family = "polylog"

        module Make (A : ATOMIC) = struct
          module Q = Polylog_queue.Make (A)
          include Q

          (* Append-only block logs: [?pool] is ignored. *)
          let create ?obsv ?pool:_ ~num_threads () =
            let q =
              Q.create_with
                ?obsv:(handle Polylog_queue.metrics obsv ~num_threads)
                ?fault:c.fault ~num_threads ()
            in
            register Q.register_metrics q obsv;
            q
        end
      end)

(* --- the registry ---------------------------------------------------- *)

(* Registry order is output order: benchmark and test rows follow it. *)
let all =
  [
    make ~id:"kp-opt12" ~label:"opt WF (1+2)" (Kp kp);
    make ~id:"fps" ~label:"WF fps" (Fps fps);
    make ~id:"fps-pooled" ~label:"WF fps pooled" (Fps { fps with pool = true });
    make ~id:"ring" ~label:"WF ring" (Ring ring);
    make ~id:"polylog" ~label:"WF polylog" (Polylog polylog);
  ]

let id (module B : Queue_intf.BACKEND) = B.id
let ids = List.map id all

let find key =
  match List.find_opt (fun b -> id b = key) all with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backends.find: unknown backend %S (known: %s)" key
           (String.concat ", " ids))
