(** The in-tree backend configurations, listed once each
    (docs/BACKENDS.md). This module is the single place a new backend
    touches outside its own implementation: wrap the configured
    algorithm as a {!Queue_intf.BACKEND} and add one entry to {!all} —
    [Wfq_shard], the scheduler's run-queue adapter, the conformance
    battery and [wfq_bench] all iterate this list. *)

module type ATOMIC = Wfq_primitives.Atomic_intf.ATOMIC

(* --- instances ----------------------------------------------------- *)

(* The closure-record view of one live queue (see
   {!Queue_intf.instance}): how heterogeneous clients hold any backend
   without a per-backend variant. *)

let instantiate_with (type v) (module At : ATOMIC)
    (module B : Queue_intf.BACKEND) ?obsv ?pool ~num_threads () :
    v Queue_intf.instance =
  let module Q = B.Make (At) in
  let q : v Q.t = Q.create ?obsv ?pool ~num_threads () in
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

(* --- the KP family ------------------------------------------------- *)

(* Both KP entries run the paper's fastest slow-path configuration,
   opt (1+2): cyclic single-thread helping, atomic phase counter. *)

module Kp_backend (C : sig
  val id : string
  val label : string
  val pool_default : bool
end) : Queue_intf.BACKEND = struct
  let id = C.id
  let label = C.label
  let family = "kp"
  let capacity = None
  let sim_safe = true

  module Make (A : ATOMIC) = struct
    module Q = Kp_queue.Make (A)
    include Q

    let create ?obsv ?pool ~num_threads () =
      let handle =
        Option.map
          (fun (r, p) -> Kp_queue.metrics r ~prefix:p ~slots:num_threads)
          obsv
      in
      let q =
        Q.create_with ?obsv:handle
          ~pool:(Option.value pool ~default:C.pool_default)
          ~help:Kp_queue.Help_one_cyclic ~phase:Kp_queue.Phase_counter
          ~num_threads ()
      in
      Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
      q

    let try_enqueue t ~tid v =
      Q.enqueue t ~tid v;
      true
  end
end

module Kp_default = Kp_backend (struct
  let id = "kp-opt12"
  let label = "opt WF (1+2)"
  let pool_default = false
end)

module Kp_pooled = Kp_backend (struct
  let id = "kp-opt12-pooled"
  let label = "opt WF (1+2) pooled"
  let pool_default = true
end)

(* --- the fast-path/slow-path family -------------------------------- *)

module Fps_backend (C : sig
  val id : string
  val label : string
  val pool_default : bool
end) : Queue_intf.BACKEND = struct
  let id = C.id
  let label = C.label
  let family = "fps"
  let capacity = None
  let sim_safe = true

  module Make (A : ATOMIC) = struct
    module Q = Kp_queue_fps.Make (A)
    include Q

    let create ?obsv ?pool ~num_threads () =
      let handle =
        Option.map
          (fun (r, p) -> Kp_queue_fps.metrics r ~prefix:p ~slots:num_threads)
          obsv
      in
      let q =
        Q.create_with ?obsv:handle
          ~pool:(Option.value pool ~default:C.pool_default)
          ~max_failures:Kp_queue_fps.default_max_failures
          ~help:Kp_queue_fps.Help_one_cyclic
          ~phase:Kp_queue_fps.Phase_counter ~num_threads ()
      in
      Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
      q

    let try_enqueue t ~tid v =
      Q.enqueue t ~tid v;
      true
  end
end

module Fps_default = Fps_backend (struct
  let id = "fps"
  let label = "WF fps"
  let pool_default = false
end)

module Fps_pooled = Fps_backend (struct
  let id = "fps-pooled"
  let label = "WF fps pooled"
  let pool_default = true
end)

(* --- the bounded ring ---------------------------------------------- *)

module Ring_default : Queue_intf.BACKEND = struct
  let id = "ring"
  let label = "WF ring"
  let family = "ring"
  let capacity = Some Ring_queue.default_capacity
  let sim_safe = true

  module Make (A : ATOMIC) = struct
    module Q = Ring_queue.Make (A)
    include Q

    (* Flat pre-allocated slots: [?pool] is meaningless and ignored. *)
    let create ?obsv ?pool:_ ~num_threads () =
      let handle =
        Option.map
          (fun (r, p) -> Ring_queue.metrics r ~prefix:p ~slots:num_threads)
          obsv
      in
      let q = Q.create_with ?obsv:handle ~num_threads () in
      Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
      q
  end
end

(* --- the polylog tournament tree ----------------------------------- *)

module Polylog : Queue_intf.BACKEND = struct
  let id = "polylog"
  let label = "WF polylog"
  let family = "polylog"
  let capacity = None
  let sim_safe = true

  module Make (A : ATOMIC) = struct
    module Q = Polylog_queue.Make (A)
    include Q

    (* Append-only block logs: no nodes to recycle, [?pool] ignored. *)
    let create ?obsv ?pool:_ ~num_threads () =
      let handle =
        Option.map
          (fun (r, p) -> Polylog_queue.metrics r ~prefix:p ~slots:num_threads)
          obsv
      in
      let q = Q.create_with ?obsv:handle ~num_threads () in
      Option.iter (fun (r, p) -> Q.register_metrics q r ~prefix:p) obsv;
      q
  end
end

(* --- the registry ---------------------------------------------------- *)

(* Registry order is output order: benchmark and test rows follow it. *)
let all : (module Queue_intf.BACKEND) list =
  [ (module Kp_default); (module Kp_pooled); (module Fps_default);
    (module Fps_pooled); (module Ring_default); (module Polylog) ]

let id (module B : Queue_intf.BACKEND) = B.id
let ids = List.map id all

let find key =
  match List.find_opt (fun b -> id b = key) all with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backends.find: unknown backend %S (known: %s)" key
           (String.concat ", " ids))
