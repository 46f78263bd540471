(** The Explore × Lincheck driver: model-check a queue implementation
    end to end.

    Given a queue's operations and per-fiber scripts, this module builds
    the simulator scenario ({!Scheduler} fibers that record a
    {!Wfq_lincheck.History}), explores its schedules ({!Dpor} by
    default), and on {e every} explored schedule checks

    - {e element conservation}: multiset of enqueued values = dequeued
      values + final queue contents;
    - {e linearizability}: the recorded history passes the Wing & Gong
      checker against the sequential FIFO specification;
    - optionally {e wait-freedom}: with [step_bound], no fiber may take
      more than that many scheduler steps in any schedule — the
      schedule-independent per-operation bound of the paper's Theorem,
      certified over the whole explored schedule space.

    Failures are shrunk to a minimal forced replay automatically
    ({!Shrink}). *)

module S = Scheduler
module H = Wfq_lincheck.History
module C = Wfq_lincheck.Checker

type script =
  [ `Enq of int
  | `Try_enq of int
  | `Deq
  | `Enq_batch of int list
  | `Try_enq_batch of int list
  | `Deq_batch of int ]
  list

type 'q queue = {
  create : num_threads:int -> 'q;
  enqueue : 'q -> tid:int -> int -> unit;
  dequeue : 'q -> tid:int -> int option;
  contents : 'q -> int list;
  try_enqueue : ('q -> tid:int -> int -> bool) option;
  enqueue_batch : ('q -> tid:int -> int list -> unit) option;
  try_enqueue_batch : ('q -> tid:int -> int list -> int) option;
  dequeue_batch : ('q -> tid:int -> n:int -> int list) option;
  capacity : int option;
  audit : ('q -> (unit, string) result) option;
}

let queue ~create ~enqueue ~dequeue ~contents ?try_enqueue ?enqueue_batch
    ?try_enqueue_batch ?dequeue_batch ?capacity ?audit () =
  {
    create;
    enqueue;
    dequeue;
    contents;
    try_enqueue;
    enqueue_batch;
    try_enqueue_batch;
    dequeue_batch;
    capacity;
    audit;
  }

module Qi = Wfq_core.Queue_intf

let backend (module B : Qi.BACKEND) =
  queue
    ~create:(fun ~num_threads ->
      Wfq_core.Backends.instantiate_with (module Sim_atomic) (module B)
        ~num_threads ())
    ~enqueue:(fun q ~tid v -> q.Qi.enq ~tid v)
    ~dequeue:(fun q ~tid -> q.Qi.deq ~tid)
    ~contents:(fun q -> q.Qi.dump ())
    ~try_enqueue:(fun q ~tid v -> q.Qi.try_enq ~tid v)
    ~enqueue_batch:(fun q ~tid vs -> q.Qi.enq_batch ~tid vs)
    ~dequeue_batch:(fun q ~tid ~n -> q.Qi.deq_batch ~tid ~n)
    ?capacity:B.capacity
    ~audit:(fun q -> q.Qi.check ())
    ()

type mode =
  | Dpor  (** one schedule per Mazurkiewicz trace; exhaustive coverage *)
  | Exhaustive  (** every interleaving — tiny scenarios only *)
  | Preemption_bounded of int
  | Pct of { count : int; change_points : int }
  | Fuzz of { seed0 : int; count : int }

type failure = {
  message : string;
  forced : int list;  (** the failing schedule, replayable as-is *)
  shrunk : Shrink.t option;
}

type report = {
  schedules : int;
  exhausted : bool;
  max_fiber_steps : int;
      (** the largest per-fiber step count seen across all explored
          schedules — the empirical wait-freedom bound for the scenario *)
  failure : failure option;
}

(* History size of one script: batch ops expand to one sub-op per
   element, and that expanded count is what the linearizability
   checker's 62-op bitmask limit bounds. *)
let script_ops s =
  List.fold_left
    (fun n -> function
      | `Enq _ | `Try_enq _ | `Deq -> n + 1
      | `Enq_batch vs | `Try_enq_batch vs -> n + List.length vs
      | `Deq_batch k -> n + k)
    0 s

let ops_in scripts init =
  List.length init + List.fold_left (fun n s -> n + script_ops s) 0 scripts

(* The capability a script op needs, or an error naming it. *)
let need field = function
  | Some f -> f
  | None -> invalid_arg ("Check: a script op needs the queue's " ^ field)

(* Build the fiber vector, its history and the post-run check for one
   execution. Shared with every exploration mode, with the shrinker and
   with [history], so all replay the same scenario. *)
let scenario ~queue:ops ~scripts ~init ?step_bound ~max_fiber_steps () =
  let num_threads = List.length scripts in
  let q = ops.create ~num_threads in
  let hist = H.create () in
  (* Pre-filled elements enter the history as enqueues by a synthetic
     thread that completed before any fiber started, so both the FIFO
     spec and conservation account for them. *)
  S.ignore_yields (fun () ->
      List.iter
        (fun v ->
          H.call hist ~thread:num_threads (H.Enq v);
          ops.enqueue q ~tid:0 v;
          H.return hist ~thread:num_threads H.Done)
        init);
  let fiber tid script () =
    List.iter
      (function
        | `Enq v ->
            H.call hist ~thread:tid (H.Enq v);
            ops.enqueue q ~tid v;
            H.return hist ~thread:tid H.Done
        | `Try_enq v -> (
            let try_enq = need "try_enqueue" ops.try_enqueue in
            H.call hist ~thread:tid (H.Enq v);
            match try_enq q ~tid v with
            | true -> H.return hist ~thread:tid H.Done
            | false -> H.return hist ~thread:tid H.Rejected)
        | `Deq -> (
            H.call hist ~thread:tid H.Deq;
            match ops.dequeue q ~tid with
            | Some v -> H.return hist ~thread:tid (H.Got v)
            | None -> H.return hist ~thread:tid H.Empty)
        (* Batch ops expand to per-element sub-ops: all invocations are
           recorded before the batch runs and all responses after, so
           each element's linearization point lies in its interval, and
           the checker's program-order constraint pins intra-batch
           FIFO. *)
        | `Enq_batch vs ->
            if vs <> [] then begin
              let f = need "enqueue_batch" ops.enqueue_batch in
              H.call_batch hist ~thread:tid
                (List.map (fun v -> H.Enq v) vs);
              f q ~tid vs;
              H.return_batch hist ~thread:tid
                (List.map (fun _ -> H.Done) vs)
            end
        | `Try_enq_batch vs ->
            if vs <> [] then begin
              let f = need "try_enqueue_batch" ops.try_enqueue_batch in
              H.call_batch hist ~thread:tid
                (List.map (fun v -> H.Enq v) vs);
              let accepted = f q ~tid vs in
              (* The bounded batch stops at its first full observation:
                 the accepted prefix answers [Done], every remaining
                 element [Rejected] — all rejections can share that one
                 full linearization point. *)
              H.return_batch hist ~thread:tid
                (List.mapi
                   (fun i _ -> if i < accepted then H.Done else H.Rejected)
                   vs)
            end
        | `Deq_batch want ->
            if want > 0 then begin
              let f = need "dequeue_batch" ops.dequeue_batch in
              H.call_batch hist ~thread:tid
                (List.init want (fun _ -> H.Deq));
              let got = f q ~tid ~n:want in
              (* A short batch observed empty once and stopped; the
                 unserved sub-ops answer [Empty] at that same point. *)
              let rec responses got i =
                if i = want then []
                else
                  match got with
                  | v :: tl -> H.Got v :: responses tl (i + 1)
                  | [] -> H.Empty :: responses [] (i + 1)
              in
              H.return_batch hist ~thread:tid (responses got 0)
            end)
      script
  in
  let check (result : S.result) =
    Array.iter
      (fun s -> if s > !max_fiber_steps then max_fiber_steps := s)
      result.S.steps;
    let step_ok =
      match step_bound with
      | None -> Ok ()
      | Some bound ->
          let worst = Array.fold_left max 0 result.S.steps in
          if worst <= bound then Ok ()
          else
            Error
              (Printf.sprintf
                 "wait-freedom violation: a fiber took %d steps (bound %d)"
                 worst bound)
    in
    match step_ok with
    | Error _ as e -> e
    | Ok () -> (
        let completed = H.completed hist in
        (* Only enqueues that reported success count as having put an
           element in: a [Rejected] bounded enqueue must leave no trace
           (if it does, conservation flags the duplicate). *)
        let enqueued =
          List.filter_map
            (fun (c : H.completed) ->
              match (c.H.op, c.H.response) with
              | H.Enq v, H.Done -> Some v
              | H.Enq _, _ | H.Deq, _ -> None)
            completed
        in
        let dequeued =
          List.filter_map
            (fun (c : H.completed) ->
              match c.H.response with
              | H.Got v -> Some v
              | H.Done | H.Empty | H.Rejected -> None)
            completed
        in
        let left = S.ignore_yields (fun () -> ops.contents q) in
        let sort = List.sort compare in
        if sort enqueued <> sort (dequeued @ left) then
          Error
            (Printf.sprintf "conservation violated: %d enq, %d deq, %d left"
               (List.length enqueued) (List.length dequeued)
               (List.length left))
        else if not (C.is_linearizable ?capacity:ops.capacity completed) then
          Error (Format.asprintf "not linearizable:@.%a" C.pp_history completed)
        else
          match ops.audit with
          | None -> Ok ()
          | Some f -> S.ignore_yields (fun () -> f q))
  in
  (Array.of_list (List.mapi fiber scripts), hist, check)

let make_scenario ~queue ~scripts ~init ~max_fiber_steps () =
  let fibers, _, check = scenario ~queue ~scripts ~init ~max_fiber_steps () in
  (fibers, check)

let history ~queue ~scripts ~init ~forced =
  let fibers, hist, _ =
    scenario ~queue ~scripts ~init ~max_fiber_steps:(ref 0) ()
  in
  ignore (S.run ~strategy:S.First_enabled ~forced fibers);
  H.completed hist

let run ?(mode = Dpor) ?max_schedules ?step_limit ?step_bound
    ?(shrink = true) ?(init = []) ~queue ~scripts () =
  if scripts = [] then invalid_arg "Check.run: no scripts";
  if ops_in scripts init > 62 then
    invalid_arg
      "Check.run: more than 62 operations (the linearizability checker's \
       bitmask limit)";
  let max_fiber_steps = ref 0 in
  let make () =
    let fibers, _, check =
      scenario ~queue ~scripts ~init ?step_bound ~max_fiber_steps ()
    in
    (fibers, check)
  in
  let schedules, exhausted, raw_failure =
    match mode with
    | Dpor ->
        let r = Dpor.explore ?max_executions:max_schedules ?step_limit ~make () in
        (r.Dpor.schedules, r.Dpor.exhausted, r.Dpor.failure)
    | Exhaustive ->
        let r = Explore.exhaustive ?max_schedules ?step_limit ~make () in
        (r.Explore.schedules, r.Explore.exhausted, r.Explore.failure)
    | Preemption_bounded budget ->
        let r =
          Explore.preemption_bounded ~budget ?max_schedules ?step_limit ~make
            ()
        in
        (r.Explore.schedules, r.Explore.exhausted, r.Explore.failure)
    | Pct { count; change_points } ->
        let r = Explore.pct ~count ~change_points ?step_limit ~make () in
        (r.Explore.schedules, r.Explore.exhausted, r.Explore.failure)
    | Fuzz { seed0; count } ->
        let r = Explore.fuzz ~seed0 ~count ?step_limit ~make () in
        (r.Explore.schedules, r.Explore.exhausted, r.Explore.failure)
  in
  let failure =
    Option.map
      (fun (forced, message) ->
        let shrunk =
          if shrink then
            match Shrink.shrink ?step_limit ~make ~forced () with
            | s -> Some s
            | exception Invalid_argument _ ->
                (* e.g. a PCT failure whose trace does not replay under
                   the default continuation strategy: keep it unshrunk *)
                None
          else None
        in
        { message; forced; shrunk })
      raw_failure
  in
  { schedules; exhausted; max_fiber_steps = !max_fiber_steps; failure }

(* --- wait-freedom certification ----------------------------------- *)

type certificate = { observed_bound : int; schedules : int }

let certify ?mode ?max_schedules ~bound ~queue ~scripts () =
  let r = run ?mode ?max_schedules ~step_bound:bound ~queue ~scripts () in
  match r.failure with
  | Some f ->
      Error
        (Format.asprintf "certification failed:@ %a"
           (fun ppf f ->
             match f.shrunk with
             | Some s -> Shrink.pp ppf s
             | None -> Format.pp_print_string ppf f.message)
           f)
  | None ->
      if not r.exhausted then
        Error
          (Printf.sprintf
             "certification incomplete: schedule space not exhausted \
              after %d schedules (raise max_schedules)"
             r.schedules)
      else Ok { observed_bound = r.max_fiber_steps; schedules = r.schedules }

let pp_failure ppf f =
  match f.shrunk with
  | Some s -> Shrink.pp ppf s
  | None ->
      Format.fprintf ppf "@[<v>failing schedule (%d decisions, unshrunk):@,%s@]"
        (List.length f.forced) f.message
