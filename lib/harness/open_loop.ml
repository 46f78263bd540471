(** Open-loop load engine with coordinated-omission-safe latency
    recording (docs/LATENCY.md).

    Producers follow a pre-generated {!Arrivals} schedule: each event
    has an {e intended} send time fixed before the run, and every
    recorded latency is measured from that intended time on the
    monotonic clock ([Wfq_benchmark.Clock]):

    - enqueue latency = enqueue completion - intended send time. A
      producer that falls behind (scheduling, a full bounded queue
      exerting backpressure) accrues the delay into its samples instead
      of silently stretching the schedule.
    - sojourn latency = dequeue completion - intended send time: the
      end-to-end number an operator's SLO is about. The element
      {e carries} its intended time as the payload, so the consumer
      needs no side channel.

    A closed-loop loop (each thread fires as fast as its previous op
    returns) cannot see queueing delay: when a consumer stalls, the
    closed loop simply issues fewer operations and each one still
    measures a short service time — the classic coordinated-omission
    trap. Here the schedule does not yield: arrivals keep their
    intended times, the backlog drains late, and every late element's
    sojourn includes the stall it actually suffered. {!simulate} pins
    exactly this contrast deterministically; stall injection in {!run}
    reproduces it on real domains. *)

module Stats = Wfq_primitives.Stats

let now_ns = Wfq_benchmark.Clock.now

(* Hybrid wait: nanosleep down to [spin_budget_ns] before the deadline,
   then spin on the clock. Pure spinning would be more precise on a
   dedicated core, but on shared (and single-core) hosts a spinning
   waiter steals the quantum from the very consumer it is generating
   load for; sleeping releases the core and the short final spin
   absorbs the wakeup jitter. *)
let spin_budget_ns = 150_000

let wait_until ns =
  let remaining = ns - now_ns () in
  if remaining > spin_budget_ns then
    Unix.sleepf (float_of_int (remaining - spin_budget_ns) *. 1e-9);
  while now_ns () < ns do
    Domain.cpu_relax ()
  done

type dist = {
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
  samples : int;
}
(** Nanoseconds, nearest-rank over the exact samples. *)

let dist_of_ns ns_list =
  (* [ns_list] are int-ns arrays per worker slot; concatenate once. *)
  let total = List.fold_left (fun a (_, n) -> a + n) 0 ns_list in
  if total = 0 then { p50 = 0.; p99 = 0.; p999 = 0.; max = 0.; samples = 0 }
  else begin
    let all = Array.make total 0.0 in
    let k = ref 0 in
    List.iter
      (fun (arr, n) ->
        for i = 0 to n - 1 do
          all.(!k) <- float_of_int arr.(i);
          incr k
        done)
      ns_list;
    match Stats.percentiles_in_place all [ 50.0; 99.0; 99.9; 100.0 ] with
    | [ p50; p99; p999; max ] -> { p50; p99; p999; max; samples = total }
    | _ -> assert false
  end

type stall = { victim : int; after : int; duration_ns : int }

type config = {
  producers : int;
  consumers : int;
  rate : float;  (** offered load, events/s across all producers *)
  events : int;
  pattern : Arrivals.pattern;
  skew : float;  (** producer-assignment skew, {!Arrivals.split} *)
  seed : int;
  stall : stall option;
}

let default_config =
  {
    producers = 1;
    consumers = 1;
    rate = 10_000.0;
    events = 10_000;
    pattern = Arrivals.Poisson;
    skew = 0.0;
    seed = 42;
    stall = None;
  }

type result = {
  enq : dist;
  sojourn : dist;
  duration_s : float;  (** first intended send to last dequeue *)
  offered_rate : float;
  achieved_rate : float;  (** events / duration *)
}

let validate cfg =
  if cfg.producers <= 0 || cfg.consumers <= 0 then
    invalid_arg "Open_loop.run: producers/consumers must be positive";
  if cfg.events <= 0 then invalid_arg "Open_loop.run: events must be positive";
  (match cfg.stall with
  | Some s ->
      if s.victim < 0 || s.victim >= cfg.consumers then
        invalid_arg "Open_loop.run: stall victim out of range";
      if s.duration_ns < 0 || s.after < 0 then
        invalid_arg "Open_loop.run: stall parameters must be non-negative"
  | None -> ())

let run cfg (module Q : Impls.BENCH_QUEUE) =
  validate cfg;
  if not (Float.is_finite cfg.rate) || cfg.rate <= 0.0 then
    invalid_arg "Open_loop.run: rate must be positive";
  let schedule =
    Arrivals.generate cfg.pattern ~seed:cfg.seed ~rate:cfg.rate ~n:cfg.events
  in
  let subs =
    Arrivals.split schedule ~workers:cfg.producers ~skew:cfg.skew
      ~seed:(cfg.seed + 1)
  in
  let threads = cfg.producers + cfg.consumers in
  let q = Q.create ~num_threads:(threads + 1) in
  (* Exact samples, preallocated so the hot loops allocate nothing. *)
  let enq_lat = Array.map (fun s -> Array.make (max 1 (Array.length s)) 0) subs in
  let soj_lat = Array.init cfg.consumers (fun _ -> Array.make cfg.events 0) in
  let soj_count = Array.make cfg.consumers 0 in
  let consumed = Atomic.make 0 in
  let last_deq_ns = Atomic.make 0 in
  Gc.full_major ();
  let barrier = Barrier.create (threads + 1) in
  (* t0 is chosen after the barrier releases, with a small runway so no
     intended time is already in the past when producers start. *)
  let t0 = ref 0 in
  let producer p () =
    Barrier.wait barrier;
    let tid = p in
    let sched = subs.(p) in
    let lat = enq_lat.(p) in
    let t0 = !t0 in
    for i = 0 to Array.length sched - 1 do
      let intended = t0 + sched.(i) in
      wait_until intended;
      Q.enqueue q ~tid sched.(i);
      lat.(i) <- now_ns () - intended
    done
  in
  let consumer c () =
    Barrier.wait barrier;
    let tid = cfg.producers + c in
    let lat = soj_lat.(c) in
    let t0 = !t0 in
    let local = ref 0 in
    let stall = cfg.stall in
    while Atomic.get consumed < cfg.events do
      match Q.dequeue q ~tid with
      | Some intended_rel ->
          let now = now_ns () in
          lat.(!local) <- now - (t0 + intended_rel);
          incr local;
          Atomic.incr consumed;
          (* racy max is fine: any of the final dequeues bounds it *)
          if now > Atomic.get last_deq_ns then Atomic.set last_deq_ns now;
          (match stall with
          | Some s when s.victim = c && !local = s.after ->
              (* The injected outage: this consumer goes dark for
                 [duration_ns] while the schedule keeps arriving. *)
              wait_until (now + s.duration_ns)
          | _ -> ())
      | None -> Domain.cpu_relax ()
    done;
    soj_count.(c) <- !local
  in
  let domains =
    List.init threads (fun i ->
        if i < cfg.producers then Domain.spawn (producer i)
        else Domain.spawn (consumer (i - cfg.producers)))
  in
  (* 2 ms runway between the release and the first possible intended
     time, enough for every domain to clear the barrier. *)
  t0 := now_ns () + 2_000_000;
  Barrier.wait barrier;
  List.iter Domain.join domains;
  let consumed_total = Array.fold_left ( + ) 0 soj_count in
  if consumed_total <> cfg.events then
    failwith
      (Printf.sprintf "Open_loop.run: %s consumed %d of %d events" Q.name
         consumed_total cfg.events);
  (match Q.dequeue q ~tid:threads with
  | Some _ -> failwith (Printf.sprintf "Open_loop.run: %s not drained" Q.name)
  | None -> ());
  let duration_ns = Atomic.get last_deq_ns - (!t0 + schedule.(0)) in
  let duration_s = float_of_int (max 1 duration_ns) *. 1e-9 in
  {
    enq =
      dist_of_ns
        (Array.to_list
           (Array.mapi (fun p a -> (a, Array.length subs.(p))) enq_lat));
    sojourn =
      dist_of_ns
        (Array.to_list (Array.mapi (fun c a -> (a, soj_count.(c))) soj_lat));
    duration_s;
    offered_rate = cfg.rate;
    achieved_rate = float_of_int cfg.events /. duration_s;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic virtual-time simulation                               *)
(* ------------------------------------------------------------------ *)

type sim_result = {
  open_loop : dist;  (** completion - intended send time *)
  closed_loop : dist;
      (** completion - service start: what a timestamp-around-the-call
          measurement (a closed loop) reports
          for the same execution *)
}

(* Single-server queue in virtual time (Lindley recurrence): service of
   event [i] starts at max(intended_i, previous completion), takes
   [service_ns], and the server additionally goes dark for
   [s.duration_ns] after its [s.after]-th completion. The real queue
   impl is driven underneath — every event is enqueued before its
   service and dequeued at it, in intended order — so the simulation
   also checks FIFO delivery of the impl it models.

   The two distributions come from the same execution: [open_loop]
   timestamps from the intended send time (what this PR's engine
   records), [closed_loop] from the service start (what a
   timestamp-around-the-call harness records). Under a stall the
   backlog's open-loop samples grow by the whole remaining outage while
   closed-loop sees one long sample and [n-1] short ones — the
   coordinated-omission gap, pinned in test_openloop.ml. *)
let simulate ?(service_ns = 1_000) ?stall ~pattern ~seed ~rate ~events
    (module Q : Impls.BENCH_QUEUE) =
  if service_ns <= 0 then
    invalid_arg "Open_loop.simulate: service_ns must be positive";
  let schedule = Arrivals.generate pattern ~seed ~rate ~n:events in
  let q = Q.create ~num_threads:1 in
  let open_lat = Array.make events 0 in
  let closed_lat = Array.make events 0 in
  let enq_idx = ref 0 in
  let free_at = ref 0 in
  for i = 0 to events - 1 do
    let start = max schedule.(i) !free_at in
    (* Everything that has arrived by the service start is already in
       the queue — in particular event [i] itself. *)
    while !enq_idx < events && schedule.(!enq_idx) <= start do
      Q.enqueue q ~tid:0 !enq_idx;
      incr enq_idx
    done;
    (match Q.dequeue q ~tid:0 with
    | Some j when j = i -> ()
    | Some j ->
        failwith
          (Printf.sprintf "Open_loop.simulate: %s broke FIFO (%d before %d)"
             Q.name j i)
    | None ->
        failwith
          (Printf.sprintf "Open_loop.simulate: %s empty at event %d" Q.name i));
    let completion = start + service_ns in
    let completion =
      match stall with
      | Some s when i = s.after -> completion + s.duration_ns
      | _ -> completion
    in
    open_lat.(i) <- completion - schedule.(i);
    closed_lat.(i) <- completion - start;
    free_at := completion
  done;
  {
    open_loop = dist_of_ns [ (open_lat, events) ];
    closed_loop = dist_of_ns [ (closed_lat, events) ];
  }

(* ------------------------------------------------------------------ *)
(* Saturation knee                                                     *)
(* ------------------------------------------------------------------ *)

(* First offered load whose p99 exceeds [mult] x the lowest offered
   load's p99 (the low-load baseline). [None] if the curve never
   crosses — the backend kept its tail through the whole sweep. *)
let knee ?(mult = 4.0) points =
  match List.sort (fun (a, _) (b, _) -> Float.compare a b) points with
  | [] -> invalid_arg "Open_loop.knee: empty curve"
  | (_, baseline) :: _ as sorted ->
      let threshold = mult *. baseline in
      List.find_map
        (fun (load, p99) -> if p99 > threshold then Some load else None)
        sorted
