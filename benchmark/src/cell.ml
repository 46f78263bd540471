(* One round of one (workload, configuration) cell, run in its own child
   process so that it has its own heap peak, GC state and warm-up.

   The round sets up (builds the queue or the scheduler: that is its
   set-up time) and starts the second domain, warms up uncounted for
   [warmup_ns], measures for [measure_ns], and checks every element:
   lost or duplicated elements, per-producer FIFO order on strict
   configurations, fan-out sums and undelivered events all count as
   failed operations, as does any exception a layer call raises. At most
   two domains are live. *)

module RA = Wfq_primitives.Real_atomic
module Queue_intf = Wfq_core.Queue_intf
module Metrics = Wfq_obsv.Metrics
module Sched = Wfq_sched.Sched

type params = {
  workload : string;
  config : Spec.config;
  seed : int;
  round : int;
  warmup_ns : int;
  measure_ns : int;
  backlog : int;
  trace : bool;
  spans_file : string option;
  inject_loss : int;  (** drop every n-th enqueue (0: never); tests only *)
}

let now = Clock.now
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

exception Deadline

(* How long a consumer keeps draining after the window for events still
   in flight; one not delivered by then is a failure. *)
let drain_ns = 2_000_000_000

type window = { t0 : int;  (** start of warm-up *) t_meas : int; t_stop : int }

let window p t0 =
  let t_meas = t0 + p.warmup_ns in
  { t0; t_meas; t_stop = t_meas + p.measure_ns }

let in_window w t = t >= w.t_meas && t < w.t_stop

(* --- the round's results ----------------------------------------------- *)

type result = {
  mutable setup_ns : int;
  mutable peak_heap_words : int;
  mutable ops : int;  (** completed in the window: queue ops, events or requests *)
  lat : Hist.t;
  lag : Hist.t;
  mutable gc : (Gc.stat * Gc.stat) option;  (** window start and end *)
  mutable span_ns : int;  (** domain time the traces cover, for busy shares *)
  mutable calls : int;  (** queue calls, for per-op layer ratios *)
  mutable batches : int;
  mutable solo : int;
  mutable empty : int;
  mutable deq_ok : int;
  mutable refused : int;
  mutable enq_ok : int;
  mutable counters : (string * int) list;  (** counter deltas over the round *)
  mutable steals_won : int;
  mutable steal_attempts : int;
  mutable sub_off_main : int;
  mutable sub_all : int;
  traces : Trace.t array;  (** one per domain, traced run only *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let new_result p =
  {
    setup_ns = 0;
    peak_heap_words = 0;
    ops = 0;
    lat = Hist.create ();
    lag = Hist.create ();
    gc = None;
    span_ns = 0;
    calls = 0;
    batches = 0;
    solo = 0;
    empty = 0;
    deq_ok = 0;
    refused = 0;
    enq_ok = 0;
    counters = [];
    steals_won = 0;
    steal_attempts = 0;
    sub_off_main = 0;
    sub_all = 0;
    traces =
      (if p.trace then
         Array.init Spec.domains (fun domain ->
             Trace.create ~domain
               ~capacity:(Trace.max_spans_per_cell / Spec.domains))
       else [||]);
    attempted = 0;
    failed = 0;
    errors = [];
  }

let fail (r : result) n msg =
  r.failed <- r.failed + n;
  r.errors <- msg :: r.errors

let trace_of r tid = if Array.length r.traces = 0 then None else Some r.traces.(tid)

(* Scalar counters of a metrics registry. Gauges are skipped: they poll
   the queue (a traversal) and are only meaningful at quiescence. *)
let counters = function
  | None -> []
  | Some reg ->
      List.filter_map
        (fun (name, m) ->
          match m with
          | Metrics.Counter _ | Metrics.Shared _ ->
              Option.map (fun v -> (name, v)) (Metrics.value reg name)
          | Metrics.Histogram _ | Metrics.Gauge _ -> None)
        (Metrics.entries reg)

let deltas s0 s1 =
  List.map (fun (n, v) -> (n, v - Option.value (List.assoc_opt n s0) ~default:0)) s1

(* --- element ledger --------------------------------------------------- *)

(* Elements are immediate ints: a sequence number shifted left by 2 over
   a 2-bit producer tag (0 and 1: the domains' tids, 2: the prefill).
   Producers keep the count, sum and sum of squares of what they sent
   (wrapping, as do the consumers), consumers the same of what they got
   per producer, so a lost or duplicated element shows at the end. *)
let prefill_tag = 2
let tags = 3

(* One domain's state: its ledger, its samples and its call counts.
   Each domain allocates its own. *)
type side = {
  tid : int;
  mutable ops : int;
  lat : Hist.t;
  lag : Hist.t;
  mutable sent : int;
  mutable sent_sum : int;
  mutable sent_sq : int;
  got : int array;
  got_sum : int array;
  got_sq : int array;
  last : int array;
  mutable inversions : int;
  mutable batches : int;  (** pair batches ending in the window *)
  mutable solo : int;  (** of which dropped: the other domain stalled *)
  mutable calls : int;
  mutable refused : int;
  mutable empty : int;
  mutable gc0 : Gc.stat option;
  mutable gc1 : Gc.stat option;
  mutable error : string option;
  tr : Trace.t option;
}

let new_side ~tr ~tid =
  {
    tid;
    ops = 0;
    lat = Hist.create ();
    lag = Hist.create ();
    sent = 0;
    sent_sum = 0;
    sent_sq = 0;
    got = Array.make tags 0;
    got_sum = Array.make tags 0;
    got_sq = Array.make tags 0;
    last = Array.make tags (-1);
    inversions = 0;
    batches = 0;
    solo = 0;
    calls = 0;
    refused = 0;
    empty = 0;
    gc0 = None;
    gc1 = None;
    error = None;
    tr;
  }

let note_sent s seq =
  s.sent <- s.sent + 1;
  s.sent_sum <- s.sent_sum + seq;
  s.sent_sq <- s.sent_sq + (seq * seq)

let consume ~strict s v =
  let p = v land 3 and seq = v lsr 2 in
  s.got.(p) <- s.got.(p) + 1;
  s.got_sum.(p) <- s.got_sum.(p) + seq;
  s.got_sq.(p) <- s.got_sq.(p) + (seq * seq);
  if strict then
    if seq <= s.last.(p) then s.inversions <- s.inversions + 1
    else s.last.(p) <- seq

(* Checks the ledger and folds the sides into the round's result. *)
let settle (r : result) w ~producers ~consumers ~sides =
  List.iter
    (fun (tag, (pr : side)) ->
      let got f =
        List.fold_left (fun acc c -> acc + (f c).(tag)) 0 consumers
      in
      let n = got (fun c -> c.got) in
      if n <> pr.sent then
        fail r (abs (n - pr.sent))
          (Printf.sprintf "producer %d: %d elements sent, %d received" tag
             pr.sent n)
      else if
        got (fun c -> c.got_sum) <> pr.sent_sum
        || got (fun c -> c.got_sq) <> pr.sent_sq
      then
        fail r 1
          (Printf.sprintf "producer %d: received elements differ from sent"
             tag))
    producers;
  List.iter
    (fun c ->
      if c.inversions > 0 then
        fail r c.inversions
          (Printf.sprintf "tid %d: %d per-producer FIFO inversions" c.tid
             c.inversions))
    consumers;
  List.iter
    (fun s ->
      Option.iter (fun e -> fail r 1 ("exception: " ^ e)) s.error;
      Hist.merge_into ~dst:r.lat s.lat;
      Hist.merge_into ~dst:r.lag s.lag;
      r.ops <- r.ops + s.ops;
      r.calls <- r.calls + s.calls;
      r.batches <- r.batches + s.batches;
      r.solo <- r.solo + s.solo;
      r.empty <- r.empty + s.empty;
      r.refused <- r.refused + s.refused;
      r.enq_ok <- r.enq_ok + s.sent;
      r.deq_ok <- r.deq_ok + Array.fold_left ( + ) 0 s.got;
      r.span_ns <- r.span_ns + (w.t_stop - w.t0);
      match (s.gc0, s.gc1) with
      | Some g0, Some g1 -> r.gc <- Some (g0, g1)
      | _ -> ())
    sides

(* --- queues --------------------------------------------------------- *)

(* The traced run attaches the backend's counters to a registry of the
   queue's own. *)
let make_queue p : Metrics.t option * int Queue_intf.instance =
  let registry = if p.trace then Some (Metrics.create ()) else None in
  let q =
    Wfq_core.Backends.instantiate p.config.backend
      ?obsv:(Option.map (fun r -> (r, "q")) registry)
      ~num_threads:Spec.domains ()
  in
  if p.inject_loss <= 0 then (registry, q)
  else
    let sent = Array.make Spec.domains 0 in
    ( registry,
      {
        q with
        try_enq =
          (fun ~tid v ->
            sent.(tid) <- sent.(tid) + 1;
            sent.(tid) mod p.inject_loss = 0 || q.try_enq ~tid v);
      } )

(* The set-up time is that of the layers' set-up calls: creating the
   queue or the scheduler and, on backlog, the prefill. Domain spawns,
   the benchmark's own or the scheduler's when it starts, are left out:
   their time is the kernel's and the hypervisor's, and it varied by
   half from round to round. The prefill is timed as the round
   makes it, first in its process. A cheap set-up is timed once the
   round is over and its heap peak read: [setup_reps] more set-ups, each
   after a full major collection, and their median. Without the
   collections a set-up that triggers the GC (the ring's slot array
   forces a minor collection) also paid for a varying share of the major
   GC's backlog, and its time varied by half from round to round; made
   before the round, they raised the round's heap peak. *)
let setup_reps = 15

let finish (r : result) ~timed_setup =
  r.peak_heap_words <- (Gc.quick_stat ()).top_heap_words;
  Option.iter
    (fun timed ->
      let times =
        Array.init setup_reps (fun _ ->
            Gc.full_major ();
            timed ())
      in
      Array.sort Int.compare times;
      r.setup_ns <- times.(setup_reps / 2))
    timed_setup

let timed_queue p () =
  let t0 = now () in
  ignore (Sys.opaque_identity (make_queue p));
  now () - t0

(* Spawns the second domain, which runs [other env t0], and waits until
   it is ready. Returns a function that starts both domains and returns
   the start time, and the second domain. *)
let start_two env ~other =
  let start = Atomic.make 0 and ready = Atomic.make false in
  let d =
    Affinity.spawn_second @@ fun () ->
    Domain.spawn (fun () ->
        Atomic.set ready true;
        let rec wait () =
          match Atomic.get start with
          | 0 ->
              Domain.cpu_relax ();
              wait ()
          | t0 -> t0
        in
        other env (wait ()))
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let go () =
    let t0 = now () in
    Atomic.set start t0;
    t0
  in
  (go, d)

let audit (r : result) (q : int Queue_intf.instance) =
  match q.check () with Ok () -> () | Error e -> fail r 1 ("audit: " ^ e)

(* --- pairs and backlog ------------------------------------------------ *)

(* A pair's time depends on whether the other domain is running: alone,
   a domain meets no contention, and kp-opt12's pairs then take less
   than half the time. On a host that deschedules a vCPU for
   milliseconds (hypervisor steal), a run would measure a varying mix of
   the two. So the samples are kept by batches of [batch_ns] (or
   [batch_max] pairs), and a batch only when the other domain completed
   a pair meanwhile. A batch of 64 pairs was too short: the ring's
   domains take turns for that long on their own. Each domain counts
   its completed pairs in [progress] at [progress_slot tid], a plain
   store per pair on a cache line of its own, which the other domain
   reads twice per batch. *)
let batch_ns = 1_000_000
let batch_max = 4096
let progress_slot tid = 16 * tid

let pairs_side p (q : int Queue_intf.instance) w ~progress ~tr ~tid =
  let s = new_side ~tr ~tid in
  let strict = p.config.strict in
  let give_up n = n land 1023 = 1023 && now () >= w.t_stop in
  let rec enq v n =
    s.calls <- s.calls + 1;
    if not (q.try_enq ~tid v) then begin
      s.refused <- s.refused + 1;
      if give_up n then raise_notrace Deadline;
      Domain.cpu_relax ();
      enq v (n + 1)
    end
  in
  let rec deq n =
    s.calls <- s.calls + 1;
    match q.deq ~tid with
    | Some v -> consume ~strict s v
    | None ->
        s.empty <- s.empty + 1;
        if give_up n then raise_notrace Deadline;
        Domain.cpu_relax ();
        deq (n + 1)
  in
  (* One clock read per pair: a pair's latency sample runs from the end
     of the previous pair to the end of this one. *)
  let pair i =
    let seq = s.sent in
    match s.tr with
    | None ->
        enq ((seq lsl 2) lor tid) 0;
        note_sent s seq;
        deq 0;
        now ()
    | Some tr ->
        let id = (i lsl 1) lor tid in
        let ta = now () in
        enq ((seq lsl 2) lor tid) 0;
        note_sent s seq;
        let tb = now () in
        deq 0;
        let tc = now () in
        Trace.span tr Trace.core_enq ~parent:Trace.no_parent ~id ta tb;
        Trace.span tr Trace.core_deq ~parent:Trace.no_parent ~id tb tc;
        tc
  in
  let samples = Array.make batch_max 0 in
  let kept = ref 0 in
  let mine = progress_slot tid and other = progress_slot (1 - tid) in
  (* A batch from pair [i], begun at time [start]. *)
  let rec loop i start =
    let other0 = progress.(other) in
    let rec fill j last =
      let t = pair (i + j) in
      progress.(mine) <- i + j + 1;
      samples.(j) <- (if in_window w t then t - last else -1);
      if j + 1 < batch_max && t - start < batch_ns then fill (j + 1) t else (j + 1, t)
    in
    let n, t = fill 0 start in
    let overlapped = progress.(other) > other0 in
    if in_window w t then begin
      if tid = 0 && s.gc0 = None then s.gc0 <- Some (Gc.quick_stat ());
      s.batches <- s.batches + 1;
      if overlapped then incr kept
    end;
    for j = 0 to n - 1 do
      let d = samples.(j) in
      if d >= 0 then begin
        s.ops <- s.ops + 2;
        if overlapped then Hist.add s.lat d
      end
    done;
    if t < w.t_stop then loop (i + n) t
    else if tid = 0 then s.gc1 <- Some (Gc.quick_stat ())
  in
  (try loop 0 (now ()) with
  | Deadline -> ()
  | e -> s.error <- Some (Printexc.to_string e));
  s.solo <- s.batches - !kept;
  s

let pairs p (r : result) ~prefill =
  let pre = new_side ~tr:None ~tid:prefill_tag in
  let t_a = now () in
  let registry, q = make_queue p in
  for seq = 0 to prefill - 1 do
    if not (q.try_enq ~tid:0 ((seq lsl 2) lor prefill_tag)) then
      failwith "prefill refused";
    note_sent pre seq
  done;
  r.setup_ns <- now () - t_a;
  let progress = Array.make (progress_slot Spec.domains) 0 in
  let go, d =
    start_two q ~other:(fun q t0 ->
        pairs_side p q (window p t0) ~progress ~tr:(trace_of r 1) ~tid:1)
  in
  let snap0 = counters registry in
  let w = window p (go ()) in
  let s0 = pairs_side p q w ~progress ~tr:(trace_of r 0) ~tid:0 in
  let s1 = Domain.join d in
  r.counters <- deltas snap0 (counters registry);
  (* What is left (the backlog) drains into tid 0's ledger. *)
  let rec drain () =
    match q.deq_batch ~tid:0 ~n:4096 with
    | [] -> ()
    | l ->
        List.iter (consume ~strict:p.config.strict s0) l;
        drain ()
  in
  drain ();
  audit r q;
  settle r w
    ~producers:[ (0, s0); (1, s1); (prefill_tag, pre) ]
    ~consumers:[ s0; s1 ] ~sides:[ s0; s1 ];
  r.attempted <- s0.calls + s1.calls;
  finish r ~timed_setup:(if prefill > 0 then None else Some (timed_queue p))

(* --- handoff ---------------------------------------------------------- *)

let rec spin_until t =
  let n = now () in
  if n < t then begin
    Domain.cpu_relax ();
    spin_until t
  end
  else n

(* The producer sends at seeded Poisson times. An element carries its
   intended send time (ns after [t0]) as its sequence number, so the
   consumer times it from when it was due, however late it was sent. *)
let handoff_producer p (q : int Queue_intf.instance) w ~tr ~sent_total =
  let s = new_side ~tr ~tid:0 in
  let rng = Random.State.make [| p.seed; p.round; 0x68616e64 |] in
  let mean_gap = 1e9 /. float_of_int Spec.handoff_rate in
  let gap () =
    max 1 (int_of_float (-.mean_gap *. log (1. -. Random.State.float rng 1.)))
  in
  let rec enq v n =
    s.calls <- s.calls + 1;
    if not (q.try_enq ~tid:0 v) then begin
      s.refused <- s.refused + 1;
      if n land 1023 = 1023 && now () >= w.t_stop + drain_ns then
        raise_notrace Deadline;
      Domain.cpu_relax ();
      enq v (n + 1)
    end
  in
  let horizon = w.t_stop - w.t0 in
  let rec loop rel =
    if rel < horizon then begin
      let intended = w.t0 + rel in
      let t_send = spin_until intended in
      if intended >= w.t_meas then begin
        Hist.add s.lag (t_send - intended);
        if s.gc0 = None then s.gc0 <- Some (Gc.quick_stat ())
      end;
      enq (rel lsl 2) 0;
      note_sent s rel;
      (match s.tr with
      | None -> ()
      | Some tr ->
          let t_done = now () in
          Trace.span tr Trace.gen_wait ~parent:Trace.event ~id:rel intended
            t_send;
          Trace.span tr Trace.core_enq ~parent:Trace.event ~id:rel t_send
            t_done);
      loop (rel + gap ())
    end
  in
  (try loop (gap ()) with
  | Deadline -> ()
  | e -> s.error <- Some (Printexc.to_string e));
  s.gc1 <- Some (Gc.quick_stat ());
  Atomic.set sent_total s.sent;
  s

let handoff_consumer p (q : int Queue_intf.instance) w ~tr ~sent_total =
  let s = new_side ~tr ~tid:1 in
  let strict = p.config.strict in
  let rec loop polls =
    s.calls <- s.calls + 1;
    let ta = match s.tr with Some _ -> now () | None -> 0 in
    match q.deq ~tid:1 with
    | Some v ->
        let t = now () in
        consume ~strict s v;
        let rel = v lsr 2 in
        let intended = w.t0 + rel in
        if in_window w intended then Hist.add s.lat (t - intended);
        if in_window w t then s.ops <- s.ops + 1;
        (match s.tr with
        | None -> ()
        | Some tr ->
            Trace.span tr Trace.core_deq ~parent:Trace.event ~id:rel ta t;
            Trace.span tr Trace.event ~parent:Trace.no_parent ~id:rel intended
              t);
        loop 0
    | None ->
        s.empty <- s.empty + 1;
        Option.iter
          (fun tr -> Trace.record tr Trace.core_deq_empty (now () - ta))
          s.tr;
        let total = Atomic.get sent_total in
        if total >= 0 && s.got.(0) >= total then ()
        else if polls land 1023 = 1023 && now () >= w.t_stop + drain_ns then ()
        else begin
          Domain.cpu_relax ();
          loop (polls + 1)
        end
  in
  (try loop 0 with e -> s.error <- Some (Printexc.to_string e));
  s

let handoff p (r : result) =
  let registry, q = make_queue p in
  let sent_total = Atomic.make (-1) in
  let go, d =
    start_two q ~other:(fun q t0 ->
        handoff_consumer p q (window p t0) ~tr:(trace_of r 1) ~sent_total)
  in
  let snap0 = counters registry in
  let w = window p (go ()) in
  let s0 = handoff_producer p q w ~tr:(trace_of r 0) ~sent_total in
  let s1 = Domain.join d in
  r.counters <- deltas snap0 (counters registry);
  audit r q;
  settle r w ~producers:[ (0, s0) ] ~consumers:[ s1 ] ~sides:[ s0; s1 ];
  r.attempted <- s0.sent;
  finish r ~timed_setup:(Some (timed_queue p))

(* --- fanout ----------------------------------------------------------- *)

(* CPU work of a request: a dependent multiply-add chain the compiler
   cannot drop, [n] steps. *)
let burn n seed =
  let x = ref seed in
  for _ = 1 to n do
    x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF
  done;
  !x

let burn_before = 1000
let burn_sub = 200
let burn_after = 1000

(* The configuration's backend with its calls timed, for the traced
   fanout run: the scheduler reaches the queue layer only through its
   run-queues, so this wrapper is where the core spans are taken. It
   also attaches all of the backend's counters, where [Sched.Rq_of]
   attaches only the always-on ones. *)
let timed (module B : Queue_intf.BACKEND) ~registry ~trace :
    (module Queue_intf.BACKEND) =
  (module struct
    let id = B.id
    let label = B.label
    let family = B.family
    let capacity = B.capacity
    let sim_safe = B.sim_safe

    module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
      module Q = B.Make (A)
      include Q

      let created = ref 0

      let create ?obsv:_ ?pool ~num_threads () =
        let prefix = Printf.sprintf "rq%d" !created in
        incr created;
        Q.create ~obsv:(registry, prefix) ?pool ~num_threads ()

      let register_metrics _ _ ~prefix:_ = ()

      let record name t0 =
        Option.iter (fun tr -> Trace.record tr name (now () - t0)) (trace ())

      let enqueue q ~tid v =
        let t0 = now () in
        Q.enqueue q ~tid v;
        record Trace.core_enq t0

      let enqueue_batch q ~tid vs =
        let t0 = now () in
        Q.enqueue_batch q ~tid vs;
        record Trace.core_enq t0

      let dequeue q ~tid =
        let t0 = now () in
        let v = Q.dequeue q ~tid in
        record (if Option.is_some v then Trace.core_deq else Trace.core_deq_empty) t0;
        v
    end
  end)

(* What one worker domain records, reached through domain-local storage
   by whichever fiber runs there: the cell's first domain gets the first
   record, the scheduler's second worker the second. *)
type worker = {
  mutable subfibers : int;
  mutable sink : int;
  w_tr : Trace.t option;
}

(* One client fiber (the scheduler's main fiber) issues requests back to
   back; each request's subfibers are spread over the two workers by
   stealing. *)
let fanout p (r : result) =
  let main_domain = (Domain.self () :> int) in
  let workers =
    Array.init Spec.domains (fun i -> { subfibers = 0; sink = 0; w_tr = trace_of r i })
  in
  let key =
    Domain.DLS.new_key (fun () ->
        workers.(if (Domain.self () :> int) = main_domain then 0 else 1))
  in
  let registry = if p.trace then Some (Metrics.create ()) else None in
  let backend =
    match registry with
    | None -> p.config.backend
    | Some registry ->
        timed p.config.backend ~registry ~trace:(fun () -> (Domain.DLS.get key).w_tr)
  in
  let module B = (val backend : Queue_intf.BACKEND) in
  let module S = Sched.Make (RA) (Sched.Rq_of (B) (RA)) in
  let traced = p.trace in
  let span name ~parent ~id t0 t1 =
    Option.iter (fun tr -> Trace.span tr name ~parent ~id t0 t1) (Domain.DLS.get key).w_tr
  in
  let subfiber id i () =
    let t0 = if traced then now () else 0 in
    S.yield ();
    if traced then span Trace.sched_yield ~parent:Trace.request ~id t0 (now ());
    let wk = Domain.DLS.get key in
    wk.subfibers <- wk.subfibers + 1;
    wk.sink <- wk.sink lxor burn burn_sub (id + i);
    id + i
  in
  let started = ref 0 and bad_sums = ref 0 and sink = ref 0 in
  let gc0 = ref None and gc1 = ref None in
  let client w =
    let rng = Random.State.make [| p.seed; p.round; 0x66616e |] in
    let rec loop id =
      let start = now () in
      if !gc0 = None && start >= w.t_meas then gc0 := Some (Gc.quick_stat ());
      if start >= w.t_stop then gc1 := Some (Gc.quick_stat ())
      else begin
        incr started;
        let x = burn burn_before id in
        let k =
          Spec.fanout_min
          + Random.State.int rng (Spec.fanout_max - Spec.fanout_min + 1)
        in
        let t1 = if traced then now () else 0 in
        let ps = S.spawn_many (List.init k (subfiber id)) in
        let t2 = if traced then now () else 0 in
        let sum = List.fold_left (fun acc pr -> acc + S.await pr) 0 ps in
        let t3 = if traced then now () else 0 in
        sink := !sink lxor burn burn_after (x lxor sum);
        let stop = now () in
        if sum <> (k * id) + (k * (k - 1) / 2) then incr bad_sums;
        if in_window w stop then begin
          r.ops <- r.ops + 1;
          Hist.add r.lat (stop - start)
        end;
        if traced then begin
          span Trace.sched_spawn ~parent:Trace.request ~id t1 t2;
          span Trace.sched_await ~parent:Trace.request ~id t2 t3;
          span Trace.request ~parent:Trace.no_parent ~id start stop
        end;
        loop (id + 1)
      end
    in
    loop 0
  in
  let sched = S.create ~num_workers:Spec.domains () in
  Option.iter (fun reg -> S.register_metrics sched reg ~prefix:"sched") registry;
  let snap0 = counters registry in
  let w = ref None in
  (try
     Affinity.spawn_second @@ fun () ->
     S.run sched (fun () ->
         (* The second worker started on the second CPU; whichever
            worker runs the main fiber binds itself to the first. *)
         ignore (Affinity.pin 0);
         let win = window p (now ()) in
         w := Some win;
         client win)
   with e -> fail r 1 ("exception: " ^ Printexc.to_string e));
  r.counters <- deltas snap0 (counters registry);
  (match (!gc0, !gc1) with Some g0, Some g1 -> r.gc <- Some (g0, g1) | _ -> ());
  Option.iter (fun w -> r.span_ns <- Spec.domains * (w.t_stop - w.t0)) !w;
  r.attempted <- !started;
  if !bad_sums > 0 then fail r !bad_sums (Printf.sprintf "%d wrong fan-out sums" !bad_sums);
  r.steals_won <- S.steals_won sched;
  r.steal_attempts <- S.steal_attempts sched;
  r.sub_off_main <- workers.(1).subfibers;
  r.sub_all <- workers.(0).subfibers + workers.(1).subfibers;
  finish r
    ~timed_setup:
      (Some
         (fun () ->
           let t_a = now () in
           ignore (Sys.opaque_identity (S.create ~num_workers:Spec.domains ()));
           now () - t_a))

(* --- report ------------------------------------------------------------ *)

(* Per-layer ratios from the counters the queue, shard, pool and
   scheduler layers already keep; [ops] is the number of queue
   operations they cover. A layer a configuration does not have reads
   0. *)
let layer_counters ~ops deltas =
  let matching suffix =
    List.filter_map
      (fun (n, v) -> if String.ends_with ~suffix n then Some v else None)
      deltas
  in
  let d suffix = List.fold_left ( + ) 0 (matching suffix) in
  let per_op x = ratio x ops in
  let hit pool =
    let reused = d (pool ^ ".reused") in
    ratio reused (reused + d (pool ^ ".fresh"))
  in
  let deqs = d ".dequeues" and sweeps = d ".empty_sweeps" in
  let per_shard = matching ".enqueues" in
  let imbalance =
    match per_shard with
    | [] -> 0.
    | l ->
        let total = List.fold_left ( + ) 0 l in
        if total = 0 then 0.
        else
          (float_of_int (List.fold_left max 0 l)
          *. float_of_int (List.length l) /. float_of_int total)
          -. 1.
  in
  [
    ("help.slow_frac", per_op (d ".slow_entries"));
    ("help.help_events_per_op", per_op (d ".help_events"));
    ( "help.cas_fail_per_op",
      per_op (d ".desc_cas_failures" + d ".fast_rounds" + d ".fast_retries") );
    ("pool.node_hit_frac", hit ".nodes");
    ("pool.desc_hit_frac", hit ".descs");
    ("shard.steal_frac", ratio (d ".steals") deqs);
    ("shard.empty_sweep_frac", ratio sweeps (deqs + sweeps));
    ("shard.imbalance", imbalance);
  ]

(* Every metric of the round, by base name. The parent keeps the
   end-to-end ones and the GC, generator and tail figures from untraced
   rounds, and the rest from traced ones. *)
let report p (r : result) =
  let q h x = Hist.quantile h x in
  let per_op x = if r.ops = 0 then 0. else x /. float_of_int r.ops in
  let window_s = float_of_int p.measure_ns /. 1e9 in
  let gc f = match r.gc with Some (g0, g1) -> f g0 g1 | None -> 0. in
  let trs = Array.to_list r.traces in
  let count name = Hist.count (Trace.durations trs name) in
  let span_q name x = q (Trace.durations trs name) x in
  let fanout = p.workload = "fanout" in
  let peak_heap_mb = float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1e6 in
  [
    ("setup_s", float_of_int r.setup_ns /. 1e9);
    ("latency_p50_us", q r.lat 0.5 /. 1e3);
    ("peak_heap_mb", peak_heap_mb);
    ("tail.p99_us", q r.lat 0.99 /. 1e3);
    ("tail.p999_us", q r.lat 0.999 /. 1e3);
    ("tail.over_100us_frac", Hist.frac_above r.lat 100_000);
    ("gc.minor_words_per_op", per_op (gc (fun g0 g1 -> g1.minor_words -. g0.minor_words)));
    ( "gc.promoted_words_per_op",
      per_op (gc (fun g0 g1 -> g1.promoted_words -. g0.promoted_words)) );
    ( "gc.minor_per_s",
      gc (fun g0 g1 -> float_of_int (g1.minor_collections - g0.minor_collections))
      /. window_s );
    ( "gc.major_collections",
      gc (fun g0 g1 -> float_of_int (g1.major_collections - g0.major_collections)) );
    ("gen.lag_p50_us", q r.lag 0.5 /. 1e3);
    ("gen.lag_p99_us", q r.lag 0.99 /. 1e3);
    ("gen.late_frac", Hist.frac_above r.lag 10_000);
    ("gen.solo_frac", ratio r.solo r.batches);
    ("core.enq_refused_frac", ratio r.refused (r.enq_ok + r.refused));
    ("sched.steal_win_frac", ratio r.steals_won r.steal_attempts);
    ("sched.offmain_frac", ratio r.sub_off_main r.sub_all);
    ( "core.deq_empty_frac",
      if fanout then
        ratio (count Trace.core_deq_empty)
          (count Trace.core_deq + count Trace.core_deq_empty)
      else ratio r.empty (r.deq_ok + r.empty) );
  ]
  @
  if not p.trace then []
  else
    let busy =
      List.fold_left
        (fun acc n -> acc + Trace.total_ns trs n)
        0
        [ Trace.core_enq; Trace.core_deq; Trace.core_deq_empty ]
    in
    let queue_ops =
      if fanout then
        List.fold_left
          (fun acc (n, v) ->
            if String.ends_with ~suffix:".pushes" n || String.ends_with ~suffix:".takes" n
            then acc + v
            else acc)
          0 r.counters
      else r.calls
    in
    [
      ("core.enq_ns_p50", span_q Trace.core_enq 0.5);
      ("core.enq_ns_p99", span_q Trace.core_enq 0.99);
      ("core.deq_ns_p50", span_q Trace.core_deq 0.5);
      ("core.deq_ns_p99", span_q Trace.core_deq 0.99);
      ("core.busy_frac", ratio busy r.span_ns);
      ("sched.spawn_ns_p50", span_q Trace.sched_spawn 0.5);
      ("sched.await_us_p50", span_q Trace.sched_await 0.5 /. 1e3);
      ("sched.yield_ns_p50", span_q Trace.sched_yield 0.5);
      ( "sched.await_frac",
        ratio (Trace.total_ns trs Trace.sched_await) (Trace.total_ns trs Trace.request) );
    ]
    @ layer_counters ~ops:queue_ops r.counters

(* --- entry ------------------------------------------------------------ *)

let run p =
  let r = new_result p in
  ignore (Affinity.pin 0);
  (try
     match p.workload with
     | "pairs" -> pairs p r ~prefill:0
     | "backlog" ->
         let (module B : Queue_intf.BACKEND) = p.config.backend in
         let prefill =
           match B.capacity with
           | None -> p.backlog
           | Some cap -> min p.backlog (cap - (2 * Spec.domains))
         in
         pairs p r ~prefill
     | "handoff" -> handoff p r
     | "fanout" -> fanout p r
     | w -> invalid_arg ("unknown workload " ^ w)
   with e -> fail r 1 ("exception: " ^ Printexc.to_string e));
  let trs = Array.to_list r.traces in
  Option.iter (fun path -> Trace.write_chrome path trs) p.spans_file;
  Json.Obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (report p r)));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("errors", Json.Arr (List.rev_map (fun e -> Json.Str e) r.errors));
      ("spans", if trs = [] then Json.Null else Trace.summary trs);
    ]
