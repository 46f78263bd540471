(** Sharded, batched front-end over [N] independent Kogan-Petrank
    queues. See the interface for the ordering contract; the short
    version: strict FIFO per shard, bounded ("k-relaxed") reordering
    across shards, steal-on-empty dequeue sweeps.

    Shard selection is the only new shared state on the hot path and it
    is a single fetch-and-add ticket (or nothing, for [Tid_affine]), so
    the front-end inherits wait-freedom from the shards: an enqueue is
    one ticket plus one KP enqueue; a dequeue is one ticket plus at most
    [N] KP dequeues.

    Hot-path discipline: everything the front-end adds per operation
    must stay cheaper than the contention it removes. Statistics are
    therefore [Wfq_obsv.Counter] cells — per-tid single-writer padded
    plain ints, one counter per shard (exact at quiescence, no shared
    cache line, no RMW). Keeping them off the simulated-atomic plane
    means model checking explores only algorithm-relevant
    interleavings.

    Quiescence detection: every public operation bumps its tid's
    [op_seq] cell on entry (to odd) and exit (to even).
    [check_quiescent_invariants] uses the cells to make its stats/length
    cross-checks {e vacuously true} unless the whole check ran inside a
    quiescent window — so it can never fail spuriously when called
    concurrently with operations, which the racy snapshot-vs-length
    comparison it replaces could. *)

type policy = Round_robin | Tid_affine

type backend = Registered of string

type shard_stats = {
  enqueues : int;
  dequeues : int;
  steals : int;
  empty_sweeps : int;
}

module Qi = Wfq_core.Queue_intf
module Line = Wfq_obsv.Line

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  (* Per-shard queue: any {!Wfq_core.Queue_intf.instance} — all
     registered backends are wait-free strict FIFOs, so the front-end's
     ordering and progress contracts are backend-independent (bounded
     backends additionally bound each shard — see the interface). The
     closure-record indirection costs one indirect call, negligible next
     to the atomic traffic of the operation itself, and a new backend
     needs no edit here at all: [Registered id] reaches it through
     {!Wfq_core.Backends}. *)

  type 'a t = {
    shards : 'a Qi.instance array;
    n : int;
    policy : policy;
    backend : backend;
    enq_ticket : int A.t;
    deq_ticket : int A.t;
    (* Per-shard counters, each with one single-writer slot per tid. *)
    s_enq : Wfq_obsv.Counter.t array;
    s_deq : Wfq_obsv.Counter.t array;
    s_steal : Wfq_obsv.Counter.t array;
    s_sweep : Wfq_obsv.Counter.t array;
    (* Per-tid operation sequence: odd while an operation is in flight,
       even between operations (two plain stores per op). The explicit
       quiescence witness for [check_quiescent_invariants]. *)
    op_seq : Wfq_obsv.Counter.t;
    (* Single-writer probe slots, one {!Line} slot per tid: every
       operation stores its tid's shard. *)
    last_enq_shard : int array;
    last_deq_shard : int array;
    (* Backend batch operations performed by the tid's most recent
       batch op — the cost-contract probe the tests pin. *)
    last_enq_batch_calls : int array;
    last_deq_batch_calls : int array;
  }

  let name = "wf-shard"

  let create ?(policy = Round_robin) ?(backend = Registered "kp-opt12")
      ?(shards = 4) ~num_threads () =
    if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
    if num_threads <= 0 then invalid_arg "Shard.create: num_threads";
    (* Resolve the backend here, with one uniform message, so a bad
       configuration fails before any shard is allocated. *)
    let (Registered id) = backend in
    let b =
      match Wfq_core.Backends.find id with
      | b -> b
      | exception Invalid_argument _ ->
          invalid_arg
            (Printf.sprintf
               "Shard.create: invalid backend configuration (Registered: \
                unknown backend %S; known: %s)"
               id
               (String.concat ", " Wfq_core.Backends.ids))
    in
    let per_shard_tids () =
      Array.init shards (fun _ ->
          Wfq_obsv.Counter.create ~slots:num_threads ())
    in
    (* Every thread may touch every shard (stealing), so each shard is
       sized for the full thread population. *)
    let make_shard () =
      Wfq_core.Backends.instantiate_with (module A) b ~num_threads ()
    in
    {
      shards = Array.init shards (fun _ -> make_shard ());
      n = shards;
      policy;
      backend;
      enq_ticket = A.make_padded 0;
      deq_ticket = A.make_padded 0;
      s_enq = per_shard_tids ();
      s_deq = per_shard_tids ();
      s_steal = per_shard_tids ();
      s_sweep = per_shard_tids ();
      op_seq = Wfq_obsv.Counter.create ~slots:num_threads ();
      last_enq_shard = Line.ints num_threads (-1);
      last_deq_shard = Line.ints num_threads (-1);
      last_enq_batch_calls = Line.ints num_threads 0;
      last_deq_batch_calls = Line.ints num_threads 0;
    }

  let shards t = t.n
  let policy t = t.policy
  let backend t = t.backend

  (* --- shard selection ------------------------------------------- *)

  let start_enq t ~tid =
    if t.n = 1 then 0
    else
      match t.policy with
      | Round_robin -> A.fetch_and_add t.enq_ticket 1 mod t.n
      | Tid_affine -> tid mod t.n

  let start_deq t ~tid =
    if t.n = 1 then 0
    else
      match t.policy with
      | Round_robin -> A.fetch_and_add t.deq_ticket 1 mod t.n
      | Tid_affine -> tid mod t.n

  (* --- core operations ------------------------------------------- *)

  (* Quiescence witness: odd while [tid] is inside an operation. One
     plain padded store each, dwarfed by the shard op they bracket. *)
  let seq_enter t ~tid = Wfq_obsv.Counter.incr t.op_seq ~slot:tid
  let seq_exit t ~tid = Wfq_obsv.Counter.incr t.op_seq ~slot:tid

  let enqueue_to t ~tid s v =
    t.shards.(s).Qi.enq ~tid v;
    Wfq_obsv.Counter.incr t.s_enq.(s) ~slot:tid;
    t.last_enq_shard.(Line.slot tid) <- s

  let enqueue t ~tid v =
    seq_enter t ~tid;
    enqueue_to t ~tid (start_enq t ~tid) v;
    seq_exit t ~tid

  (* Batch counterpart of [enqueue_to]: one backend-native batch op,
     counters bumped by the batch size. *)
  let enqueue_batch_to t ~tid s vs ~k =
    t.shards.(s).Qi.enq_batch ~tid vs;
    let w = Line.slot tid in
    t.last_enq_batch_calls.(w) <- t.last_enq_batch_calls.(w) + 1;
    Wfq_obsv.Counter.add t.s_enq.(s) ~slot:tid k;
    t.last_enq_shard.(Line.slot tid) <- s

  (* Account a successful dequeue served by shard [s]. *)
  let took t ~tid ~stolen s =
    Wfq_obsv.Counter.incr t.s_deq.(s) ~slot:tid;
    if stolen then Wfq_obsv.Counter.incr t.s_steal.(s) ~slot:tid;
    t.last_deq_shard.(Line.slot tid) <- s

  let took_batch t ~tid ~stolen s ~k =
    Wfq_obsv.Counter.add t.s_deq.(s) ~slot:tid k;
    if stolen then Wfq_obsv.Counter.add t.s_steal.(s) ~slot:tid k;
    t.last_deq_shard.(Line.slot tid) <- s

  (* Steal visits pre-check [is_empty] (two atomic reads) before paying
     for a full KP dequeue — with many shards most swept shards are
     empty, and a KP dequeue on an empty queue still runs the whole
     phase/descriptor/helping ceremony. The quiescent no-false-empty
     guarantee survives: at quiescence [is_empty] is exact, so the shard
     holding an element is never skipped. The start shard is attempted
     unconditionally (it is the most likely hit). The visiting order is
     {!Steal_order}'s single lap, shared with the scheduler's steal. *)
  let rec sweep t ~tid s0 i =
    if i = t.n then begin
      Wfq_obsv.Counter.incr t.s_sweep.(s0) ~slot:tid;
      t.last_deq_shard.(Line.slot tid) <- -1;
      None
    end
    else
      let s = Steal_order.visit ~n:t.n ~start:s0 i in
      if i > 0 && t.shards.(s).Qi.empty () then sweep t ~tid s0 (i + 1)
      else
        match t.shards.(s).Qi.deq ~tid with
        | Some _ as r ->
            took t ~tid ~stolen:(i > 0) s;
            r
        | None -> sweep t ~tid s0 (i + 1)

  let dequeue t ~tid =
    seq_enter t ~tid;
    let r = sweep t ~tid (start_deq t ~tid) 0 in
    seq_exit t ~tid;
    r

  (* --- batch operations ------------------------------------------ *)

  (* Split [vs] (length [k]) into [n] contiguous chunks whose sizes
     differ by at most one, front chunks larger. Used by the spread
     route; [k >= n >= 1] there, so no chunk is empty. *)
  let split_chunks vs ~k ~n =
    let base = k / n and extra = k mod n in
    let rec take i acc rest =
      if i = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> (List.rev acc, [])
        | v :: tl -> take (i - 1) (v :: acc) tl
    in
    let rec go j rest =
      if j = n then []
      else
        let sz = base + if j < extra then 1 else 0 in
        let chunk, rest = take sz [] rest in
        chunk :: go (j + 1) rest
    in
    go 0 vs

  let enqueue_batch t ~tid vs =
    match vs with
    | [] -> ()
    | vs ->
        seq_enter t ~tid;
        t.last_enq_batch_calls.(Line.slot tid) <- 0;
        (match vs with
        | [ v ] ->
            enqueue_to t ~tid (start_enq t ~tid) v;
            t.last_enq_batch_calls.(Line.slot tid) <- 1
        | vs -> (
            let k = List.length vs in
            match t.policy with
            | Round_robin when t.n > 1 && k >= t.n ->
                (* Spread: a batch large enough to give every shard a
                   real run is split into [n] contiguous sub-batches,
                   each forwarded to its shard's native batch op — load
                   balance without collapsing back to the per-element
                   protocol. One fetch-and-add claims a ticket per
                   chunk; chunk [j] lands on the shard ticket [t0 + j]
                   would have selected. *)
                let t0 = A.fetch_and_add t.enq_ticket t.n in
                List.iteri
                  (fun j chunk ->
                    enqueue_batch_to t ~tid
                      ((t0 + j) mod t.n)
                      chunk ~k:(List.length chunk))
                  (split_chunks vs ~k ~n:t.n)
            | Round_robin | Tid_affine ->
                (* Keep together: one selection, one backend-native
                   batch — intra-batch FIFO preserved, the whole batch
                   contiguous in its shard. Small Round_robin batches
                   ([k < n]) take this route too: spreading them would
                   degenerate to per-element sub-batches, paying the
                   full protocol per item again (successive batches
                   still rotate shards through the ticket). *)
                enqueue_batch_to t ~tid (start_enq t ~tid) vs ~k));
        seq_exit t ~tid

  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Shard.dequeue_batch: n";
    seq_enter t ~tid;
    t.last_deq_batch_calls.(Line.slot tid) <- 0;
    let s0 = start_deq t ~tid in
    (* One backend-native batch dequeue per shard visited, asking for
       the whole remaining want: the backend returns short only when it
       observed the shard empty, so a single {!Steal_order} lap
       suffices — at most [N] backend batch operations total (each
       itself bounded by its want), replacing the per-element
       [(n + 1) * N] sweep this front-end used before batches were
       backend-native. Steal visits keep the [is_empty] pre-check. *)
    let rec go acc got i =
      if got = n || i = t.n then acc
      else
        let s = Steal_order.visit ~n:t.n ~start:s0 i in
        if i > 0 && t.shards.(s).Qi.empty () then go acc got (i + 1)
        else
          let xs = t.shards.(s).Qi.deq_batch ~tid ~n:(n - got) in
          let w = Line.slot tid in
          t.last_deq_batch_calls.(w) <- t.last_deq_batch_calls.(w) + 1;
          let k = List.length xs in
          if k > 0 then took_batch t ~tid ~stolen:(i > 0) s ~k;
          go (xs :: acc) (got + k) (i + 1)
    in
    let out = List.concat (List.rev (go [] 0 0)) in
    if out = [] && n > 0 then begin
      Wfq_obsv.Counter.incr t.s_sweep.(s0) ~slot:tid;
      t.last_deq_shard.(Line.slot tid) <- -1
    end;
    seq_exit t ~tid;
    out

  (* --- quiescent observers --------------------------------------- *)

  let is_empty t = Array.for_all (fun sh -> sh.Qi.empty ()) t.shards
  let length t = Array.fold_left (fun acc sh -> acc + sh.Qi.size ()) 0 t.shards
  let to_list t = List.concat_map (fun sh -> sh.Qi.dump ()) (Array.to_list t.shards)

  let shard_length t s =
    if s < 0 || s >= t.n then invalid_arg "Shard.shard_length: shard";
    t.shards.(s).Qi.size ()

  let stats t =
    Array.init t.n (fun s ->
        {
          enqueues = Wfq_obsv.Counter.total t.s_enq.(s);
          dequeues = Wfq_obsv.Counter.total t.s_deq.(s);
          steals = Wfq_obsv.Counter.total t.s_steal.(s);
          empty_sweeps = Wfq_obsv.Counter.total t.s_sweep.(s);
        })

  (* The stats/length cross-check is only meaningful at quiescence:
     under concurrency a thread can sit between its shard dequeue and
     its counter bump, making the honest snapshots disagree with the
     honest lengths. The [op_seq] witness makes the guarantee explicit:
     the verdict is reported only when no operation was in flight at the
     start of the check AND no operation started or finished while it
     ran — otherwise the check is vacuously [Ok] (we learned nothing, we
     claim nothing). A concurrent caller can therefore never see a
     spurious [Error]; a quiescent caller gets the exact check. *)
  let check_quiescent_invariants t =
    let seq0 = Wfq_obsv.Counter.snapshot t.op_seq in
    if Array.exists (fun c -> c land 1 = 1) seq0 then Ok ()
    else
      let st = stats t in
      let rec shards_ok s =
        if s = t.n then Ok ()
        else
          match t.shards.(s).Qi.check () with
          | Error e -> Error (Printf.sprintf "shard %d: %s" s e)
          | Ok () ->
              let len = t.shards.(s).Qi.size () in
              if st.(s).enqueues - st.(s).dequeues <> len then
                Error
                  (Printf.sprintf
                     "shard %d: stats imbalance (enq %d - deq %d <> len %d)"
                     s st.(s).enqueues st.(s).dequeues len)
              else shards_ok (s + 1)
      in
      let verdict = shards_ok 0 in
      if Wfq_obsv.Counter.snapshot t.op_seq <> seq0 then Ok () else verdict

  (* --- probes ----------------------------------------------------- *)

  let last_enqueue_shard t ~tid = t.last_enq_shard.(Line.slot tid)
  let last_dequeue_shard t ~tid = t.last_deq_shard.(Line.slot tid)
  let last_enqueue_batch_calls t ~tid = t.last_enq_batch_calls.(Line.slot tid)
  let last_dequeue_batch_calls t ~tid = t.last_deq_batch_calls.(Line.slot tid)

  let tid_words t =
    Array.init (Line.slots t.last_enq_shard) (fun tid ->
        List.map
          (fun a -> (Obj.repr a, Line.slot tid))
          [ t.last_enq_shard; t.last_deq_shard; t.last_enq_batch_calls;
            t.last_deq_batch_calls ])

  let in_flight t =
    Array.exists
      (fun c -> c land 1 = 1)
      (Wfq_obsv.Counter.snapshot t.op_seq)

  (* Attach the per-shard counters and live depth gauges to a metrics
     registry under [prefix ^ ".shard<i>.<metric>"], plus the
     whole-queue [prefix ^ ".depth"] gauge every RUN_QUEUE backend
     exposes (see [Wfq_core.Queue_intf.RUN_QUEUE]). *)
  let register_metrics t registry ~prefix =
    let open Wfq_obsv in
    Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () -> length t);
    for s = 0 to t.n - 1 do
      let p = Printf.sprintf "%s.shard%d" prefix s in
      Metrics.register registry (p ^ ".enqueues") (Metrics.Counter t.s_enq.(s));
      Metrics.register registry (p ^ ".dequeues") (Metrics.Counter t.s_deq.(s));
      Metrics.register registry (p ^ ".steals") (Metrics.Counter t.s_steal.(s));
      Metrics.register registry (p ^ ".empty_sweeps")
        (Metrics.Counter t.s_sweep.(s));
      Metrics.gauge registry ~name:(p ^ ".depth") (fun () ->
          t.shards.(s).Qi.size ())
    done
end

let as_backend ?(policy = Round_robin) ?(shards = 4) id :
    (module Qi.BACKEND) =
  let (module B : Qi.BACKEND) = Wfq_core.Backends.find id in
  if B.capacity <> None then
    invalid_arg
      (Printf.sprintf
         "Shard.as_backend: %S is bounded (a full shard has no try_enqueue)"
         id);
  let tag = match policy with Round_robin -> "rr" | Tid_affine -> "tid" in
  (module struct
    let id = Printf.sprintf "shard-%s%d-%s" tag shards id
    let label = Printf.sprintf "%d %s shards over %s" shards tag B.label
    let family = "shard"
    let capacity = None
    let sim_safe = B.sim_safe

    module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
      module S = Make (A)

      (* Before [include S], which shadows [policy] and [shards]. *)
      let make ~num_threads =
        S.create ~policy ~backend:(Registered B.id) ~shards ~num_threads ()

      include S

      let create ?obsv ?pool:_ ~num_threads () =
        let q = make ~num_threads in
        Option.iter (fun (r, p) -> S.register_metrics q r ~prefix:p) obsv;
        q

      let try_enqueue t ~tid v =
        S.enqueue t ~tid v;
        true
    end
  end)
