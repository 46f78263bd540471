(** Bounded-memory wait-free MPMC ring (the wCQ direction,
    arXiv:2201.02179).

    A fixed-capacity array of slots replaces the linked list of the KP
    family: no node allocation, no pointer chase on dequeue — the hot
    path touches one cache-resident slot plus a position hint. The
    design is the FAD-claimed-slot ring of SNIPPETS.md
    (bartoszmodelski/ebsl [mpmc_queue.ml]) hardened into a wait-free,
    {e precise} bounded queue:

    - {b Per-slot sequence words.} Each slot carries its absolute
      position in a single atomic cell, so a CAS on the slot both
      installs/removes a value and validates the lap — the ebsl ring's
      separate sequence word and value cell are fused, which is what
      makes helping safe (a stale helper's CAS cannot land on a
      recycled lap: the expected cell value embeds the position, and
      cell records are freshly allocated per transition, so the
      physical-equality CAS never ABAs).
    - {b Bounded CAS retry with rollback.} The fast path is a bounded
      number of slot-CAS rounds ([max_failures], as in
      {!Kp_queue_fps}). The ebsl dequeue rollback (CAS head back after
      an over-eager fetch-and-add) becomes the {e claim rollback} of
      the slow path: a helper that finds its claimed position consumed
      by another operation rolls the descriptor's claim back to
      "unclaimed" — after validating that its own install did {e not}
      land (skipping that validation is the seeded
      {!fault}[ Rollback_skipped]).
    - {b Phase-helping slow path.} After [max_failures] failed rounds
      an operation publishes a KP descriptor (phase from a shared
      fetch-and-add counter, {!Kp_queue_fps}'s doorway) and is driven
      to completion by helpers: claim a position in the descriptor
      (stage 1), install/take via slot CAS (stage 2, the linearization
      point), publish the outcome, then advance the hint. A descriptor
      always describes a run (a single operation is a run of one), so
      this protocol exists once per side. Fast-path operations carry
      {!Kp_queue_fps}'s helping duty (one [slow_pending] load per op;
      one cyclic help round when raised).

    Why not a literal fetch-and-add ticket per operation: a FAD ticket
    irrevocably assigns a slot to the claimant, so a stalled claimant
    blocks the slot, and "enqueue on full / dequeue on empty must
    still return" then forces wCQ's threshold/finalization machinery.
    Validated slot CAS keeps tickets revocable — head/tail are only
    {e hints} (they lag the true counts by at most one) and the slot
    CAS is the single linearization point — so the KP helping
    discipline applies unchanged. FAD survives where it is
    unconditional: the phase doorway and the [slow_pending] flag.
    docs/RING.md walks through the protocol, the claim/rollback state
    machine, and the wait-freedom argument.

    Capacity semantics: [try_enqueue] returns [false] on a full ring
    (linearized at a validated read of a still-occupied slot one lap
    behind); [dequeue] returns [None] on empty (validated read of a
    still-free slot at the head position). [enqueue] raises
    {!Ring_full} — use [try_enqueue] when the producer can shed. *)

exception Ring_full

type fault =
  | Rollback_skipped
      (** Seeded bug for the model checker: the slow-path enqueue
          helper rolls a claimed position back without validating that
          its own install did not land, so helpers re-claim a fresh
          position and install the value again — duplicate elements
          that DPOR's conservation check catches and shrinks. *)

(* Instrumentation (Wfq_obsv): per-tid single-writer cells and two
   plain-field position hints only, so an instrumented ring performs no
   extra shared-cell traffic — atomic-step traces are identical with
   and without it (the Wfq_obsv ground rule, docs/OBSERVABILITY.md). *)
type metrics = {
  m_slow : Wfq_obsv.Counter.t;  (* slow-path entries, per owner tid *)
  m_help : Wfq_obsv.Counter.t;  (* peer-help dispatches, per helper tid *)
  m_fast_retry : Wfq_obsv.Counter.t;
      (* fast-path rounds lost to contention (slot CAS failed or the
         hint was stale) *)
  m_full : Wfq_obsv.Counter.t;  (* enqueues rejected: ring full *)
  m_occupancy : Wfq_obsv.Histogram.t;
      (* approximate ring depth sampled by each successful enqueue from
         the plain position hints — racy by design (see above), exact
         at quiescence *)
  m_batch_size : Wfq_obsv.Histogram.t;  (* elements per batch operation *)
  m_batch_cas : Wfq_obsv.Counter.t;
      (* slot/hint CASes issued by fast-path batch owners, so
         batch_cas / sum(batch_size) is the amortized CAS-per-element
         figure (docs/BATCHING.md) *)
}

let metrics registry ~prefix ~slots =
  let open Wfq_obsv in
  {
    m_slow = Metrics.counter registry ~name:(prefix ^ ".slow_entries") ~slots;
    m_help = Metrics.counter registry ~name:(prefix ^ ".help_events") ~slots;
    m_fast_retry =
      Metrics.counter registry ~name:(prefix ^ ".fast_retries") ~slots;
    m_full = Metrics.counter registry ~name:(prefix ^ ".full_rejections") ~slots;
    m_occupancy =
      Metrics.histogram registry ~name:(prefix ^ ".occupancy") ~slots;
    m_batch_size =
      Metrics.histogram registry ~name:(prefix ^ ".batch_size") ~slots;
    m_batch_cas = Metrics.counter registry ~name:(prefix ^ ".batch_cas") ~slots;
  }

let default_capacity = 1024
let default_max_failures = 64

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  (* One atomic cell per slot. The [int] is a packed (position, tid)
     word — see [pack] — giving every constructor lap validation and
     the installer/claimant identity in a single CAS-able value. Slot
     [j] walks positions j, j+capacity, j+2*capacity, ... through

       Free p  --enq-->  Full (p, etid)  --deq-->  Free (p + capacity)
                                \--slow deq--> Taken (p, dtid) --/

     Transitions move strictly forward in position order, so a read of
     the cell that happens after a read of a hint naming position [p]
     can only observe states of position [>= p] in this slot (the
     hint's publisher observed — or performed — the transition out of
     lap [p - capacity] on this very cell before publishing the
     hint). *)
  type 'a cell =
    | Free of int  (* awaiting the enqueue of position p *)
    | Full of int * 'a  (* value of position p; installer tid, -1 = fast *)
    | Taken of int * 'a
        (* slow-path dequeue claim: position p consumed in deq tid's
           name; the value rides along so any helper can publish it to
           the claimant's descriptor before freeing the slot *)

  (* A slow operation is a run: helpers claim and fill position-ordered
     slots one element at a time. A single operation is a run of one
     ([Enq [| v |]], [Deq 1]). *)
  type 'a kind =
    | Enq of 'a array  (* the run's values in order; [bdone] is next *)
    | Deq of int  (* how many elements to take *)

  (* Published KP-style operation descriptor. All transitions are CASes
     expecting the exact previously-read record, so outcome publication
     (which replaces the record) makes every stale claim/rollback/
     publish CAS fail benignly, and the full/empty answers serialize
     against concurrent claims through the owner's [state] cell — the
     {!Kp_queue} stage-1 discipline. *)
  type 'a desc = {
    phase : int;
    pending : bool;
    kind : 'a kind;
    target : int;  (* claimed position, -1 = unclaimed *)
    bdone : int;
        (* progress: elements installed (Enq) or taken (Deq) so far.
           Each element's progress CAS replaces the record and releases
           the claim; a run that stops pending with [bdone] short of its
           length met a full (Enq) or empty (Deq) ring *)
    bgot : 'a list;  (* Deq values taken so far, newest first *)
  }

  type 'a t = {
    capacity : int;
    num_threads : int;
    max_failures : int;
    (* Every atomic cell below is made with [A.make_padded]: each is
       CASed or bumped by both ends under contention, and on the real
       plane a padded cell has a cache line to itself. *)
    slots : 'a cell A.t array;
    head : int A.t;  (* next position to dequeue; lags truth by <= 1 *)
    tail : int A.t;  (* next position to enqueue; lags truth by <= 1 *)
    state : 'a desc A.t array;  (* per-thread descriptors *)
    slow_pending : int A.t;  (* raised while any descriptor is pending *)
    phase_counter : int A.t;  (* FAD doorway (KP footnote 3) *)
    help_cursor : int array;
        (* per-tid cyclic helping cursor in {!Wfq_obsv.Line} slots,
           written only by its own tid, on help rounds *)
    fault : fault option;
    obsv : metrics option;
    (* Plain racy position hints feeding the occupancy histogram: no
       atomic traffic, exact at quiescence. *)
    mutable head_cache : int;
    mutable tail_cache : int;
  }

  let name = "ring"

  (* (position, tid) packing for the cell word: tid -1 marks a
     fast-path transition (no descriptor to publish). *)
  let pack t pos tid = (pos * (t.num_threads + 1)) + tid + 1
  let pos_of t w = w / (t.num_threads + 1)
  let tid_of t w = (w mod (t.num_threads + 1)) - 1

  let create_with ?(capacity = default_capacity)
      ?(max_failures = default_max_failures) ?fault ?obsv ~num_threads () =
    if num_threads <= 0 then invalid_arg "Ring_queue.create: num_threads";
    if capacity <= 0 then invalid_arg "Ring_queue.create: capacity";
    if max_failures < 0 then invalid_arg "Ring_queue.create: max_failures";
    let idle =
      { phase = -1; pending = false; kind = Deq 0; target = -1; bdone = 0;
        bgot = [] }
    in
    (* [Array.init] would make this major-heap array from its first
       element, a young block, for which the runtime forces a minor
       collection; an immediate placeholder needs none. The cells are
       still made in slot order and in the record's [slots] field, so
       the simulator numbers them as it would under [Array.init]. *)
    let make_slots () =
      let slots = Array.make capacity (Obj.magic ()) in
      for j = 0 to capacity - 1 do
        slots.(j) <- A.make_padded (Free j)
      done;
      slots
    in
    {
      capacity;
      num_threads;
      max_failures;
      slots = make_slots ();
      head = A.make_padded 0;
      tail = A.make_padded 0;
      state = Array.init num_threads (fun _ -> A.make_padded idle);
      slow_pending = A.make_padded 0;
      phase_counter = A.make_padded 0;
      help_cursor = Wfq_obsv.Line.ints num_threads 0;
      fault;
      obsv;
      head_cache = 0;
      tail_cache = 0;
    }

  let create ~num_threads () = create_with ~num_threads ()
  let capacity t = t.capacity
  let slot t p = t.slots.(p mod t.capacity)
  let next_phase t = A.fetch_and_add t.phase_counter 1

  (* Hint advances are CAS p -> p+1, only ever justified by slot
     evidence that position p's transition already happened, so a hint
     is never ahead of the truth; and because installs/claims validate
     the position against the slot, not the hint, a lagging hint is
     only a progress problem, never a correctness one. *)
  let advance_tail t p = ignore (A.compare_and_set t.tail p (p + 1))
  let advance_head t p = ignore (A.compare_and_set t.head p (p + 1))

  let sample_occupancy t ~tid =
    match t.obsv with
    | None -> ()
    | Some m ->
        let d = t.tail_cache - t.head_cache in
        Wfq_obsv.Histogram.record m.m_occupancy ~slot:tid
          (min (max d 0) t.capacity)

  let count_retry t ~tid =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_fast_retry ~slot:tid
    | None -> ()

  let count_full t ~tid =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_full ~slot:tid
    | None -> ()

  let note_batch_size t ~tid k =
    match t.obsv with
    | Some m -> Wfq_obsv.Histogram.record m.m_batch_size ~slot:tid k
    | None -> ()

  let note_batch_cas t ~tid n =
    match t.obsv with
    | Some m -> if n > 0 then Wfq_obsv.Counter.add m.m_batch_cas ~slot:tid n
    | None -> ()

  (* ------------------------------------------------------------------ *)
  (* Finishing in-flight slow operations found in a slot                *)
  (* ------------------------------------------------------------------ *)

  (* The record that publishes element [cur.bdone] of an enqueue run as
     landed: progress and claim release in one replacement, so the next
     element seeks a fresh position. The run is done with its last
     element. *)
  let enq_landed cur vs =
    let n = cur.bdone + 1 in
    { cur with target = -1; bdone = n; pending = n < Array.length vs }

  (* [Full (p, etid)] with [etid >= 0] observed anywhere: publish the
     slow enqueuer's progress {e before} advancing the tail hint (or
     consuming the value). The install evidence stays visible in the
     slot until the dequeue of [p], and every dequeue of [p] runs this
     publication first, so a stale helper of that enqueue can never
     find its claim apparently-dead, roll it back and install a second
     copy — the {!Kp_queue} help_finish_enq ordering. The publication
     CAS's guard re-reads the descriptor: it can only hit the pending
     record that still claims exactly [p] (absolute positions are
     never re-claimed, so a later operation by the same tid can never
     be confused with this one). *)
  let finish_slow_enq t p etid =
    (if etid >= 0 then
       let cur = A.get t.state.(etid) in
       match cur.kind with
       | Enq vs when cur.pending && cur.target = p ->
           ignore (A.compare_and_set t.state.(etid) cur (enq_landed cur vs))
       | Enq _ | Deq _ -> ());
    advance_tail t p

  (* [Taken (p, dtid)] observed anywhere: publish the claimant's value,
     then free the slot for the next lap, then advance the head hint —
     publication strictly first, so the slot evidence of the claim
     outlives every descriptor that still awaits the value. *)
  let finish_slow_deq t c s =
    match s with
    | Taken (w, v) ->
        let p = pos_of t w and dtid = tid_of t w in
        (if dtid >= 0 then
           let cur = A.get t.state.(dtid) in
           match cur.kind with
           | Deq want when cur.pending && cur.target = p ->
               (* element [bdone] taken: its value, progress and claim
                  release in one replacement, as for [enq_landed] *)
               let n = cur.bdone + 1 in
               ignore
                 (A.compare_and_set t.state.(dtid) cur
                    { cur with
                      target = -1; bdone = n; bgot = v :: cur.bgot;
                      pending = n < want })
           | Deq _ | Enq _ -> ());
        if A.compare_and_set c s (Free (p + t.capacity)) then
          t.head_cache <- p + 1;
        advance_head t p
    | Free _ | Full _ -> ()

  (* ------------------------------------------------------------------ *)
  (* Slot steps shared by every loop                                    *)
  (* ------------------------------------------------------------------ *)

  (* [s], read from cell [c] at tail hint [t0], is neither [Free t0]
     (open) nor [Full] one lap behind (the full answer): finish the
     transition in flight there, or advance the hint stuck behind a
     completed one. *)
  let unstick_tail t c s t0 =
    match s with
    | Full (w, _) when pos_of t w = t0 -> finish_slow_enq t t0 (tid_of t w)
    | Taken (w, _) when pos_of t w = t0 || pos_of t w = t0 - t.capacity ->
        finish_slow_deq t c s
    | _ ->
        (* position > t0: hint stuck behind a completed transition *)
        advance_tail t t0

  (* [s], read from cell [c] at head hint [h], is neither [Free h] (the
     empty answer) nor [Full] at [h] (takeable). *)
  let unstick_head t c s h =
    match s with
    | Taken (w, _) when pos_of t w = h -> finish_slow_deq t c s
    | _ ->
        (* position > h: hint stuck behind a completed transition *)
        advance_head t h

  (* Fast install of [v] at [t0], where [s] is the [Free t0] read from
     [c]: the slot CAS, then the hint. *)
  let install t c s t0 v =
    A.compare_and_set c s (Full (pack t t0 (-1), v))
    && begin
         advance_tail t t0;
         t.tail_cache <- t0 + 1;
         true
       end

  (* Fast take at [h], where [s] is the [Full (w, _)] at [h] read from
     [c]. A slow install is published done before its evidence leaves
     the slot; claim and free are then one CAS, since the dequeuer
     itself holds the value and no helper needs to learn it. *)
  let take t c s h w =
    let etid = tid_of t w in
    if etid >= 0 then finish_slow_enq t h etid;
    A.compare_and_set c s (Free (h + t.capacity))
    && begin
         t.head_cache <- h + 1;
         advance_head t h;
         true
       end

  (* ------------------------------------------------------------------ *)
  (* Slow path: phase helping                                           *)
  (* ------------------------------------------------------------------ *)

  let is_still_pending t tid phase =
    let desc = A.get t.state.(tid) in
    desc.pending && desc.phase <= phase

  (* Drive tid's pending enqueue run to completion, one element
     ([cur.bdone]) at a time. Two modes, switched by the descriptor's
     claim field.

     Unclaimed ([target = -1]): read the tail hint [t0], then the slot
     of position [t0]. [Free t0] -> claim it in the descriptor (stage
     1). [Full (t0 - capacity)] -> the ring holds exactly [capacity]
     elements at the instant of the slot read (the slot one lap behind
     is still occupied while the hint proves [t0 - 1] was enqueued):
     publish the run as ended, [bdone] elements in. Both CASes expect
     the exact unclaimed record read above, so they cannot race a
     concurrent stage-1 claim by another helper of this same
     operation. Anything else is [unstick_tail]'s.

     Claimed ([target = q]): try to install at [q] (stage 2 — the CAS
     expects the exact [Free q] record, so across all helpers of this
     element at most one install can ever land: the slot leaves
     [Free q] forever the moment any install lands, killing every
     other helper's pending CAS). If the slot shows our own install,
     publish the element's progress and advance the tail. If the
     position went to {e another} operation, the claim is dead — roll
     it back to unclaimed and retry. The rollback is safe exactly
     because a landed install of ours would still be visible: install
     evidence is only removed after [finish_slow_enq] has published
     our progress, and a replaced record fails the rollback CAS.
     (Skipping the own-install check before rolling back is the seeded
     [Rollback_skipped] fault.)

     A run is {e not} atomic: other enqueuers may land between two of
     its elements, but each element linearizes at its own install CAS,
     so a run's elements appear in order relative to each other. *)
  let rec help_enq t tid phase =
    if is_still_pending t tid phase then begin
      let cur = A.get t.state.(tid) in
      if cur.pending && cur.phase <= phase then
        match cur.kind with
        | Deq _ -> ()
        | Enq vs ->
            (if cur.target >= 0 then begin
               let q = cur.target in
               let c = slot t q in
               let s = A.get c in
               match s with
               | Free p when p = q ->
                   ignore
                     (A.compare_and_set c s
                        (Full (pack t q tid, vs.(cur.bdone))))
               | Full (w, _)
                 when pos_of t w = q && tid_of t w = tid
                      && t.fault <> Some Rollback_skipped ->
                   (* our install landed: publish, then advance *)
                   if A.compare_and_set t.state.(tid) cur (enq_landed cur vs)
                   then t.tail_cache <- q + 1;
                   advance_tail t q
               | Taken (w, _) when pos_of t w = q ->
                   (* a dequeuer is consuming position q; if the install
                      was ours it published our progress before
                      claiming, so the claim is already released *)
                   finish_slow_deq t c s
               | _ ->
                   (* position q went to another operation (or, under
                      the seeded fault, shows any install at q
                      including our own): dead claim, roll it back *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with target = -1 })
             end
             else begin
               let t0 = A.get t.tail in
               let c = slot t t0 in
               let s = A.get c in
               match s with
               | Free p when p = t0 ->
                   (* stage 1: claim position t0 for this element *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with target = t0 })
               | Full (w, _) when pos_of t w = t0 - t.capacity ->
                   (* ring full at the instant of the slot read *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with pending = false })
               | _ -> unstick_tail t c s t0
             end);
            help_enq t tid phase
    end

  (* Drive tid's pending dequeue run to completion; mirror image of
     [help_enq]. Stage 2's "install" is the [Full -> Taken] claim: the
     value rides in the [Taken] cell so any helper can publish it into
     the claimant's [bgot] ([finish_slow_deq]) before the slot is freed
     for the next lap. [Free h] at the head hint is the sound empty
     answer (position h's enqueue has not linearized at the instant of
     the slot read, while the hint proves all earlier positions were
     dequeued); it ends the run, publishing against the unclaimed
     record for the same stage-1 serialization reason as the full
     answer. *)
  let rec help_deq t tid phase =
    if is_still_pending t tid phase then begin
      let cur = A.get t.state.(tid) in
      if cur.pending && cur.phase <= phase then
        match cur.kind with
        | Enq _ -> ()
        | Deq _ ->
            (if cur.target >= 0 then begin
               let q = cur.target in
               let c = slot t q in
               let s = A.get c in
               match s with
               | Full (w, v) when pos_of t w = q ->
                   (* a slow install must be published done before its
                      evidence leaves the slot *)
                   let etid = tid_of t w in
                   if etid >= 0 then finish_slow_enq t q etid;
                   ignore (A.compare_and_set c s (Taken (pack t q tid, v)))
               | Taken (w, _) when pos_of t w = q ->
                   (* ours: publishes our value, frees, advances;
                      another's: helps it, and our dead claim rolls
                      back on the next iteration *)
                   finish_slow_deq t c s
               | _ ->
                   (* position q consumed by another dequeuer — a landed
                      claim of ours would still be visible as [Taken]
                      until its value was published: roll the claim
                      back *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with target = -1 })
             end
             else begin
               let h = A.get t.head in
               let c = slot t h in
               let s = A.get c in
               match s with
               | Free p when p = h ->
                   (* empty at the instant of the slot read *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with pending = false })
               | Full (w, _) when pos_of t w = h ->
                   (* stage 1: claim position h *)
                   ignore
                     (A.compare_and_set t.state.(tid) cur
                        { cur with target = h })
               | _ -> unstick_head t c s h
             end);
            help_deq t tid phase
    end

  (* Help a peer at the {e descriptor's own} phase, never the caller's
     bound: a stale helper re-running with its (higher) phase would
     otherwise keep a completed-and-republished operation alive — the
     {!Kp_queue_fps} stale-helper livelock, pinned there by DPOR. *)
  let help_slot t ~self i phase =
    let desc = A.get t.state.(i) in
    if desc.pending && desc.phase <= phase then begin
      (match t.obsv with
      | Some m when i <> self -> Wfq_obsv.Counter.incr m.m_help ~slot:self
      | _ -> ());
      match desc.kind with
      | Enq _ -> help_enq t i desc.phase
      | Deq _ -> help_deq t i desc.phase
    end

  let run_help t ~tid ~phase =
    let i = Wfq_obsv.Line.slot tid in
    let c = t.help_cursor.(i) in
    t.help_cursor.(i) <- (c + 1) mod t.num_threads;
    if c <> tid then help_slot t ~self:tid c phase;
    help_slot t ~self:tid tid phase

  (* The fast path's helping duty (one [slow_pending] load per
     operation; a cyclic helping round only when raised) — the
     {!Kp_queue_fps} discipline, same wait-freedom bound: a pending
     slow operation is reached after at most [num_threads] operations
     by any other thread. *)
  let maybe_help t ~tid =
    if A.get t.slow_pending > 0 then begin
      let i = Wfq_obsv.Line.slot tid in
      let c = t.help_cursor.(i) in
      t.help_cursor.(i) <- (c + 1) mod t.num_threads;
      help_slot t ~self:tid c max_int
    end

  (* Publish a run and drive it to completion; returns the final
     record ([bdone] elements done, [bgot] the values taken). *)
  let slow_op t ~tid kind =
    (match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_slow ~slot:tid
    | None -> ());
    (* raise the flag before publishing, so any operation that sees the
       descriptor also sees the flag *)
    ignore (A.fetch_and_add t.slow_pending 1);
    let phase = next_phase t in
    A.set t.state.(tid)
      { phase; pending = true; kind; target = -1; bdone = 0; bgot = [] };
    run_help t ~tid ~phase;
    ignore (A.fetch_and_add t.slow_pending (-1));
    A.get t.state.(tid)

  let slow_enqueue t ~tid v =
    let accepted = (slow_op t ~tid (Enq [| v |])).bdone = 1 in
    if accepted then sample_occupancy t ~tid else count_full t ~tid;
    accepted

  let slow_dequeue t ~tid =
    match (slow_op t ~tid (Deq 1)).bgot with v :: _ -> Some v | [] -> None

  (* ------------------------------------------------------------------ *)
  (* Fast path: bounded validated slot-CAS rounds                       *)
  (* ------------------------------------------------------------------ *)

  let rec fast_enqueue t ~tid v failures =
    if failures >= t.max_failures then slow_enqueue t ~tid v
    else begin
      let t0 = A.get t.tail in
      let c = slot t t0 in
      let s = A.get c in
      match s with
      | Free p when p = t0 ->
          if install t c s t0 v then begin
            sample_occupancy t ~tid;
            true
          end
          else begin
            count_retry t ~tid;
            fast_enqueue t ~tid v (failures + 1)
          end
      | Full (w, _) when pos_of t w = t0 - t.capacity ->
          (* full at the instant of the slot read (see help_enq):
             sound immediately, no slow path needed *)
          count_full t ~tid;
          false
      | _ ->
          unstick_tail t c s t0;
          count_retry t ~tid;
          fast_enqueue t ~tid v (failures + 1)
    end

  let rec fast_dequeue t ~tid failures =
    if failures >= t.max_failures then slow_dequeue t ~tid
    else begin
      let h = A.get t.head in
      let c = slot t h in
      let s = A.get c in
      match s with
      | Free p when p = h ->
          (* empty at the instant of the slot read (see help_deq):
             sound immediately, no slow path needed *)
          None
      | Full (w, v) when pos_of t w = h ->
          if take t c s h w then Some v
          else begin
            count_retry t ~tid;
            fast_dequeue t ~tid (failures + 1)
          end
      | _ ->
          unstick_head t c s h;
          count_retry t ~tid;
          fast_dequeue t ~tid (failures + 1)
    end

  (* ------------------------------------------------------------------ *)
  (* Public operations                                                  *)
  (* ------------------------------------------------------------------ *)

  let check_tid t tid =
    if tid < 0 || tid >= t.num_threads then
      invalid_arg "Ring_queue: tid out of range"

  let try_enqueue t ~tid v =
    check_tid t tid;
    maybe_help t ~tid;
    fast_enqueue t ~tid v 0

  let enqueue t ~tid v = if not (try_enqueue t ~tid v) then raise Ring_full

  let dequeue t ~tid =
    check_tid t tid;
    maybe_help t ~tid;
    fast_dequeue t ~tid 0

  (* ------------------------------------------------------------------ *)
  (* Batch operations (docs/BATCHING.md)                                *)
  (* ------------------------------------------------------------------ *)

  (* Fast path: per-element validated slot-CAS rounds under one shared
     [max_failures] budget and a single helping check for the whole
     batch. Exhausting the budget publishes {e one} descriptor covering
     the remaining suffix as a run, driven by the same [help_enq] /
     [help_deq] as a single operation. A full (resp. empty) answer at
     some element's validated slot read ends the batch short there,
     exactly as the single operations linearize their rejections. *)

  let try_enqueue_batch t ~tid vs =
    check_tid t tid;
    match vs with
    | [] -> 0
    | vs ->
        let arr = Array.of_list vs in
        let len = Array.length arr in
        note_batch_size t ~tid len;
        maybe_help t ~tid;
        let rec go i failures cas =
          if i >= len then begin
            note_batch_cas t ~tid cas;
            sample_occupancy t ~tid;
            i
          end
          else if failures >= t.max_failures then begin
            note_batch_cas t ~tid cas;
            let d = slow_op t ~tid (Enq (Array.sub arr i (len - i))) in
            let accepted = i + d.bdone in
            if accepted < len then count_full t ~tid
            else sample_occupancy t ~tid;
            accepted
          end
          else begin
            let t0 = A.get t.tail in
            let c = slot t t0 in
            let s = A.get c in
            match s with
            | Free p when p = t0 ->
                if install t c s t0 arr.(i) then go (i + 1) failures (cas + 2)
                else begin
                  count_retry t ~tid;
                  go i (failures + 1) (cas + 1)
                end
            | Full (w, _) when pos_of t w = t0 - t.capacity ->
                (* full at this element's validated slot read: the
                   batch ends short, [i] elements in *)
                note_batch_cas t ~tid cas;
                count_full t ~tid;
                i
            | _ ->
                unstick_tail t c s t0;
                count_retry t ~tid;
                go i (failures + 1) cas
          end
        in
        go 0 0 0

  let enqueue_batch t ~tid vs =
    let n = List.length vs in
    if try_enqueue_batch t ~tid vs <> n then raise Ring_full

  let dequeue_batch t ~tid ~n =
    check_tid t tid;
    if n < 0 then invalid_arg "Ring_queue.dequeue_batch: n";
    if n = 0 then []
    else begin
      note_batch_size t ~tid n;
      maybe_help t ~tid;
      let rec go acc got failures cas =
        if got >= n then begin
          note_batch_cas t ~tid cas;
          List.rev acc
        end
        else if failures >= t.max_failures then begin
          note_batch_cas t ~tid cas;
          let d = slow_op t ~tid (Deq (n - got)) in
          List.rev_append acc (List.rev d.bgot)
        end
        else begin
          let h = A.get t.head in
          let c = slot t h in
          let s = A.get c in
          match s with
          | Free p when p = h ->
              (* empty at this element's validated slot read: short *)
              note_batch_cas t ~tid cas;
              List.rev acc
          | Full (w, v) when pos_of t w = h ->
              if take t c s h w then go (v :: acc) (got + 1) failures (cas + 2)
              else begin
                count_retry t ~tid;
                go acc got (failures + 1) (cas + 1)
              end
          | _ ->
              unstick_head t c s h;
              count_retry t ~tid;
              go acc got (failures + 1) cas
        end
      in
      go [] 0 0 0
    end

  (* ------------------------------------------------------------------ *)
  (* Quiescent observers (QUEUE contract: callers guarantee no
     concurrent operations)                                             *)
  (* ------------------------------------------------------------------ *)

  let length t = max 0 (A.get t.tail - A.get t.head)
  let is_empty t = length t = 0

  let to_list t =
    let h = A.get t.head and tl = A.get t.tail in
    let rec go p acc =
      if p >= tl then List.rev acc
      else
        match A.get (slot t p) with
        | Full (w, v) when pos_of t w = p -> go (p + 1) (v :: acc)
        | _ -> go (p + 1) acc
    in
    go h []

  let check_quiescent_invariants t =
    let h = A.get t.head and tl = A.get t.tail in
    let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
    if h > tl then err "head %d ahead of tail %d" h tl
    else if tl - h > t.capacity then
      err "length %d exceeds capacity %d" (tl - h) t.capacity
    else if A.get t.slow_pending <> 0 then
      err "slow_pending = %d at quiescence" (A.get t.slow_pending)
    else begin
      let pending = ref 0 in
      Array.iter (fun s -> if (A.get s).pending then incr pending) t.state;
      if !pending <> 0 then
        err "%d descriptors still pending at quiescence" !pending
      else begin
        let bad = ref None in
        for j = 0 to t.capacity - 1 do
          if !bad = None then begin
            (* the unique position of slot j that lies in [h, h+cap) *)
            let p =
              h + ((((j - h) mod t.capacity) + t.capacity) mod t.capacity)
            in
            let expected = if p < tl then "Full" else "Free" in
            match A.get t.slots.(j) with
            | Full (w, _) when p < tl && pos_of t w = p -> ()
            | Free p' when p >= tl && p' = p -> ()
            | Full (w, _) ->
                bad :=
                  Some
                    (Printf.sprintf
                       "slot %d: Full at position %d, expected %s at %d" j
                       (pos_of t w) expected p)
            | Free p' ->
                bad :=
                  Some
                    (Printf.sprintf
                       "slot %d: Free at position %d, expected %s at %d" j p'
                       expected p)
            | Taken (w, _) ->
                bad :=
                  Some
                    (Printf.sprintf
                       "slot %d: Taken at position %d at quiescence" j
                       (pos_of t w))
          end
        done;
        match !bad with None -> Ok () | Some msg -> Error msg
      end
    end

  (* ------------------------------------------------------------------ *)
  (* Observability                                                      *)
  (* ------------------------------------------------------------------ *)

  let register_metrics t registry ~prefix =
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () ->
        length t);
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".capacity") (fun () ->
        t.capacity)

  (* ------------------------------------------------------------------ *)
  (* White-box probes (tests only)                                      *)
  (* ------------------------------------------------------------------ *)

  module Probe = struct
    let head t = A.get t.head
    let tail t = A.get t.tail

    let slot_state t j =
      match A.get t.slots.(j) with
      | Free p -> `Free p
      | Full (w, _) -> `Full (pos_of t w, tid_of t w)
      | Taken (w, _) -> `Taken (pos_of t w, tid_of t w)

    let desc_pending t tid = (A.get t.state.(tid)).pending

    let hot_cells t =
      [ Obj.repr t.head; Obj.repr t.tail; Obj.repr t.slow_pending;
        Obj.repr t.phase_counter; Obj.repr t.slots.(0);
        Obj.repr t.slots.(1) ]
      @ List.map Obj.repr (Array.to_list t.state)

    let tid_words t =
      Array.init t.num_threads (fun tid ->
          [ (Obj.repr t.help_cursor, Wfq_obsv.Line.slot tid) ])
  end
end
