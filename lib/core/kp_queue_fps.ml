(** Fast-path/slow-path variant of the Kogan-Petrank queue: lock-free
    speed when uncontended, the paper's wait-free helping as a fallback.

    The PPoPP 2011 algorithm pays the helping tax on {e every} operation:
    publish a descriptor, pick a phase, help peers — even with no
    contention at all. This module applies the fast-path/slow-path
    methodology (Kogan & Petrank, PPoPP 2012; used industrially by wCQ,
    arXiv:2201.02179): run a plain Michael-Scott lock-free operation for
    at most [max_failures] failed attempts, and only on persistent
    interference enter the unmodified phase-based helping engine of
    {!Kp_helping} — the same slow path {!Kp_queue} runs on every
    operation. This module holds only the fast path, the [slow_pending]
    handshake and the slow-path entry wrappers.

    Wait-freedom is preserved by two obligations:

    + the fast path is {e bounded}: after [max_failures] failed rounds
      the operation switches to the slow path, whose helping scheme
      completes it in a bounded number of steps (paper §3.2);
    + fast-path operations {e help}: before each operation a thread reads
      the [slow_pending] counter (one atomic load — the only fast-path
      overhead) and, when it is non-zero, runs one cyclic helping round
      to completion. A pending slow-path operation is therefore helped
      after at most [num_threads] operations of any other thread, whether
      that thread is on the fast or the slow path, so fast-path traffic
      cannot starve the slow path.

    Compatibility between the paths (both share {!Kp_internals} nodes):

    - {b enqueue}: both paths append by CAS on [last.next]. Fast-path
      nodes carry [enq_tid = -1], telling [help_finish_enq] there is no
      descriptor to complete — only [tail] to advance. Slow-path nodes
      carry the real tid, exactly as in {!Kp_queue}.
    - {b dequeue}: both paths linearize on the same CAS of the sentinel's
      [deq_tid] field. A fast-path dequeue claims with
      [num_threads + tid] (disjoint from slow-path tids), so
      [help_finish_deq] knows whether there is a descriptor to complete
      before swinging [head]. A fast-path dequeue that swung [head]
      directly (pure Michael-Scott) would race a slow-path dequeue that
      already locked the sentinel and consume the same element twice —
      hence the shared claim protocol, at the cost of one extra CAS per
      dequeue relative to raw MS.

    Cost of an uncontended operation (see test/test_op_profile.ml):
    enqueue = 2 CAS (append + tail), dequeue = 2 CAS (claim + head), vs
    3 and 4 CAS plus descriptor traffic for base {!Kp_queue}. *)

let default_max_failures = 64

(* Instrumentation handle (Wfq_obsv), same discipline as
   {!Kp_helping.metrics}: per-tid single-writer plain cells, zero extra
   shared-cell traffic, [None] compiles to the uninstrumented arm. The
   slow path's metrics are the helping engine's, under the same names as
   {!Kp_queue}'s; the always-on fast/slow counters live in ['a t]
   directly (they predate the obsv layer and every probe reads them);
   the rest are the fast path's own diagnostics. *)
type metrics = {
  core : Kp_helping.metrics;
      (* help events, phase lag, descriptor CAS failures, lost phase
         bumps and batch sizes *)
  m_fast_rounds : Wfq_obsv.Counter.t;
      (* fast-path CAS rounds consumed by *contended* attempts, per
         tid: ops that needed more than one round, plus rounds burned
         before a slow fallback. First-try successes are one round each
         and already counted by [fast_hits], so the uncontended path
         records nothing — total rounds = fast_hits + fast_rounds. *)
  m_claim_handoff : Wfq_obsv.Counter.t;
      (* fast dequeues that lost the sentinel claim and handed off by
         finishing the winner's operation (help_finish_deq) instead *)
  m_batch_cas : Wfq_obsv.Counter.t;
      (* CASes issued by the owner of a fast-path batch operation
         (link/tail/claim/head, successful or not). Divided by the
         [batch_size] mass this yields the amortized CAS-per-element
         figure (docs/BATCHING.md); slow-path batches surface through
         [slow_entries] as usual. *)
}

let metrics registry ~prefix ~slots =
  let open Wfq_obsv in
  {
    core = Kp_helping.metrics registry ~prefix ~slots;
    m_fast_rounds =
      Metrics.counter registry ~name:(prefix ^ ".fast_rounds") ~slots;
    m_claim_handoff =
      Metrics.counter registry ~name:(prefix ^ ".claim_handoffs") ~slots;
    m_batch_cas =
      Metrics.counter registry ~name:(prefix ^ ".batch_cas") ~slots;
  }

(* Test-only seeded bugs, see {!Kp_helping.fault}. *)
type fault = Kp_helping.fault =
  | Stale_helper_caller_phase
  | Fast_deq_no_claim
  | Untagged_pool_claim
  | Batch_partial_publish

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module H = Kp_helping.Make (A)
  module N = H.N
  open N
  module Pool = H.Pool

  type 'a t = {
    (* Aliases of [h]'s list ends, nil, pools, thread count and seeded
       fault: the fast path reads them with one load, as a plain
       Michael-Scott queue would. They and [slow_pending] come ahead of
       [h]: with [h] first, fps-pooled's two-domain pairs latency on a
       2-vCPU VM measured 6-14% higher, running the same code. *)
    head : 'a N.node A.t;
    tail : 'a N.node A.t;
    nil : 'a N.node;
    pools : 'a H.pools option;
    num_threads : int;
    fault : fault option;
    (* Number of threads currently executing a slow-path operation.
       Fast-path operations read it once per operation and help only
       when it is non-zero, keeping the uncontended hot path free of
       helping traffic. *)
    slow_pending : int A.t;
    h : 'a H.t; (* the helping engine: list, descriptor slots, pools *)
    max_failures : int;
    (* Single-writer per-tid statistics (exact at quiescence); always on
       — the probes below and debug_dump read them — and padded, unlike
       the plain int arrays they replace, which false-shared adjacent
       tids' cells. *)
    fast_hits : Wfq_obsv.Counter.t;
    slow_entries : Wfq_obsv.Counter.t;
    obsv : metrics option;
  }

  let name = "kp-fps"

  let create_with ?(max_failures = default_max_failures) ?fault ?pool
      ?pool_segment ?pool_quarantine ?obsv ~help ~phase ~num_threads () =
    let h =
      H.create ~who:"Kp_queue_fps" ?pool ?pool_segment ?pool_quarantine
        ?obsv:(Option.map (fun m -> m.core) obsv)
        ?fault ~help ~phase ~num_threads ()
    in
    if max_failures < 0 then
      invalid_arg "Kp_queue_fps.create: max_failures must be >= 0";
    {
      h;
      head = h.H.head;
      tail = h.H.tail;
      nil = h.H.idle_node;
      pools = h.H.pools;
      num_threads;
      fault;
      slow_pending = A.make_padded 0;
      max_failures;
      fast_hits = Wfq_obsv.Counter.create ~slots:num_threads ();
      slow_entries = Wfq_obsv.Counter.create ~slots:num_threads ();
      obsv;
    }

  (* The default slow path uses the paper's fastest configuration (both
     §3.3 optimizations); it is entered rarely, so the difference mostly
     matters under heavy contention, where opt (1+2) wins anyway. *)
  let create ~num_threads () =
    create_with ~help:Kp_helping.Help_one_cyclic
      ~phase:Kp_helping.Phase_counter ~num_threads ()

  (* Optional-instrumentation writes, factored so the operation bodies
     stay readable. All single-writer tid-local stores. *)
  let note_fast_rounds t ~tid n =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.add m.m_fast_rounds ~slot:tid n
    | None -> ()

  let note_claim_handoff t ~tid =
    match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_claim_handoff ~slot:tid
    | None -> ()

  let note_batch_cas t ~tid n =
    match t.obsv with
    | Some m -> if n > 0 then Wfq_obsv.Counter.add m.m_batch_cas ~slot:tid n
    | None -> ()

  (* ------------------------------------------------------------------ *)
  (* Fast-path pool plumbing: the helping engine's [op_enter]/[op_exit]/ *)
  (* [release_node] over the aliased [pools]. Without flambda a call     *)
  (* into [H] is an indirect call, and the uncontended fast path makes   *)
  (* none.                                                               *)
  (* ------------------------------------------------------------------ *)

  let op_enter t ~tid =
    match t.pools with Some p -> Pool.enter p.nodes ~tid | None -> ()

  let op_exit t ~tid =
    match t.pools with Some p -> Pool.exit p.nodes ~tid | None -> ()

  (* A fast-path node: [enq_tid = no_tid], telling helpers there is no
     descriptor to wait for (were it to carry a real tid, a slow-path
     helper would wait forever for a descriptor never published). *)
  let alloc_node t ~tid value =
    match t.pools with
    | Some p ->
        let n = Pool.alloc p.nodes ~tid in
        n.N.value <- value;
        n.N.enq_tid <- no_tid;
        n
    | None -> make_node ~nil:t.nil ~enq_tid:no_tid value

  (* Unique head-swing winner only (both paths). *)
  let release_node t ~tid n =
    match t.pools with
    | Some p -> Pool.release p.nodes ~tid n
    | None -> ()

  (* The fast path's helping duty: one atomic load per operation; only
     when some thread is on the slow path, run one cyclic helping round
     (to completion — help_enq/help_deq return only once the helped
     operation is no longer pending). The cursor advances every call, so
     a given pending operation is reached after at most [num_threads]
     operations of this thread: slow-path progress is bounded even if
     every other thread stays on the fast path forever. The bound
     [max_int] is safe because [H.help_slot] helps at the descriptor's
     own phase. *)
  let maybe_help t ~tid =
    if A.get t.slow_pending > 0 then begin
      let h = t.h in
      let c = h.H.help_cursor.(tid) in
      h.H.help_cursor.(tid) <- (c + 1) mod t.num_threads;
      H.help_slot h ~self:tid c max_int
    end

  (* ------------------------------------------------------------------ *)
  (* Slow-path entry (after max_failures fast rounds): the engine's      *)
  (* publish-then-help, bracketed by the [slow_pending] handshake        *)
  (* ------------------------------------------------------------------ *)

  (* Raise the flag before publishing so that any fast-path operation
     starting after our descriptor is visible also sees the flag. *)
  let slow_enter t ~tid =
    Wfq_obsv.Counter.incr t.slow_entries ~slot:tid;
    ignore (A.fetch_and_add t.slow_pending 1);
    H.next_phase t.h ~tid

  let slow_exit t = ignore (A.fetch_and_add t.slow_pending (-1))

  (* The chain [first .. last] ([last] nil: a single node) was
     already allocated by the fast path and never published (every fast
     append CAS on it failed), so the slow path adopts it — rewriting
     the first node's [enq_tid] from the fast-path marker to the real
     tid is safe pre-publication. Only the first node needs it: it is
     the only one that ever becomes [tail.next] before the jump
     ([help_finish_enq] moves [tail] straight to [last]); interior
     nodes keep the marker harmlessly. *)
  let slow_enqueue t ~tid first last =
    let phase = slow_enter t ~tid in
    first.N.enq_tid <- tid;
    H.enqueue_published t.h ~tid ~phase first last;
    slow_exit t

  let slow_dequeue t ~tid =
    let phase = slow_enter t ~tid in
    H.dequeue_published t.h ~tid ~phase ~want:0;
    slow_exit t;
    H.dequeued_value t.h ~tid

  (* The remaining suffix of a batch whose fast rounds ran out: one
     descriptor with [want] drives [help_deq ~batch:true] (owner and helpers
     alike). Returns the collected values in FIFO order, shorter than
     [want] iff the queue emptied. *)
  let slow_dequeue_batch t ~tid ~want =
    let phase = slow_enter t ~tid in
    H.dequeue_published t.h ~tid ~phase ~want;
    slow_exit t;
    H.dequeued_batch t.h ~tid

  (* ------------------------------------------------------------------ *)
  (* Public operations: bounded Michael-Scott rounds, then fall back    *)
  (* ------------------------------------------------------------------ *)

  (* The fast-path retry loops live at functor level with every datum
     passed as an argument. Written as nested [let rec attempt] closures
     they allocate a closure environment per operation — measured at ~9
     words/pair on the pairs workload, which dominated the pooled fast
     path's residual allocation (see EXPERIMENTS.md, fps words/op
     decomposition). Functor-level recursion allocates nothing. *)
  let rec fast_enqueue t ~tid node failures =
    if failures >= t.max_failures then begin
      note_fast_rounds t ~tid failures;
      slow_enqueue t ~tid node t.nil
    end
    else
      let last = A.get t.tail in
      let next = A.get (link last) in
      if last == A.get t.tail then
        if next == t.nil then begin
          if A.compare_and_set (link last) t.nil node then begin
            (* Linearized; fix tail lazily, MS-style (failure means
               someone helped us). *)
            ignore (A.compare_and_set t.tail last node);
            if failures > 0 then note_fast_rounds t ~tid (failures + 1);
            Wfq_obsv.Counter.incr t.fast_hits ~slot:tid
          end
          else fast_enqueue t ~tid node (failures + 1)
        end
        else begin
          (* Tail lagging behind a fast or slow append: finish it
             (either kind) and retry. *)
          H.help_finish_enq t.h ~self:tid;
          fast_enqueue t ~tid node (failures + 1)
        end
      else fast_enqueue t ~tid node (failures + 1)

  let enqueue t ~tid value =
    op_enter t ~tid;
    maybe_help t ~tid;
    let node = alloc_node t ~tid value in
    fast_enqueue t ~tid node 0;
    op_exit t ~tid

  let rec fast_dequeue t ~tid failures =
    if failures >= t.max_failures then begin
      note_fast_rounds t ~tid failures;
      slow_dequeue t ~tid
    end
    else
      let first = A.get t.head in
      (* Claim word captured with the head reference (epoch ABA
         defense; see Kp_internals.try_claim). *)
      let claim0 = N.claim_word first in
      let last = A.get t.tail in
      let next = A.get (link first) in
      if first == A.get t.head then
        if first == last then
          if next == t.nil then begin
            (* Observed empty — linearizable and free of descriptor
               traffic on both paths. *)
            if failures > 0 then note_fast_rounds t ~tid (failures + 1);
            Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
            None
          end
          else begin
            H.help_finish_enq t.h ~self:tid;
            fast_dequeue t ~tid (failures + 1)
          end
        else if next == t.nil then
          fast_dequeue t ~tid (failures + 1) (* transient view *)
        else if t.fault = Some Fast_deq_no_claim then
          (* Seeded bug: pure MS dequeue, no deq_tid claim — can
             deliver an element a slow dequeue already owns. *)
          if A.compare_and_set t.head first next then begin
            Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
            Some next.value
          end
          else fast_dequeue t ~tid (failures + 1)
        else if
          (* Claim the sentinel with the fast-path marker; the
             successful CAS is the linearization point — shared with
             slow-path dequeues, which claim with their tid. *)
          N.try_claim first ~observed:claim0 ~tid:(t.num_threads + tid)
        then begin
          let v = next.value in
          (* Whether our CAS or a helper's moved it, [head] has left
             [first] once this CAS returns: self-link it
             (Kp_helping.dequeued_value says why that is safe) before
             our [op_exit], which is what lets a quarantined pool hand
             it out again. *)
          let won = A.compare_and_set t.head first next in
          A.set (link first) first;
          if won then release_node t ~tid first;
          if failures > 0 then note_fast_rounds t ~tid (failures + 1);
          Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
          Some v
        end
        else begin
          (* Someone else's dequeue is mid-flight on this sentinel;
             finish it and retry. *)
          note_claim_handoff t ~tid;
          H.help_finish_deq t.h ~self:tid;
          fast_dequeue t ~tid (failures + 1)
        end
      else fast_dequeue t ~tid (failures + 1)

  let dequeue t ~tid =
    op_enter t ~tid;
    maybe_help t ~tid;
    let result = fast_dequeue t ~tid 0 in
    op_exit t ~tid;
    result

  (* ------------------------------------------------------------------ *)
  (* Batch operations                                                   *)
  (* ------------------------------------------------------------------ *)

  (* Bounded tail catch-up after a failed batch jump: helpers advanced
     [tail] into the chain one fast-node step at a time, so walk it the
     rest of the way (at most [k] steps — stops early once [tail.next]
     is nil or someone else finishes the job). Pure helping; every
     CAS target is validated like MS tail fixing. *)
  let rec catch_up_tail t k =
    if k > 0 then begin
      let l = A.get t.tail in
      let nx = A.get (link l) in
      if nx != t.nil then begin
        ignore (A.compare_and_set t.tail l nx);
        catch_up_tail t (k - 1)
      end
    end

  (* Fast-path batch enqueue: pre-link the chain (plain stores on nodes
     nobody can reach), then a single MS append CAS linearizes all k
     elements and one tail CAS (jump to the chain's last node) fixes
     the hint — 2 CASes per uncontended batch vs 2k for per-item
     enqueues. On budget exhaustion the slow path adopts the whole
     chain under one descriptor. *)
  let enqueue_batch t ~tid values =
    match values with
    | [] -> ()
    | [ v ] -> enqueue t ~tid v
    | v0 :: rest ->
        op_enter t ~tid;
        let k = List.length values in
        Kp_helping.record_batch t.h.H.obsv ~tid k;
        maybe_help t ~tid;
        let chain_first = alloc_node t ~tid v0 in
        let chain_last =
          List.fold_left
            (fun prev v ->
              let n = alloc_node t ~tid v in
              A.set (link prev) n;
              n)
            chain_first rest
        in
        (* Seeded Batch_partial_publish: sever the chain after its
           first node — the link CAS below then publishes one element
           while the caller believes all [k] went in. *)
        if t.fault = Some Batch_partial_publish then
          A.set (link chain_first) t.nil;
        let rec attempt failures cas =
          if failures >= t.max_failures then begin
            note_fast_rounds t ~tid failures;
            note_batch_cas t ~tid cas;
            slow_enqueue t ~tid chain_first chain_last
          end
          else
            let last = A.get t.tail in
            let next = A.get (link last) in
            if last == A.get t.tail then
              if next == t.nil then begin
                if A.compare_and_set (link last) t.nil chain_first then begin
                  (* Linearized (all k elements at once). Jump [tail]
                     over the chain; on failure helpers advanced it one
                     node at a time — walk it the rest of the way so
                     the next operation never inherits a multi-node
                     lag. *)
                  if not (A.compare_and_set t.tail last chain_last) then
                    catch_up_tail t k;
                  if failures > 0 then note_fast_rounds t ~tid (failures + 1);
                  note_batch_cas t ~tid (cas + 2);
                  Wfq_obsv.Counter.incr t.fast_hits ~slot:tid
                end
                else attempt (failures + 1) (cas + 1)
              end
              else begin
                H.help_finish_enq t.h ~self:tid;
                attempt (failures + 1) cas
              end
            else attempt (failures + 1) cas
        in
        attempt 0 0;
        op_exit t ~tid

  (* Fast-path batch dequeue: claim the sentinel once, then jump [head]
     over a whole prefix with a single CAS (docs/BATCHING.md). The
     prefix grab is safe because every delivery — fast or slow,
     per-item or batch — requires claiming the node currently at
     [t.head]: while our claim holds and [head] still points at the
     claimed sentinel, nobody can deliver anything, and the next
     pointers of nodes still in the queue are immutable (set once,
     nil -> succ), so the walked chain is exactly what the jump
     publishes. A next pointer changes a second time, to a self-link,
     only once [head] has left its node, so the walk can meet one only
     after [head] has left the claimed sentinel; the jump CAS then
     fails and the values walked past are dropped. A successful jump
     linearizes every collected element at the jump CAS (the skipped
     nodes are never observable as sentinels) and self-links each of
     them; a failed jump means a helper already swung [head] one node
     on our behalf, so only the claimed first element is delivered —
     the per-item path's behaviour — and only [first] is self-linked.
     Uncontended cost: 2 CASes per prefix vs 2 per element.
     When the shared [max_failures] budget runs out, a single slow-path
     descriptor collects the remaining suffix. *)
  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Kp_queue_fps.dequeue_batch: n";
    if n = 0 then []
    else begin
      op_enter t ~tid;
      Kp_helping.record_batch t.h.H.obsv ~tid n;
      maybe_help t ~tid;
      let rec go acc got failures cas =
        if got = n then begin
          note_batch_cas t ~tid cas;
          if failures > 0 then note_fast_rounds t ~tid failures;
          List.rev acc
        end
        else if failures >= t.max_failures then begin
          note_fast_rounds t ~tid failures;
          note_batch_cas t ~tid cas;
          List.rev_append acc (slow_dequeue_batch t ~tid ~want:(n - got))
        end
        else
          let first = A.get t.head in
          let claim0 = N.claim_word first in
          let last = A.get t.tail in
          let next = A.get (link first) in
          if first == A.get t.head then
            if first == last then
              if next == t.nil then begin
                (* Observed empty: the batch completes short. *)
                note_batch_cas t ~tid cas;
                if failures > 0 then note_fast_rounds t ~tid failures;
                Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
                List.rev acc
              end
              else begin
                H.help_finish_enq t.h ~self:tid;
                go acc got (failures + 1) cas
              end
            else if next == t.nil then
              go acc got (failures + 1) cas (* transient view *)
            else if
              N.try_claim first ~observed:claim0
                ~tid:(t.num_threads + tid)
            then begin
              let v1 = next.N.value in
              (* Walk up to the remaining want along the stable
                 chain, newest first — capped at the observed
                 [last]: jumping [head] past [tail] would strand
                 [tail] on a grabbed (possibly released) node and
                 break the MS head-behind-tail invariant, which
                 enqueuers rely on. [last] was read while the
                 sentinel was [first] (the claim's success proves
                 the view), so it is on the chain at or after
                 [next]; a lagging cap only shortens the grab. *)
              let rec walk node vs m =
                if m = n - got || node == last then (node, vs, m)
                else
                  let nx2 = A.get (link node) in
                  if nx2 == t.nil then (node, vs, m)
                  else
                    walk nx2 (nx2.N.value :: vs) (m + 1)
              in
              let last_node, extra_rev, m = walk next [] 1 in
              Wfq_obsv.Counter.incr t.fast_hits ~slot:tid;
              if A.compare_and_set t.head first last_node then begin
                (* The skipped nodes [first .. pred last_node] are
                   unreachable from [head] and claimed/covered by
                   us alone — read each [next], then self-link the
                   node and release it. *)
                let rec release_prefix node =
                  if node != last_node then begin
                    let nxt = A.get (link node) in
                    A.set (link node) node;
                    release_node t ~tid node;
                    release_prefix nxt
                  end
                in
                release_prefix first;
                go (extra_rev @ (v1 :: acc)) (got + m) failures (cas + 2)
              end
              else begin
                (* A helper swung [head] one node for us: only the
                   claimed first element was taken. *)
                A.set (link first) first;
                go (v1 :: acc) (got + 1) failures (cas + 2)
              end
            end
            else begin
              note_claim_handoff t ~tid;
              H.help_finish_deq t.h ~self:tid;
              go acc got (failures + 1) (cas + 1)
            end
          else go acc got (failures + 1) cas
      in
      let result = go [] 0 0 0 in
      op_exit t ~tid;
      result
    end

  (* ------------------------------------------------------------------ *)
  (* Observers (quiescent use)                                          *)
  (* ------------------------------------------------------------------ *)

  let to_list t = H.to_list t.h
  let length t = H.length t.h
  let is_empty t = H.is_empty t.h

  let check_quiescent_invariants t =
    match H.check_quiescent_invariants t.h with
    | Error _ as e -> e
    | Ok () when A.get t.slow_pending <> 0 ->
        Error
          (Printf.sprintf "slow_pending = %d at quiescence"
             (A.get t.slow_pending))
    | Ok () -> Ok ()

  (* ------------------------------------------------------------------ *)
  (* White-box probes (tests)                                           *)
  (* ------------------------------------------------------------------ *)

  let max_failures t = t.max_failures
  let fast_path_hits_of t ~tid = Wfq_obsv.Counter.slot_value t.fast_hits ~slot:tid
  let slow_path_entries_of t ~tid =
    Wfq_obsv.Counter.slot_value t.slow_entries ~slot:tid
  let fast_path_hits t = Wfq_obsv.Counter.total t.fast_hits
  let slow_path_entries t = Wfq_obsv.Counter.total t.slow_entries
  let pending_of t ~tid = H.pending_of t.h ~tid
  let phase_of t ~tid = H.phase_of t.h ~tid
  let pool_stats t = H.pool_stats t.h

  let debug_dump t =
    let head = A.get t.head and tail = A.get t.tail in
    let node_id (n : 'a node) = Hashtbl.hash n in
    Printf.printf "head=%d (deq_tid=%d) tail=%d tail.next=%s\n"
      (node_id head) (N.claimed_tid head) (node_id tail)
      (let n = A.get (link tail) in
       if n == t.nil then "nil"
       else
         Printf.sprintf "%d (enq_tid=%d, deq_tid=%d)" (node_id n) n.enq_tid
           (N.claimed_tid n));
    Printf.printf "head==tail: %b; slow_pending=%d\n" (head == tail)
      (A.get t.slow_pending);
    Array.iteri
      (fun tid slot ->
        let d = A.get slot in
        Printf.printf
          "tid %d: pending=%b enq=%b phase=%d node=%s fast=%d slow=%d\n" tid
          d.H.pending d.H.enqueue d.H.phase
          (if d.H.node == t.nil then "nil"
           else string_of_int (node_id d.H.node))
          (Wfq_obsv.Counter.slot_value t.fast_hits ~slot:tid)
          (Wfq_obsv.Counter.slot_value t.slow_entries ~slot:tid))
      t.h.H.state;
    let rec walk i n =
      if i < 8 then begin
        Printf.printf "  list[%d]: node %d enq_tid=%d deq_tid=%d%s%s\n" i
          (node_id n) n.enq_tid (N.claimed_tid n)
          (if n == head then " <-head" else "")
          (if n == tail then " <-tail" else "");
        let nx = A.get (link n) in
        if nx != t.nil then walk (i + 1) nx
      end
    in
    walk 0 head

  (* Attach the always-on path counters (and, when pooled, the pools'
     counters and gauges) to a metrics registry. The optional [?obsv]
     handle registers itself at construction; this covers the rest. *)
  let register_metrics t registry ~prefix =
    let open Wfq_obsv in
    Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () -> length t);
    Metrics.register registry (prefix ^ ".fast_hits")
      (Metrics.Counter t.fast_hits);
    Metrics.register registry (prefix ^ ".slow_entries")
      (Metrics.Counter t.slow_entries);
    H.register_pool_metrics t.h registry ~prefix
end
