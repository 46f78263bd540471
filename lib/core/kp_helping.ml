(** The Kogan-Petrank helping engine: the paper's wait-free slow path,
    written once and shared by {!Kp_queue}, {!Kp_queue_fps} and
    {!Kp_queue_hp}.

    Faithful port of the Java pseudocode in the paper's Figures 1, 2, 4
    and 6; comments of the form "L74" refer to the paper's line numbers.
    Every thread owns a slot in the [state] array holding its current
    {e operation descriptor} (phase, pending flag, operation type,
    node). An operation (paper §3.1) picks a phase strictly larger than
    every phase chosen before it, publishes its descriptor, and helps
    every pending operation whose phase is ≤ its own, its own included.
    Each operation type is split into three atomic steps so helpers apply
    it exactly once: (1) mutate the list — the linearization point, (2)
    flip [pending] to false in the owner's descriptor, (3) fix [tail]
    (enqueue) or [head] (dequeue). Step (1) is a CAS on [last.next]
    (enqueue, L74) or on the first node's [deq_tid] field (dequeue, L135).

    This module holds everything behind the publication: descriptors,
    state slots, node and descriptor pools, the phase and help policies,
    [help_enq]/[help_deq] (single and batch) and the [help_finish_*]
    steps. {!Kp_queue} drives it directly (publish, then help);
    {!Kp_queue_fps} runs a bounded Michael-Scott fast path over the same
    list and enters it only after persistent interference.

    Both claim protocols run through the one [help_finish_*] pair, as
    branches on node data rather than on who is calling:
    - a node with [enq_tid = no_tid] was appended by a fast-path enqueue
      and has no descriptor — finishing it only advances [tail];
    - a sentinel claimed with a tid [>= num_threads] belongs to a
      fast-path dequeue — finishing it only swings [head].
    Base KP never creates such nodes or claims, so these branches are
    dead there.

    {!Kp_queue_hp} runs on it too, with a hazard domain chosen at
    [create] (paper §3.4). The hooks are branches on the [hp] field,
    not a functor parameter, so the other variants pay one field test
    per traversal read and no extra shared-memory step:
    - [protect] publishes the [head] or [tail] node in slot 0 and reads
      the cell once more; if the reads disagree, the round ends there
      ([help_enq]/[help_deq] re-check [is_still_pending], the
      [help_finish_*] steps return), so the hooks add no unbounded
      loop; [protect_next] publishes [next] in slot 1 before the head
      or tail re-check that follows it anyway;
    - [protect_transfer] publishes the descriptor's node before L74 and
      checks that the state slot still holds the descriptor;
    - the head winner retires the old sentinel to the hazard domain,
      whose scans free into the node pool; [op_exit] clears the slots;
    - the descriptors' [node] fields are extra hazard roots.

    [head], [tail], the phase counter and the [state] slots are made
    with [A.make_padded]: every domain CASes them, and on the real
    plane each sits on a cache line of its own, so a CAS on one does
    not invalidate the line that holds another.

    Internal to the Kogan-Petrank family: the public interfaces are
    {!Kp_queue}, {!Kp_queue_fps} and {!Kp_queue_hp}. *)

type help_policy =
  | Help_all  (** base algorithm: scan the whole [state] array (L36-47) *)
  | Help_one_cyclic
      (** optimization 1: help at most one other pending operation per call,
          choosing candidates cyclically *)

type phase_policy =
  | Phase_scan  (** base algorithm: [maxPhase()] scan (L48-57) *)
  | Phase_counter
      (** optimization 2: atomic counter bumped by a CAS whose result is
          deliberately ignored (footnote 3) *)

(* Test-only seeded bugs (model-checker calibration): each reinstates a
   known-fatal deviation from the protocol so the test suite can prove
   the checker finds it. Only {!Kp_queue_fps.Make.create_with} accepts
   one; never set in production code. The first and third live in this
   module, the other two in the fast path. *)
type fault =
  | Stale_helper_caller_phase
      (* help_slot passes the caller's bound down instead of the
         descriptor's own phase — the PR 2 livelock, un-fixed *)
  | Fast_deq_no_claim
      (* fast-path dequeue swings head MS-style without claiming the
         sentinel's deq_tid — races slow dequeues into duplication *)
  | Untagged_pool_claim
      (* pooled-node recycling without the epoch tag: reset restores the
         plain -1 claim word instead of bumping the incarnation, so a
         stalled dequeuer's claim CAS can ABA a recycled node (claim it
         on the strength of a reference captured in its previous life).
         Only meaningful with ~pool:true. *)
  | Batch_partial_publish
      (* fast-path batch enqueue severs the chain after its first node
         before the link CAS, silently dropping the suffix while
         reporting the whole batch enqueued — a conservation violation
         the batch DPOR litmuses must find and shrink. Only fires on
         fast-path batches of >= 2 elements. *)

(* Instrumentation handle (Wfq_obsv): per-tid single-writer cells only,
   so an instrumented queue performs no extra shared-cell traffic — the
   protocol's atomic-step traces are identical with and without it
   (test/test_obsv.ml pins this under DPOR). [None] compiles the hot
   paths down to the uninstrumented match arm. *)
type metrics = {
  m_help : Wfq_obsv.Counter.t;
      (* peer-help dispatches, per helper tid (paper L36-47 scans that
         found a pending peer; self-dispatches are not counted) *)
  m_phase_lag : Wfq_obsv.Histogram.t;
      (* helper's phase minus the helped peer descriptor's phase at
         dispatch time: how far behind the operations we rescue are *)
  m_desc_cas_fail : Wfq_obsv.Counter.t;
      (* descriptor-completion/publication CASes lost to a racing
         helper (every [drop_desc] site) *)
  m_phase_cas_lost : Wfq_obsv.Counter.t;
      (* Phase_counter bumps whose CAS failed (footnote 3): the bump is
         lost, the phase is shared with the winner — harmless for
         correctness, but previously invisible *)
  m_batch_size : Wfq_obsv.Histogram.t;
      (* elements per batch operation (enqueue_batch chain length /
         dequeue_batch want), recorded once per batch at entry — the
         denominator of the amortized-CAS story (docs/BATCHING.md) *)
}

let metrics registry ~prefix ~slots =
  let open Wfq_obsv in
  {
    m_help = Metrics.counter registry ~name:(prefix ^ ".help_events") ~slots;
    m_phase_lag =
      Metrics.histogram registry ~name:(prefix ^ ".phase_lag") ~slots;
    m_desc_cas_fail =
      Metrics.counter registry ~name:(prefix ^ ".desc_cas_failures") ~slots;
    m_phase_cas_lost =
      Metrics.counter registry ~name:(prefix ^ ".phase_cas_lost") ~slots;
    m_batch_size =
      Metrics.histogram registry ~name:(prefix ^ ".batch_size") ~slots;
  }

let record_batch obsv ~tid k =
  match obsv with
  | Some m -> Wfq_obsv.Histogram.record m.m_batch_size ~slot:tid k
  | None -> ()

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module N = Kp_internals.Make (A)
  open N

  module Pool = Wfq_primitives.Segment_pool.Make (A)
  module Hp = Wfq_hazard.Hazard.Make (A)

  (* Paper Figure 1, lines 13-24. State slots advance by physical-
     equality CAS exactly like Java reference CAS. The fields are
     mutable only to support descriptor recycling: a pooled record's
     fields are written by its allocator {e before} it is published
     through the slot's atomic CAS/exchange, and never after — so every
     reader that can reach the record observes frozen values, exactly as
     with immutable records.
     Stale readers that still hold a displaced record are covered by the
     pool's quarantine: the record cannot be recycled (hence re-written)
     until they finish their operation. *)
  type 'a op_desc = {
    mutable phase : int;
    mutable pending : bool;
    mutable enqueue : bool;
    mutable node : 'a N.node; (* the queue's nil: no node *)
    (* Batch extension. A batch enqueue publishes one descriptor for a
       pre-linked chain of nodes: [node] is the chain's first node (the
       single L74 CAS linearizes the whole chain) and [last_node] its
       last, so [help_finish_enq] fixes [tail] with one jump over the
       batch. A batch dequeue publishes [want] > 0; each element claim
       appends its value to [taken] (length cached in [got_n]) by
       replacing the whole record, and the operation stays pending
       until [got_n = want] or the queue empties. Single operations
       keep [last_node] nil and [want = 0].

       Eight fields, 9 words: the pool keeps its free stacks and
       quarantines in arrays of its own, so a pooled descriptor carries
       nothing for it. *)
    mutable last_node : 'a N.node;
    mutable want : int;
    mutable got_n : int;
    mutable taken : 'a list;
  }

  (* An idle descriptor: the queue's [idle_desc], and a blank record for
     the descriptor pool to carve. *)
  let make_idle_desc ~nil =
    { phase = -1; pending = false; enqueue = true; node = nil;
      last_node = nil; want = 0; got_n = 0; taken = [] }

  (* Allocation recycling: one pool of list nodes and one of
     descriptors, sharing a single epoch clock — one enter/exit
     announcement per queue operation covers both. [descs] is [None]
     when quarantine is disabled: descriptor reuse is only sound under
     quarantine (a stale helper still dereferences the displaced
     record's fields), whereas node reuse with the epoch tag alone is
     exactly what the model-checking scenario isolates. *)
  type 'a pools = {
    nodes : 'a N.node Pool.t;
    descs : 'a op_desc Pool.t option;
  }

  type 'a t = {
    head : 'a N.node A.t; (* L25 *)
    tail : 'a N.node A.t; (* L25 *)
    hp : 'a N.node Hp.t option;
        (* §3.4 hazard domain; only with unquarantined node recycling
           and so no descriptor pool ({!Kp_queue_hp}) *)
    state : 'a op_desc A.t array; (* L26 *)
    phase_counter : int A.t; (* optimization 2 (§3.3) *)
    help_policy : help_policy;
    phase_policy : phase_policy;
    help_cursor : int array;
        (* per-tid cyclic cursor for [Help_one_cyclic]; single-writer *)
    num_threads : int;
    pools : 'a pools option;
    obsv : metrics option;
    fault : fault option; (* test-only seeded bug, None in production *)
    idle_desc : 'a op_desc;
        (* the shared construction-time descriptor; never pool-released *)
    idle_node : 'a N.node;
        (* the queue's nil ([Kp_internals.make_nil]): never on the list;
           the [next] of the last node and the "no node" of a
           descriptor *)
  }

  (* [who] prefixes the [Invalid_argument] messages with the public
     module's name. *)
  let create ~who ?(pool = false) ?pool_segment ?(pool_quarantine = true)
      ?(hazards = false) ?scan_threshold ?obsv ?fault ~help ~phase
      ~num_threads () =
    if num_threads <= 0 then invalid_arg (who ^ ".create: num_threads");
    assert ((not hazards) || (pool && not pool_quarantine));
    (match pool_segment with
    | Some k when k <= 0 ->
        invalid_arg (who ^ ".create: pool_segment must be positive")
    | _ -> ());
    (* The first sentinel is a blank node like every other, its [next]
       holding [idle_node], the empty list's nil. *)
    let idle_node = make_nil () in
    let blank_node () =
      make_node ~nil:idle_node ~enq_tid:no_tid Kp_internals.no_value
    in
    let sentinel = blank_node () in
    let idle = make_idle_desc ~nil:idle_node in
    let state = Array.init num_threads (fun _ -> A.make_padded idle) in
    let pools =
      if not pool then None
      else begin
        let clock = Pool.Clock.create ~num_threads in
        let node_reset =
          if fault = Some Untagged_pool_claim then
            N.recycle_untagged ~nil:idle_node
          else N.recycle ~nil:idle_node
        in
        let nodes =
          Pool.create ?segment_size:pool_segment
            ~quarantine:pool_quarantine ~clock ~num_threads
            ~fresh:blank_node ~reset:node_reset ()
        in
        let descs =
          if pool_quarantine then
            Some
              (Pool.create ?segment_size:pool_segment ~quarantine:true
                 ~clock ~num_threads
                 ~fresh:(fun () -> make_idle_desc ~nil:idle_node)
                 ~reset:(fun _ -> ()) ())
          else None
        in
        Some { nodes; descs }
      end
    in
    let hp =
      match pools with
      | Some { nodes; _ } when hazards ->
          let descriptor_roots () =
            Array.fold_left
              (fun acc slot ->
                let n = (A.get slot).node in
                if n == idle_node then acc else n :: acc)
              [] state
          in
          (* A scan runs in the retiring thread and frees into that
             thread's own pool slot. It has just found the node in no
             hazard slot and no descriptor, so nobody can still read its
             [next]: self-link it, so that a parked node keeps no chain
             of later nodes alive. *)
          let free ~tid n =
            A.set (link n) n;
            Pool.release nodes ~tid n
          in
          Some
            (Hp.create ?scan_threshold ~extra_hazards:descriptor_roots
               ~nil:idle_node ~num_threads ~slots_per_thread:2 ~free ())
      | _ -> None
    in
    {
      head = A.make_padded sentinel;
      tail = A.make_padded sentinel;
      hp;
      state;
      phase_counter = A.make_padded (-1);
      help_policy = help;
      phase_policy = phase;
      help_cursor = Array.make num_threads 0;
      num_threads;
      pools;
      obsv;
      fault;
      idle_desc = idle;
      idle_node;
    }

  (* ------------------------------------------------------------------ *)
  (* Pool plumbing. [self] is always the {e executing} thread's tid —    *)
  (* a helper allocates and releases through its own pool slot, never    *)
  (* the helped thread's (the slots are single-owner).                   *)
  (* ------------------------------------------------------------------ *)

  let op_enter t ~tid =
    match t.pools with Some p -> Pool.enter p.nodes ~tid | None -> ()

  let op_exit t ~tid =
    (match t.pools with Some p -> Pool.exit p.nodes ~tid | None -> ());
    match t.hp with Some hp -> Hp.clear_all hp ~tid | None -> ()

  let alloc_node t ~self ~enq_tid value =
    match t.pools with
    | Some p ->
        let n = Pool.alloc p.nodes ~tid:self in
        n.N.value <- value;
        n.N.enq_tid <- enq_tid;
        n
    | None -> make_node ~nil:t.idle_node ~enq_tid value

  (* Called by the unique winner of the head-swing CAS: at that point
     the old sentinel is unreachable from the queue, and the pool's
     quarantine, or the hazard domain (the paper's RetireNode), keeps it
     intact while an in-flight operation may still hold a reference from
     an earlier head read. *)
  let release_node t ~self n =
    match (t.hp, t.pools) with
    | Some hp, _ -> Hp.retire hp ~tid:self n
    | None, Some p -> Pool.release p.nodes ~tid:self n
    | None, None -> ()

  (* The descriptor allocator: the batch protocol threads [last]/[want]/
     [got]/[taken] through every record transition. *)
  let mk_desc t ~self ~phase ~pending ~enqueue ~last ~want ~got ~taken
      ~node =
    match t.pools with
    | Some { descs = Some dp; _ } ->
        let d = Pool.alloc dp ~tid:self in
        d.phase <- phase;
        d.pending <- pending;
        d.enqueue <- enqueue;
        d.node <- node;
        d.last_node <- last;
        d.want <- want;
        d.got_n <- got;
        d.taken <- taken;
        d
    | _ ->
        { phase; pending; enqueue; node; last_node = last; want;
          got_n = got; taken }

  (* A descriptor that lost its publication CAS was never visible to
     anyone: back to the pool immediately. Every call site is a lost
     descriptor CAS, so this is also the counting point. *)
  let drop_desc t ~self d =
    (match t.obsv with
    | Some m -> Wfq_obsv.Counter.incr m.m_desc_cas_fail ~slot:self
    | None -> ());
    match t.pools with
    | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
    | _ -> ()

  (* The record displaced by a successful publication. Physical-equality
     CAS (and the owner's atomic exchange) guarantee a unique displacer
     per record, so each is retired exactly once. *)
  let retire_desc t ~self d =
    if d != t.idle_desc then
      match t.pools with
      | Some { descs = Some dp; _ } -> Pool.release dp ~tid:self d
      | _ -> ()

  (* Owner-side publication. Unpooled: the historical plain store.
     Pooled: an atomic exchange, so the displaced record is recovered
     without racing a helper's completion CAS on the same slot (a plain
     read-then-store pair could retire a record a concurrent helper
     just displaced, double-releasing it). *)
  let publish t ~tid d =
    match t.pools with
    | Some { descs = Some _; _ } ->
        retire_desc t ~self:tid (A.exchange t.state.(tid) d)
    | _ -> A.set t.state.(tid) d

  (* One descriptor-record transition: install [new_desc] over
     [cur_desc] in [tid]'s slot, retiring the displaced record on
     success and dropping the unpublished one on failure. *)
  let transition t ~self tid cur_desc new_desc =
    let won = A.compare_and_set t.state.(tid) cur_desc new_desc in
    if won then retire_desc t ~self cur_desc else drop_desc t ~self new_desc;
    won

  (* L48-57 *)
  let max_phase t =
    Array.fold_left
      (fun acc slot -> max acc (A.get slot).phase)
      (-1) t.state

  let next_phase t ~tid =
    match t.phase_policy with
    | Phase_scan -> max_phase t + 1
    | Phase_counter ->
        (* Footnote 3: a failed CAS just means another thread picked the
           same phase, which is harmless for correctness — the phase
           need not be unique, only non-decreasing — so the bump is
           dropped rather than retried, and [m_phase_cas_lost] counts
           it (duplicated phases mean extra helping traffic). *)
        let cur = A.get t.phase_counter in
        if not (A.compare_and_set t.phase_counter cur (cur + 1)) then begin
          match t.obsv with
          | Some m -> Wfq_obsv.Counter.incr m.m_phase_cas_lost ~slot:tid
          | None -> ()
        end;
        cur + 1

  (* L58-60 *)
  let is_still_pending t tid phase =
    let desc = A.get t.state.(tid) in
    desc.pending && desc.phase <= phase

  (* ------------------------------------------------------------------ *)
  (* §3.4 hazard hooks: plain reads, or nothing, when [hp = None]       *)
  (* ------------------------------------------------------------------ *)

  (* Validate [n], just read from [head] or [tail]. With hazard
     pointers, publish it in slot 0 and read the cell once more: if the
     reads agree, the node was still on the list after its publication,
     so no scan can free it while the slot holds it. One attempt only:
     a retry loop would be lock-free, not wait-free, since other threads
     can move the cell between every pair of reads. On [false] the
     caller gives up this round: [help_enq]/[help_deq] go back through
     [is_still_pending], which the phase protocol bounds, and
     [help_finish_*] return. Without hazard pointers it is [true]. *)
  let protect t ~self cell n =
    match t.hp with
    | Some hp ->
        Hp.protect hp ~tid:self ~slot:0 n;
        A.get cell == n
    | _ -> true

  (* Publish a [next] read in slot 1. The caller's head or tail re-check
     validates it: while that node is still [head] or [tail], its
     successor is neither dequeued nor retired. *)
  let protect_next t ~self next =
    match t.hp with
    | Some hp when next != t.idle_node -> Hp.protect hp ~tid:self ~slot:1 next
    | _ -> ()

  (* Before L74 installs [desc]'s node, publish it in slot 1 and check
     that the state slot still holds [desc]. Descriptors are not
     recycled under hazard pointers and every transition installs a new
     record, so an unchanged slot rooted the node from the read to the
     publication: it cannot have been freed and reused in between. The
     check is on the record, never on the node it names: a node, once
     recycled, is the same object in its next life. *)
  let protect_transfer t ~self tid desc =
    match t.hp with
    | Some hp ->
        if desc.node != t.idle_node then
          Hp.protect hp ~tid:self ~slot:1 desc.node;
        A.get t.state.(tid) == desc
    | _ -> true

  (* ------------------------------------------------------------------ *)
  (* Enqueue (paper Figure 4)                                           *)
  (* ------------------------------------------------------------------ *)

  (* L85-97: finish the in-progress enqueue, if any. Steps (2) and (3) of
     the scheme: flip the owner's pending flag, then advance [tail]. The
     descriptor CAS (L93) can succeed more than once per node — benign,
     because the replacement descriptor is identical each time.

     A fast-path node ([enq_tid = no_tid]) has no descriptor to finish:
     only [tail] is advanced (its appender may have been preempted
     before its own tail CAS).

     Batch extension: when the appended node heads a pre-linked chain,
     the (validated-fresh) descriptor carries the chain's last node and
     the tail fix jumps over the whole batch in one CAS. The jump is
     safe for the head/tail ordering invariant: claims only happen
     after reading [tail] strictly ahead of [head], so no dequeuer can
     enter the chain before the jump lands, and the CAS-from-[last]
     guarantees the jump only moves [tail] forward. *)
  let help_finish_enq t ~self =
    let last = A.get t.tail in
    if protect t ~self t.tail last then begin
      let next = A.get (link last) in
      protect_next t ~self next;
      if next != t.idle_node then begin
        let tid = next.enq_tid in
        if tid = no_tid then ignore (A.compare_and_set t.tail last next)
        else begin
          (* L89: only real enqueued nodes ever follow [tail]. *)
          assert (tid >= 0 && tid < t.num_threads);
          let cur_desc = A.get t.state.(tid) in
          (* L91: verify the slot still refers to the node just appended;
             guards against racing [help_finish_enq] calls. The jump
             target comes from the {e fresh} descriptor read (the one the
             guard validated against [next]), never from [cur_desc]: a
             stale [cur_desc] from an older operation merely loses its
             completion CAS, but a stale [last_node] would teleport
             [tail]. The guard compares nodes, as the paper's does; a
             recycled node is the same object in its next life, and
             what keeps an earlier life from matching is the pool's
             quarantine or the hazard slot that holds [next]
             (docs/FASTPATH.md, "Unboxed next"). *)
          if last == A.get t.tail then begin
            let slot_desc = A.get t.state.(tid) in
            if slot_desc.node == next then begin
              let target =
                let l = slot_desc.last_node in
                if l == t.idle_node then next else l
              in
              ignore
                (transition t ~self tid cur_desc
                   (mk_desc t ~self ~phase:cur_desc.phase ~pending:false
                      ~enqueue:true ~last:cur_desc.last_node ~want:0
                      ~got:0 ~taken:[] ~node:next));
              ignore (A.compare_and_set t.tail last target)
            end
          end
        end
      end
    end

  (* L67-84: drive thread [tid]'s pending enqueue to completion. The outer
     [is_still_pending] check (L68) is what bounds the loop: it fails as
     soon as any helper completes the operation. *)
  let rec help_enq t ~self tid phase =
    if is_still_pending t tid phase then begin
      let last = A.get t.tail in
      if protect t ~self t.tail last then begin
        let next = A.get (link last) in
        if last == A.get t.tail then
          if next == t.idle_node then begin
            (* L72: tail is accurate, an enqueue can be applied. The inner
               re-check (L73) preserves linearizability: without it a
               stale helper could append a node for an operation that
               already completed. *)
            if is_still_pending t tid phase then begin
              let desc = A.get t.state.(tid) in
              if
                protect_transfer t ~self tid desc
                && A.compare_and_set (link last) t.idle_node desc.node
              then begin
                (* L74 succeeded: the operation is linearized. *)
                help_finish_enq t ~self
              end
              else help_enq t ~self tid phase
            end
            else help_enq t ~self tid phase
          end
          else begin
            (* L79-81: some enqueue is mid-flight; finish it, then retry. *)
            help_finish_enq t ~self;
            help_enq t ~self tid phase
          end
        else help_enq t ~self tid phase
      end
      else help_enq t ~self tid phase
    end

  (* ------------------------------------------------------------------ *)
  (* Dequeue (paper Figure 6)                                           *)
  (* ------------------------------------------------------------------ *)

  (* Every dequeue record transition carries the batch progress
     ([want]/[got_n]/[taken]) across; a single dequeue keeps the
     defaults. *)
  let deq_desc t ~self cur_desc ~pending ~node =
    mk_desc t ~self ~phase:cur_desc.phase ~pending ~enqueue:false
      ~last:t.idle_node ~want:cur_desc.want ~got:cur_desc.got_n
      ~taken:cur_desc.taken ~node

  (* L150: step (3) — physically remove the old sentinel. The unique
     winner retires it into the pool (quarantined until in-flight
     operations that may still hold a reference to it finish). *)
  let swing_head t ~self first next_node =
    if A.compare_and_set t.head first next_node then
      release_node t ~self first

  (* L141-153: finish the dequeue of whichever thread locked the sentinel
     (wrote its tid into [head]'s [deq_tid], L135).

     A claim [>= num_threads] is a fast-path dequeue's: no descriptor to
     complete, only [head] to swing.

     Batch extension ([want] > 0): the claim is one element of a batch.
     Its value is [first.next]'s — appended to [taken] by replacing the
     whole record, which also decides whether the batch stays pending.
     The transition is guarded on the descriptor still recording
     [first]: every transition installs a fresh record, so a stale
     helper's CAS fails and each element is counted exactly once. The
     head swing (step 3) stays unconditional either way. *)
  let help_finish_deq t ~self =
    let first = A.get t.head in
    if protect t ~self t.head first then begin
      let next = A.get (link first) in
      protect_next t ~self next;
      let tid = N.claimed_tid first in (* L144, epoch tag stripped *)
      if tid >= t.num_threads then begin
        if next != t.idle_node && first == A.get t.head then
          swing_head t ~self first next
      end
      else if tid <> no_tid then begin
        let cur_desc = A.get t.state.(tid) in
        if next != t.idle_node && first == A.get t.head then begin
          (if cur_desc.want > 0 then begin
             if cur_desc.pending && cur_desc.node == first then begin
               let v = next.value in
               let got = cur_desc.got_n + 1 in
               ignore
                 (transition t ~self tid cur_desc
                    (mk_desc t ~self ~phase:cur_desc.phase
                       ~pending:(got < cur_desc.want) ~enqueue:false
                       ~last:t.idle_node ~want:cur_desc.want ~got
                       ~taken:(v :: cur_desc.taken) ~node:t.idle_node))
             end
           end
           else
             ignore
               (transition t ~self tid cur_desc
                  (deq_desc t ~self cur_desc ~pending:false
                     ~node:cur_desc.node)));
          swing_head t ~self first next
        end
      end
    end

  (* L109-140, also the batch dequeue driver ([batch] when the
     descriptor's [want] > 0). Stage (1) — pointing the owner's
     descriptor at the current sentinel — exists to make the empty case
     race-free: a helper that sees an empty queue (L116-121) CASes the
     owner's descriptor from one that does NOT point at the sentinel, so
     it cannot race with a helper that saw a non-empty queue and already
     performed stage (1).

     A batch runs the same claim loop until the descriptor has
     collected [want] values (its [pending] flag is flipped by the
     [help_finish_deq] batch transition on the final element) or the
     queue empties (terminal record keeps the partial [taken]). Any
     helper can pick up the remaining suffix of a claimed batch
     mid-flight: every per-element step is the standard record-CAS /
     claim-CAS discipline, so helpers and owner interleave freely with
     exactly-once accounting.

     One batch-specific guard: if the current sentinel is already
     claimed by [tid], its head swing has not landed yet (the previous
     element's step 3). Finish it before seeking — recording a sentinel
     this batch already claimed would append its successor's value
     twice. The guard reads the claim after [cur_desc]: a descriptor
     that has recorded the sentinel's element is installed after the
     claim, so the guard sees any claim that descriptor records. Read
     before [cur_desc], the claim could still be unclaimed, and a
     post-record descriptor would be pointed back at the sentinel and
     record its element again. Fast-path claims ([num_threads + tid])
     never collide with this check: slow batch claims use the plain
     tid. *)
  let rec help_deq ~batch t ~self tid phase =
    if is_still_pending t tid phase then begin
      let first = A.get t.head in
      if protect t ~self t.head first then begin
        (* Capture the sentinel's claim word {e at the same moment} as the
           head reference: the later claim CAS expects this exact word, so
           a node recycled in between (its incarnation epoch bumped)
           cannot be ABA-claimed. Unpooled queues stay at epoch 0, where
           the word is literally the historical [-1]/tid value. *)
        let claim0 = N.claim_word first in
        let last = A.get t.tail in
        let next = A.get (link first) in
        if first == A.get t.head then
          if first == last then begin
            (* L115: queue might be empty *)
            if next == t.idle_node then begin
              (* L116-121: certainly empty — record the empty outcome in
                 the owner's descriptor (it cannot raise here: this code
                 may run in a helper's context, §3.1). A batch completes
                 with whatever it has. *)
              let cur_desc = A.get t.state.(tid) in
              if last == A.get t.tail && is_still_pending t tid phase then
                ignore
                  (transition t ~self tid cur_desc
                     (deq_desc t ~self cur_desc ~pending:false
                        ~node:t.idle_node));
              help_deq ~batch t ~self tid phase
            end
            else begin
              (* L122-123: an enqueue is in progress; help it first. *)
              help_finish_enq t ~self;
              help_deq ~batch t ~self tid phase
            end
          end
          else begin
            (* L125-137: queue is not empty *)
            let cur_desc = A.get t.state.(tid) in
            if batch && N.claimed_tid first = tid then begin
              help_finish_deq t ~self;
              help_deq ~batch t ~self tid phase
            end
            (* L128: break — required for linearizability. *)
            else if is_still_pending t tid phase then begin
              (if
                 first == A.get t.head
                 && cur_desc.node != first
                 (* L129-133: stage (1) — record the current sentinel; a
                    lost CAS is L132's continue. *)
                 && not
                      (transition t ~self tid cur_desc
                         (deq_desc t ~self cur_desc ~pending:true
                            ~node:first))
               then ()
               else begin
                 (* L135: stage (2) — lock the sentinel; the successful
                    CAS is the linearization point of the dequeue. *)
                 ignore (N.try_claim first ~observed:claim0 ~tid);
                 help_finish_deq t ~self
               end);
              help_deq ~batch t ~self tid phase
            end
          end
        else help_deq ~batch t ~self tid phase
      end
      else help_deq ~batch t ~self tid phase
    end

  (* ------------------------------------------------------------------ *)
  (* Helping policies                                                   *)
  (* ------------------------------------------------------------------ *)

  (* The phase passed DOWN is the descriptor's own ([desc.phase]), not
     the caller's bound. A tid's phases strictly increase, so a helper
     that read the descriptor before the operation completed fails its
     [is_still_pending] re-check as soon as the tid publishes its next
     operation. Helping at a larger bound would let a stale helper latch
     onto that next operation — possibly of the other kind, e.g.
     rewriting a pending enqueue descriptor through the dequeue helper,
     or re-appending a consumed node. The paper's help() (Fig. 2) passes
     the caller's phase, which is equivalent when the caller is a
     phase-publishing operation: every later operation of the helped tid
     picks a phase above the caller's. The fast path's [maybe_help]
     helps at bound [max_int], which is only safe because of this. *)
  let help_slot t ~self i phase =
    let desc = A.get t.state.(i) in
    if desc.pending && desc.phase <= phase then begin
      (* Peer helps only: dispatching your own freshly-published op is
         the common uncontended path (lag 0 by construction), so
         counting it would bury the signal and put a histogram record
         on every operation. A help event is rescuing someone else. *)
      (if i <> self then
         match t.obsv with
         | Some m ->
             Wfq_obsv.Counter.incr m.m_help ~slot:self;
             (* How stale is the operation we are about to rescue?
                Large lags mean threads are falling behind their
                helpers (scheduling pressure). *)
             Wfq_obsv.Histogram.record m.m_phase_lag ~slot:self
               (phase - desc.phase)
         | None -> ());
      let bound =
        match t.fault with
        | Some Stale_helper_caller_phase -> phase (* seeded bug *)
        | _ -> desc.phase
      in
      if desc.enqueue then help_enq t ~self i bound
      else help_deq ~batch:(desc.want > 0) t ~self i bound
    end

  (* L36-47, or optimization 1: help the next candidate of this
     thread's cyclic cursor, then the caller itself. Either way the
     caller's own operation is completed before returning. *)
  let run_help t ~tid ~phase =
    match t.help_policy with
    | Help_all ->
        for i = 0 to Array.length t.state - 1 do
          help_slot t ~self:tid i phase
        done
    | Help_one_cyclic ->
        let c = t.help_cursor.(tid) in
        t.help_cursor.(tid) <- (c + 1) mod t.num_threads;
        if c <> tid then help_slot t ~self:tid c phase;
        help_slot t ~self:tid tid phase

  (* ------------------------------------------------------------------ *)
  (* Publish-then-help: the part of every slow operation after its      *)
  (* phase pick                                                         *)
  (* ------------------------------------------------------------------ *)

  (* L62-65 for the chain [first .. last] ([last] nil for a single
     node): publish, help, then finalize. The finalizing
     [help_finish_enq] (L65) is required for wait-freedom — without it a
     completed-but-unfinalized enqueue would block all future enqueues
     until the suspended helper resumes (§3.2) — and for a batch it also
     guarantees the tail jump has landed. *)
  let enqueue_published t ~tid ~phase first last =
    publish t ~tid
      (mk_desc t ~self:tid ~phase ~pending:true ~enqueue:true ~last
         ~want:0 ~got:0 ~taken:[] ~node:first);
    run_help t ~tid ~phase;
    help_finish_enq t ~self:tid

  (* L99-102 for [want] elements ([want = 0]: a single dequeue). The
     finalizing [help_finish_deq] (L102) ensures [head] no longer refers
     to a node whose [deq_tid] is ours before returning. *)
  let dequeue_published t ~tid ~phase ~want =
    publish t ~tid
      (mk_desc t ~self:tid ~phase ~pending:true ~enqueue:false
         ~last:t.idle_node ~want ~got:0 ~taken:[] ~node:t.idle_node);
    run_help t ~tid ~phase;
    help_finish_deq t ~self:tid

  (* L104-107: the single dequeue's result. The descriptor points at the
     sentinel that preceded our element at the linearization point;
     [node] may already be pool-released by the head winner, but
     quarantine keeps its fields intact until the caller exits.

     Once the value is read, the owner self-links that sentinel (a store
     of an existing node: no allocation). Otherwise a
     sentinel promoted before its dequeue keeps the young node behind it
     reachable, and through it every node enqueued since: the next minor
     collection promotes the whole chain (nepotism). The store is safe:
     - [dequeue_published]'s final [help_finish_deq] has moved [head]
       past [node], and a dequeued sentinel is never [tail] again
       (claims require [first != last]);
     - every reader of a possibly-dequeued node's [next] ([help_enq],
       [help_finish_enq], [help_deq], [help_finish_deq], the fast
       paths) checks [head] or [tail] again after the read, and so
       discards a self-link;
     - the fast batch walk meets one only after [head] has left its
       claimed sentinel; its jump CAS then fails and it delivers only
       the claimed element. *)
  let dequeued_value t ~tid =
    let node = (A.get t.state.(tid)).node in
    if node == t.idle_node then None (* L104-105: linearized on empty *)
    else begin
      let next = A.get (link node) in
      assert (next != t.idle_node);
      let v = next.value in
      A.set (link node) node;
      Some v
    end

  (* A batch dequeue's collected prefix, in FIFO order. *)
  let dequeued_batch t ~tid = List.rev (A.get t.state.(tid)).taken

  (* ------------------------------------------------------------------ *)
  (* Observers (quiescent use)                                          *)
  (* ------------------------------------------------------------------ *)

  let to_list t = N.to_list ~nil:t.idle_node t.head
  let length t = N.length ~nil:t.idle_node t.head
  let is_empty t = N.is_empty ~nil:t.idle_node t.head

  let check_quiescent_invariants t =
    match
      N.check_list_invariants ~nil:t.idle_node ~head:t.head ~tail:t.tail
    with
    | Error _ as e -> e
    | Ok () ->
        let pending =
          Array.fold_left
            (fun n slot -> if (A.get slot).pending then n + 1 else n)
            0 t.state
        in
        if pending > 0 then
          Error
            (Printf.sprintf "%d state slots still pending at quiescence"
               pending)
        else Ok ()

  let hot_cells t =
    Obj.repr t.head :: Obj.repr t.tail :: Obj.repr t.phase_counter
    :: List.map Obj.repr (Array.to_list t.state)

  let phase_of t ~tid = (A.get t.state.(tid)).phase
  let pending_of t ~tid = (A.get t.state.(tid)).pending

  (* Pool telemetry (quiescent use): (reused, fresh, parked) for the
     node pool, and the same for the descriptor pool when recycling
     descriptors; [None] for unpooled queues. *)
  let pool_stats t =
    match t.pools with
    | None -> None
    | Some p ->
        let line pool =
          ( Pool.reused pool,
            Pool.allocated_fresh pool,
            Pool.pooled pool + Pool.quarantined pool )
        in
        Some (line p.nodes, Option.map line p.descs)

  (* Attach the node (and descriptor) pools' live counters to a metrics
     registry; no-op for unpooled queues. *)
  let register_pool_metrics t registry ~prefix =
    match t.pools with
    | None -> ()
    | Some p ->
        Pool.register_metrics p.nodes registry ~prefix:(prefix ^ ".nodes");
        Option.iter
          (fun dp ->
            Pool.register_metrics dp registry ~prefix:(prefix ^ ".descs"))
          p.descs
end
