(** The Kogan-Petrank wait-free MPMC queue (PPoPP 2011) — the paper's
    contribution.

    The queue extends Michael & Scott's lock-free queue with a phase-based
    helping scheme: every operation picks a phase, publishes a descriptor
    and helps every pending operation whose phase is ≤ its own before
    returning. The helping engine — descriptors, state slots, pools,
    policies and Figs. 2, 4 and 6's [help_*] procedures — lives in
    {!Kp_helping}, shared with the fast-path/slow-path variant
    {!Kp_queue_fps}. This module is the paper's driver on top of it:
    every operation is phase pick, publish, help (Figs. 2, 4 and 6's
    [enq]/[deq]), with no fast path.

    Both §3.3 optimizations are provided as construction-time policies:
    {!help_policy} [Help_one_cyclic] (help at most one other thread per
    operation, scanning [state] cyclically — preserves wait-freedom
    because a thread can bypass a given peer at most [num_threads]
    consecutive times) and {!phase_policy} [Phase_counter] (derive the
    phase from a shared counter bumped with a result-ignored CAS — the
    paper's footnote 3 — instead of scanning [state]).

    Progress: wait-free with the [Phase_scan]/[Help_all] and
    [Phase_counter]/[Help_one_cyclic] combinations alike; population-
    oblivious in no case (the bound depends on [num_threads], §3.3). *)

type help_policy = Kp_helping.help_policy =
  | Help_all
  | Help_one_cyclic

type phase_policy = Kp_helping.phase_policy = Phase_scan | Phase_counter

type metrics = Kp_helping.metrics

let metrics = Kp_helping.metrics

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module H = Kp_helping.Make (A)
  include H

  let name = "kp-wait-free"

  let create_with ?pool ?pool_segment ?pool_quarantine ?obsv ~help ~phase
      ~num_threads () =
    H.create ~who:"Kp_queue" ?pool ?pool_segment ?pool_quarantine ?obsv ~help
      ~phase ~num_threads ()

  let create ~num_threads () =
    create_with ~help:Help_all ~phase:Phase_scan ~num_threads ()

  (* L61-66 *)
  let enqueue t ~tid value =
    op_enter t ~tid;
    let phase = next_phase t ~tid in
    let node = alloc_node t ~self:tid ~enq_tid:tid value in
    enqueue_published t ~tid ~phase node t.idle_node;
    op_exit t ~tid

  (* L98-108 *)
  let dequeue t ~tid =
    op_enter t ~tid;
    let phase = next_phase t ~tid in
    dequeue_published t ~tid ~phase ~want:0;
    let result = dequeued_value t ~tid in
    op_exit t ~tid;
    result

  (* One phase pick, one descriptor publication and one L74 list CAS
     cover the whole batch: the chain is pre-linked before publication
     (plain writes on nodes nobody else can reach), the descriptor
     names both ends, and helpers run the unmodified [help_enq] — the
     CAS that appends the chain's first node linearizes all k elements
     in order, and [help_finish_enq] jumps [tail] over the chain. Cost:
     3 CASes + 1 phase pick per batch, vs per element. *)
  let enqueue_batch t ~tid values =
    match values with
    | [] -> ()
    | [ v ] -> enqueue t ~tid v
    | v0 :: rest ->
        op_enter t ~tid;
        Kp_helping.record_batch t.obsv ~tid (List.length values);
        let phase = next_phase t ~tid in
        let first = alloc_node t ~self:tid ~enq_tid:tid v0 in
        let last =
          List.fold_left
            (fun prev v ->
              let n = alloc_node t ~self:tid ~enq_tid:tid v in
              A.set (N.link prev) n;
              n)
            first rest
        in
        enqueue_published t ~tid ~phase first last;
        op_exit t ~tid

  (* One phase pick and one descriptor publication cover up to [n]
     dequeues: the published [want = n] descriptor is driven by
     [help_deq ~batch:true] (owner and helpers alike), accumulating
     values in the descriptor itself so a helper can complete the
     remaining suffix after the owner stalls at any point. Returns the collected
     prefix in FIFO order; shorter than [n] iff the queue was observed
     empty at the final element's linearization point. *)
  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Kp_queue.dequeue_batch: n";
    if n = 0 then []
    else begin
      op_enter t ~tid;
      Kp_helping.record_batch t.obsv ~tid n;
      let phase = next_phase t ~tid in
      dequeue_published t ~tid ~phase ~want:n;
      let taken = dequeued_batch t ~tid in
      op_exit t ~tid;
      taken
    end

  (* The uniform RUN_QUEUE registration (Queue_intf.RUN_QUEUE): the
     depth gauge every backend exposes, plus whatever always-on
     diagnostics this queue owns — here the pool counters when pooled.
     The gauge polls [length] (a traversal), which only runs at
     snapshot time, never on the hot path. *)
  let register_metrics t registry ~prefix =
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () ->
        length t);
    register_pool_metrics t registry ~prefix
end
