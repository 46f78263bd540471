(** Kogan-Petrank queue with hazard-pointer memory reclamation (§3.4).

    The base algorithm ({!Kp_queue}) leans on the GC: nodes are never
    reused, so [next] pointers are set exactly once and reference CAS is
    ABA-free. This variant retires dequeued nodes through
    [Wfq_hazard.Hazard] and recycles them through the engine's node
    pool, which is what a C/C++ deployment of the paper's algorithm must
    do. Recycling mutates node fields, so every protocol mistake shows
    up as real corruption in the stress tests, the same failure mode as
    use-after-free.

    The queue is a configuration of the shared engine {!Kp_helping}:
    the §3.3 optimized policies (atomic phase counter, cyclic
    single-thread helping), node recycling without quarantine, and a
    hazard domain with two slots per thread. Quarantine is what closes
    the pointer-CAS ABA in the other pooled queues; here hazard pointers
    close it. Where each §3.4 obligation lives:

    - the descriptor carries the dequeued value, so the owner never
      dereferences the retired sentinel after its operation completes:
      a dequeue runs as a one-element batch, and the engine's
      [help_finish_deq] appends the value to the descriptor's [taken]
      inside the protected transition;
    - the old sentinel is retired by the unique winner of the [head]
      CAS (step 3 of the dequeue scheme, exactly once per Lemma 2):
      the engine's [release_node]. A scan that frees it self-links it
      before the pool takes it, so a parked node keeps no chain of
      later nodes alive;
    - every [head]/[tail] read is published in slot 0 and re-validated
      once, and every [next] that is dereferenced is published in slot 1
      before the engine's head/tail re-check, following Michael's
      MS-queue example: the engine's [protect] and [protect_next]. A
      failed re-validation ends the helping round instead of retrying,
      so the queue stays wait-free: the round's [is_still_pending]
      re-check bounds it as in {!Kp_queue};
    - descriptor [node] references are extra hazard roots, scanned
      {e after} the per-thread slots (see the ordering comment in
      [Hazard.scan]), so a node is never recycled while a descriptor
      references it;
    - before installing a descriptor's node into the list (L74) the
      helper publishes it and re-validates that the descriptor is
      unchanged, closing the transfer race: [protect_transfer]. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module H = Kp_helping.Make (A)
  include H

  let name = "kp-wait-free-hp"

  let create ?scan_threshold ~num_threads () =
    H.create ~who:"Kp_queue_hp" ~pool:true ~pool_quarantine:false
      ~hazards:true ?scan_threshold ~help:Kp_helping.Help_one_cyclic
      ~phase:Kp_helping.Phase_counter ~num_threads ()

  let enqueue t ~tid value =
    op_enter t ~tid;
    let phase = next_phase t ~tid in
    let node = alloc_node t ~self:tid ~enq_tid:tid value in
    enqueue_published t ~tid ~phase node t.idle_node;
    op_exit t ~tid

  let dequeue t ~tid =
    op_enter t ~tid;
    let phase = next_phase t ~tid in
    dequeue_published t ~tid ~phase ~want:1;
    let result =
      match dequeued_batch t ~tid with
      | [] -> None
      | [ v ] -> Some v
      | _ -> assert false
    in
    op_exit t ~tid;
    result

  let hazards t =
    Option.get t.hp

  (** Force all deferred reclamation; quiescent use (tests). *)
  let flush_reclamation t = Hp.flush (hazards t)

  let reclamation_stats t = Hp.stats (hazards t)

  let pool_stats t =
    match H.pool_stats t with
    | Some ((reused, fresh, parked), _) -> (fresh, reused, parked)
    | None -> assert false
end
