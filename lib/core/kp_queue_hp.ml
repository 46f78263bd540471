(** Kogan-Petrank queue with hazard-pointer memory reclamation (§3.4).

    The base algorithm ({!Kp_queue}) leans on the GC: nodes are never
    reused, so [next] pointers are set exactly once and reference CAS is
    ABA-free. This variant reclaims dequeued nodes through
    [Wfq_hazard.Hazard] and recycles them via [Wfq_hazard.Pool], which is
    what a C/C++ deployment of the paper's algorithm must do. Recycling
    mutates node fields, so every protocol mistake shows up as real
    corruption in the stress tests — the same failure mode as
    use-after-free.

    Paper §3.4 prescribes two modifications and leaves the rest "out of
    scope"; we implement the full integration:

    - the operation descriptor gains a [result] field holding the dequeued
      value, so the owner never dereferences the retired sentinel after
      its operation completes (the paper's explicit modification);
    - the old sentinel is retired by the unique winner of the [head] CAS
      (step 3 of the dequeue scheme, exactly once per Lemma 2);
    - every traversal pointer is published in a hazard slot and
      re-validated against its source before dereference, following
      Michael's MS-queue example;
    - descriptor [node] references are registered as extra hazard roots,
      scanned {e after} the per-thread slots (see the ordering comment in
      [Hazard.scan]): a node can therefore never be recycled while any
      descriptor still references it, which restores the set-once /
      no-ABA invariants the GC version gets for free;
    - before installing a descriptor's node into the list (L74) the
      helper publishes it in a slot and re-validates the descriptor is
      unchanged, closing the transfer race.

    Helping policy: the §3.3 optimized configuration (atomic phase
    counter; cyclic single-thread helping), since this variant exists for
    realistic deployments.

    This is the one KP variant that does not run on the shared helping
    engine {!Kp_helping}: the publish-and-validate step above changes
    every traversal read of the protocol, so it keeps its own copy. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module Hp = Wfq_hazard.Hazard.Make (A)

  type 'a node = {
    mutable value : 'a option;
    next : 'a node option A.t;
    mutable enq_tid : int;
    deq_tid : int A.t;
  }

  type 'a op_desc = {
    phase : int;
    pending : bool;
    enqueue : bool;
    node : 'a node option;
    result : 'a option; (* §3.4: dequeued value, set when pending flips *)
  }

  type 'a t = {
    head : 'a node A.t;
    tail : 'a node A.t;
    state : 'a op_desc A.t array;
    phase_counter : int A.t;
    help_cursor : int array;
    hp : 'a node Hp.t;
    pool : 'a node Wfq_hazard.Pool.t;
    num_threads : int;
  }

  let name = "kp-wait-free-hp"

  let make_node () =
    { value = None; next = A.make None; enq_tid = -1; deq_tid = A.make (-1) }

  let create ?(pool_capacity = 4096) ?scan_threshold ~num_threads () =
    if num_threads <= 0 then invalid_arg "Kp_queue_hp.create: num_threads";
    let idle =
      { phase = -1; pending = false; enqueue = true; node = None;
        result = None }
    in
    let state = Array.init num_threads (fun _ -> A.make idle) in
    let descriptor_roots () =
      Array.fold_left
        (fun acc slot ->
          match (A.get slot).node with None -> acc | Some n -> n :: acc)
        [] state
    in
    let pool = Wfq_hazard.Pool.create ~capacity:pool_capacity ~num_threads ()
    in
    (* [Hazard.scan] runs in the retiring thread and passes its tid, so
       freed nodes land in that thread's private pool — no sync needed. *)
    let free ~tid node = Wfq_hazard.Pool.release pool ~tid node in
    let hp =
      Hp.create ?scan_threshold ~extra_hazards:descriptor_roots
        ~num_threads ~slots_per_thread:2 ~free ()
    in
    let sentinel = make_node () in
    {
      head = A.make sentinel;
      tail = A.make sentinel;
      state;
      phase_counter = A.make (-1);
      help_cursor = Array.make num_threads 0;
      hp;
      pool;
      num_threads;
    }

  let retire_node t ~tid node = Hp.retire t.hp ~tid node

  let next_phase t =
    let cur = A.get t.phase_counter in
    ignore (A.compare_and_set t.phase_counter cur (cur + 1));
    cur + 1

  let is_still_pending t tid phase =
    let desc = A.get t.state.(tid) in
    desc.pending && desc.phase <= phase

  (* -------------------------------------------------------------- *)
  (* Hazard-protected reads                                         *)
  (* -------------------------------------------------------------- *)

  (* Publish [tail] in the caller's slot 0 and validate; [None] on a
     changed tail (caller loops). The tail node is never retired — [head]
     never passes [tail] — so validation success implies liveness. *)
  let protect_tail t ~self =
    let last = A.get t.tail in
    Hp.protect t.hp ~tid:self ~slot:0 last;
    if A.get t.tail == last then Some last else None

  let protect_head t ~self =
    let first = A.get t.head in
    Hp.protect t.hp ~tid:self ~slot:0 first;
    if A.get t.head == first then Some first else None

  (* -------------------------------------------------------------- *)
  (* Enqueue                                                        *)
  (* -------------------------------------------------------------- *)

  let help_finish_enq t ~self =
    match protect_tail t ~self with
    | None -> () (* tail advanced: someone finished the operation *)
    | Some last -> (
        match A.get last.next with
        | None -> ()
        | Some next as next_o ->
            Hp.protect t.hp ~tid:self ~slot:1 next;
            (* [tail] unchanged ⇒ head ≤ tail < next ⇒ [next] live. *)
            if A.get t.tail == last then begin
              let tid = next.enq_tid in
              assert (tid >= 0 && tid < t.num_threads);
              let cur_desc = A.get t.state.(tid) in
              if (A.get t.state.(tid)).node == next_o then begin
                let new_desc =
                  { phase = cur_desc.phase; pending = false;
                    enqueue = true; node = next_o; result = None }
                in
                ignore (A.compare_and_set t.state.(tid) cur_desc new_desc);
                ignore (A.compare_and_set t.tail last next)
              end
            end)

  let rec help_enq t ~self tid phase =
    if is_still_pending t tid phase then begin
      match protect_tail t ~self with
      | None -> help_enq t ~self tid phase
      | Some last -> (
          match A.get last.next with
          | None ->
              if is_still_pending t tid phase then begin
                let cur_desc = A.get t.state.(tid) in
                match cur_desc.node with
                | None ->
                    (* The operation we came to help completed and the
                       slot was overwritten; re-check and exit. *)
                    help_enq t ~self tid phase
                | Some node ->
                    (* Transfer protection: publish the node, then verify
                       the descriptor is unchanged so the node cannot have
                       been recycled between the read and the install. *)
                    Hp.protect t.hp ~tid:self ~slot:1 node;
                    if A.get t.state.(tid) == cur_desc then begin
                      if A.compare_and_set last.next None cur_desc.node
                      then help_finish_enq t ~self
                      else help_enq t ~self tid phase
                    end
                    else help_enq t ~self tid phase
              end
              else help_enq t ~self tid phase
          | Some _ ->
              help_finish_enq t ~self;
              help_enq t ~self tid phase)
    end

  (* -------------------------------------------------------------- *)
  (* Dequeue                                                        *)
  (* -------------------------------------------------------------- *)

  let help_finish_deq t ~self =
    match protect_head t ~self with
    | None -> ()
    | Some first -> (
        match A.get first.next with
        | None -> ()
        | Some next ->
            Hp.protect t.hp ~tid:self ~slot:1 next;
            (* [head] unchanged ⇒ [first] live ⇒ [next] (its successor,
               strictly after head) not yet retired. *)
            if A.get t.head == first then begin
              let tid = A.get first.deq_tid in
              if tid <> -1 then begin
                let cur_desc = A.get t.state.(tid) in
                (* Paper L147: re-validate [head == first] strictly AFTER
                   reading the descriptor. The order is load-bearing: a
                   thread only starts its next operation after [head] has
                   moved past its locked sentinel (the L102 guarantee),
                   so "head still equals first" proves [cur_desc] belongs
                   to the operation that locked [first] — without it, a
                   stale helper could complete the owner's NEXT dequeue
                   with THIS dequeue's value, duplicating the element
                   (caught by the domain stress tests). *)
                if A.get t.head == first then begin
                  let new_desc =
                    { phase = cur_desc.phase; pending = false;
                      enqueue = false; node = cur_desc.node;
                      result = next.value }
                  in
                  ignore (A.compare_and_set t.state.(tid) cur_desc new_desc);
                  if A.compare_and_set t.head first next then
                    (* Unique winner (Lemma 2, step 3) retires the old
                       sentinel — the paper's RetireNode call site. *)
                    retire_node t ~tid:self first
                end
              end
            end)

  let rec help_deq t ~self tid phase =
    if is_still_pending t tid phase then begin
      match protect_head t ~self with
      | None -> help_deq t ~self tid phase
      | Some first ->
          let last = A.get t.tail in
          let next = A.get first.next in
          if A.get t.head == first then begin
            if first == last then begin
              match next with
              | None ->
                  let cur_desc = A.get t.state.(tid) in
                  if A.get t.tail == last && is_still_pending t tid phase
                  then begin
                    let new_desc =
                      { phase = cur_desc.phase; pending = false;
                        enqueue = false; node = None; result = None }
                    in
                    ignore
                      (A.compare_and_set t.state.(tid) cur_desc new_desc)
                  end;
                  help_deq t ~self tid phase
              | Some _ ->
                  help_finish_enq t ~self;
                  help_deq t ~self tid phase
            end
            else begin
              let cur_desc = A.get t.state.(tid) in
              let node = cur_desc.node in
              if is_still_pending t tid phase then begin
                let points_to_first =
                  match node with Some n -> n == first | None -> false
                in
                if A.get t.head == first && not points_to_first then begin
                  let new_desc =
                    { phase = cur_desc.phase; pending = true;
                      enqueue = false; node = Some first; result = None }
                  in
                  if not (A.compare_and_set t.state.(tid) cur_desc new_desc)
                  then help_deq t ~self tid phase
                  else begin
                    ignore (A.compare_and_set first.deq_tid (-1) tid);
                    help_finish_deq t ~self;
                    help_deq t ~self tid phase
                  end
                end
                else begin
                  ignore (A.compare_and_set first.deq_tid (-1) tid);
                  help_finish_deq t ~self;
                  help_deq t ~self tid phase
                end
              end
            end
          end
          else help_deq t ~self tid phase
    end

  (* -------------------------------------------------------------- *)
  (* Helping (optimized §3.3 policy)                                *)
  (* -------------------------------------------------------------- *)

  let help_slot t ~self i phase =
    let desc = A.get t.state.(i) in
    if desc.pending && desc.phase <= phase then
      if desc.enqueue then help_enq t ~self i phase
      else help_deq t ~self i phase

  let run_help t ~tid ~phase =
    let c = t.help_cursor.(tid) in
    t.help_cursor.(tid) <- (c + 1) mod t.num_threads;
    if c <> tid then help_slot t ~self:tid c phase;
    help_slot t ~self:tid tid phase

  (* -------------------------------------------------------------- *)
  (* Public operations                                              *)
  (* -------------------------------------------------------------- *)

  let enqueue t ~tid value =
    let phase = next_phase t in
    let node =
      Wfq_hazard.Pool.alloc t.pool ~tid
        ~fresh:make_node
        ~reset:(fun n ->
          n.value <- None;
          A.set n.next None;
          n.enq_tid <- -1;
          A.set n.deq_tid (-1))
    in
    node.value <- Some value;
    node.enq_tid <- tid;
    A.set t.state.(tid)
      { phase; pending = true; enqueue = true; node = Some node;
        result = None };
    run_help t ~tid ~phase;
    help_finish_enq t ~self:tid;
    Hp.clear_all t.hp ~tid

  let dequeue t ~tid =
    let phase = next_phase t in
    A.set t.state.(tid)
      { phase; pending = true; enqueue = false; node = None; result = None };
    run_help t ~tid ~phase;
    help_finish_deq t ~self:tid;
    Hp.clear_all t.hp ~tid;
    (A.get t.state.(tid)).result

  (* -------------------------------------------------------------- *)
  (* Observers (quiescent use)                                      *)
  (* -------------------------------------------------------------- *)

  let to_list t =
    let rec collect acc node =
      match A.get node.next with
      | None -> List.rev acc
      | Some n ->
          let v = match n.value with Some v -> v | None -> assert false in
          collect (v :: acc) n
    in
    collect [] (A.get t.head)

  let length t = List.length (to_list t)
  let is_empty t = A.get (A.get t.head).next = None

  (** Force all deferred reclamation; quiescent use (tests). *)
  let flush_reclamation t = Hp.flush t.hp

  let reclamation_stats t = Hp.stats t.hp

  let pool_stats t =
    ( Wfq_hazard.Pool.allocated_fresh t.pool,
      Wfq_hazard.Pool.reused t.pool,
      Wfq_hazard.Pool.pooled t.pool )
end
