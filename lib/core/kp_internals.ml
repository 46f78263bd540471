(** The node / linked-list representation shared by the Kogan-Petrank
    queue family ([Kp_queue], [Kp_queue_fps], [Kp_queue_hp]).

    Paper Figure 1, lines 1-12: a singly-linked list of nodes behind a
    sentinel. [value] is [None] only for the initial sentinel; [enq_tid]
    is written once at node creation while [deq_tid] is contended, hence
    atomic (L5).

    [enq_tid] doubles as the fast-path marker in the fast-path/slow-path
    variant: a node appended by a fast-path (plain Michael-Scott)
    enqueue carries [enq_tid = no_tid], telling helpers there is no
    descriptor to finish — only [tail] to advance. Slow-path (and all
    base-KP) nodes carry the enqueuer's real tid.

    To support node recycling ([Segment_pool]) the once-written fields
    ([value], [enq_tid]) are mutable — still written only by the
    allocating enqueuer before the node is published — and [deq_tid]
    holds an {e epoch-tagged} word ([Counted_atomic.Epoch]): payload =
    the claiming tid (or [no_tid]), epoch = the node's incarnation.
    Epoch 0 packs to the raw value, so unpooled queues (which never
    recycle and stay at epoch 0) see exactly the historical
    representation. [recycle] bumps the incarnation, which is what
    makes a stalled helper's claim CAS on a recycled node fail instead
    of ABA-claiming the new incarnation.

    The pool link ([pool_next]) belongs to the pool only while a node is
    retired. In an unpooled queue no node is ever retired, so every
    node's link holds the queue's placeholder: one node, made once per
    queue and never put on the list (see [make_node]). Only the
    placeholder and the queue's first sentinel link to themselves.

    In one life of a node, [next] changes at most twice: [None -> Some
    succ] when the successor is appended, then [Some succ -> Some self]
    when the single slow-path dequeue that took [succ]'s value
    self-links its dequeued sentinel ([Kp_helping]'s [dequeued_value]).
    The self-link cuts the chain from a promoted, dequeued node to the
    young nodes behind it, which the next minor collection would
    otherwise promote with it.

    The traversal observers are quiescent-use-only, exactly as in the
    individual queues' interfaces. *)

module Epoch = Wfq_primitives.Counted_atomic.Epoch

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  type 'a node = {
    mutable value : 'a option;
    next : 'a node option A.t;
    mutable enq_tid : int;
    deq_tid : int A.t;
    (* Intrusive [Segment_pool] storage: the free-list/quarantine link
       and the retire-epoch stamp. Owned by the pool while the node is
       retired; dead storage while the node is live, where the link
       holds the queue's placeholder node (see [make_node]). *)
    mutable pool_next : 'a node;
    mutable pool_stamp : int;
  }

  (** [enq_tid] of the sentinel and of fast-path nodes; also the
      unclaimed payload of every [deq_tid]. *)
  let no_tid = -1

  (* [pool_next] has no null, so a node must point at some node from
     birth. [make_sentinel] points it at the node itself, which takes a
     [let rec]: OCaml allocates a dummy block, builds the record, then
     copies the record into the dummy, so the node costs its size twice
     (hoisting the [A.make] calls keeps the [let rec] statically
     constructive). A queue pays that only at creation, for its first
     sentinel and for a placeholder node it never links into the list;
     every other node is built by [make_node ~link:placeholder]. The
     link must not be a list node: once dequeued, that node would keep
     the nodes after it alive. *)
  let make_sentinel () =
    let next = A.make None in
    let deq_tid = A.make no_tid in
    let rec n =
      { value = None; next; enq_tid = no_tid; deq_tid; pool_next = n;
        pool_stamp = 0 }
    in
    n

  let make_node ~link ~enq_tid value =
    let next = A.make None in
    let deq_tid = A.make no_tid in
    { value; next; enq_tid; deq_tid; pool_next = link; pool_stamp = 0 }

  let pool_ops =
    {
      Wfq_primitives.Segment_pool.get_next = (fun n -> n.pool_next);
      set_next = (fun n m -> n.pool_next <- m);
      get_stamp = (fun n -> n.pool_stamp);
      set_stamp = (fun n s -> n.pool_stamp <- s);
    }

  (* ------------------------------------------------------------------ *)
  (* Epoch-tagged claim protocol                                        *)
  (* ------------------------------------------------------------------ *)

  (** The claiming tid of [node] (or [no_tid]), stripped of its epoch. *)
  let claimed_tid node = Epoch.value (A.get node.deq_tid)

  (** One claim attempt. [observed] is [node]'s claim word as read {e
      when the caller obtained its reference to [node]} (i.e. when it
      read [head]); the CAS expects that exact word, so it validates
      payload ("still unclaimed") and epoch ("still the incarnation I
      saw") atomically. A helper that stalled across a recycle holds an
      old incarnation's word: its CAS fails instead of ABA-claiming the
      new incarnation. When [observed] is already claimed the CAS is
      skipped entirely — same single-CAS budget as the historical
      [compare_and_set deq_tid (-1) tid], keeping the §3.3 RMW cost
      model intact. *)
  let try_claim node ~observed ~tid =
    Epoch.value observed = no_tid
    && A.compare_and_set node.deq_tid observed (Epoch.with_value observed tid)

  (** Reset a node for its next life: clear the payload fields and bump
      [deq_tid] to the next incarnation's unclaimed word. Called from
      the pool's [reset] with the node quiescent (quarantine has proven
      no thread still holds a reference). *)
  let recycle node =
    node.value <- None;
    node.enq_tid <- no_tid;
    A.set node.next None;
    A.set node.deq_tid (Epoch.next_incarnation (A.get node.deq_tid))

  (** Recycle {e without} bumping the incarnation — the seeded fault for
      the DPOR calibration scenario ([Untagged_pool_claim]): with the
      tag gone, a stalled helper's claim CAS can ABA a recycled node. *)
  let recycle_untagged node =
    node.value <- None;
    node.enq_tid <- no_tid;
    A.set node.next None;
    A.set node.deq_tid no_tid

  (* ------------------------------------------------------------------ *)
  (* Quiescent list observers, shared verbatim by every variant.        *)
  (* ------------------------------------------------------------------ *)

  let to_list head =
    let rec collect acc node =
      match A.get node.next with
      | None -> List.rev acc
      | Some n ->
          let v = match n.value with Some v -> v | None -> assert false in
          collect (v :: acc) n
    in
    collect [] (A.get head)

  let length head =
    let rec count acc node =
      match A.get node.next with None -> acc | Some n -> count (acc + 1) n
    in
    count 0 (A.get head)

  let is_empty head = A.get (A.get head).next = None

  (** The structural half of [check_quiescent_invariants]: [tail]
      reachable from [head] and no node dangling past [tail]. Variants
      layer their descriptor-state checks on top. *)
  let check_list_invariants ~head ~tail =
    let head = A.get head in
    let tail = A.get tail in
    let rec reaches node =
      if node == tail then true
      else match A.get node.next with None -> false | Some n -> reaches n
    in
    if not (reaches head) then Error "tail not reachable from head"
    else if A.get tail.next <> None then Error "dangling node after tail"
    else Ok ()
end
