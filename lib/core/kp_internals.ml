(** The node / linked-list representation shared by the Kogan-Petrank
    queue family ([Kp_queue], [Kp_queue_fps], [Kp_queue_hp]).

    Paper Figure 1, lines 1-12: a singly-linked list of nodes behind a
    sentinel. A node is the paper's four fields and nothing else:
    [next], [value], [enq_tid], and [deq_tid], which is contended,
    hence atomic (L5). The node is its own [next] cell: [next] is field
    0, an [A.embedded], and every access to it goes through [link]
    ([A.first]); it is never read as a plain field. Only [deq_tid]
    keeps a cell of its own (embedding it too would need a CAS on a
    field other than 0, which OCaml 5.1 lacks), so a node is 7 words:
    the 5-word record and the 2-word [deq_tid] cell. The lock-free
    baseline's node ([Ms_queue]) is 3, and the difference is [enq_tid]
    and the [deq_tid] pointer and cell, the paper's "two extra fields"
    (Fig. 10).

    [value] is unboxed. A node that never held an element (nil, the
    first sentinel) or was recycled holds {!no_value} instead, so an
    enqueue allocates only the node and a dequeue only the [Some] it
    returns.

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
    of ABA-claiming the new incarnation. The pool keeps its free stacks
    and quarantines in arrays of its own, so a pooled node carries no
    field for it.

    There is no [None] node. Each queue makes one node that is never on
    the list, its {e nil} ([make_nil]): a [next] holding nil means
    "no successor", a descriptor field holding nil means "no node", and
    nil's own [next] points back at nil. Nil is cyclic, so nodes are
    compared only with [==] and [!=]: a structural comparison would
    never return. Append and self-link store a node that already
    exists, so neither allocates.

    In one life of a node, [next] changes at most twice: nil -> succ
    when the successor is appended, then succ -> self when the node's
    dequeue self-links it ([Kp_helping]'s [dequeued_value], the fast
    paths of [Kp_queue_fps], and the hazard domain's free). The
    self-link cuts the chain from a promoted, dequeued node to the
    young nodes behind it, which the next minor collection would
    otherwise promote with it.

    The traversal observers are quiescent-use-only, exactly as in the
    individual queues' interfaces. *)

module Epoch = Wfq_primitives.Counted_atomic.Epoch

(** The [value] of a node that holds no element: nil, the first
    sentinel, a recycled node. It is the immediate [()] at every type,
    the idiom of [Real_atomic.embed_cyclic]'s initial field: the GC does
    not follow it, and nothing reads it back as an element, since
    elements are read only from nodes past a sentinel, and each of
    those was enqueued with one. Shared by [Ms_queue]. *)
let no_value = Obj.magic ()

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  type 'a node = {
    mutable next : 'a node A.embedded; (* field 0, only through [link] *)
    mutable value : 'a; (* [no_value] when the node holds no element *)
    mutable enq_tid : int;
    deq_tid : int A.t;
  }

  (** The node's [next] cell: the node itself, read as a cell. *)
  let link : 'a node -> 'a node A.t = A.first

  (** [enq_tid] of the sentinel and of fast-path nodes; also the
      unclaimed payload of every [deq_tid]. *)
  let no_tid = -1

  (* The queue's nil: its [next] cell holds nil itself.
     [A.embed_cyclic] closes the loop before the node is shared, so it
     is no step of the simulator. *)
  let make_nil () =
    let deq_tid = A.make no_tid in
    A.embed_cyclic (fun next ->
        { next; value = no_value; enq_tid = no_tid; deq_tid })

  (* A fresh node whose [next] is [nil]; the first sentinel is one with
     [no_value]. *)
  let make_node ~nil ~enq_tid value =
    let next = A.embed nil in
    let deq_tid = A.make no_tid in
    { next; value; enq_tid; deq_tid }

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
  let recycle ~nil node =
    node.value <- no_value;
    node.enq_tid <- no_tid;
    A.set (link node) nil;
    A.set node.deq_tid (Epoch.next_incarnation (A.get node.deq_tid))

  (** Recycle {e without} bumping the incarnation — the seeded fault for
      the DPOR calibration scenario ([Untagged_pool_claim]): with the
      tag gone, a stalled helper's claim CAS can ABA a recycled node. *)
  let recycle_untagged ~nil node =
    node.value <- no_value;
    node.enq_tid <- no_tid;
    A.set (link node) nil;
    A.set node.deq_tid no_tid

  (* ------------------------------------------------------------------ *)
  (* Quiescent list observers, shared verbatim by every variant.        *)
  (* ------------------------------------------------------------------ *)

  (* A node whose [next] is itself has been dequeued, so a walk from
     [head] can meet one only in a corrupt list: a recycled node's
     [head] CAS ABA, which [test_pool] provokes on purpose with
     quarantine off. The walks stop there instead of looping; the
     corruption still shows, as missing elements or as [tail] not
     reachable from [head]. *)
  let to_list ~nil head =
    let rec collect acc node =
      let n = A.get (link node) in
      if n == nil || n == node then List.rev acc
      else collect (n.value :: acc) n
    in
    collect [] (A.get head)

  let length ~nil head =
    let rec count acc node =
      let n = A.get (link node) in
      if n == nil || n == node then acc else count (acc + 1) n
    in
    count 0 (A.get head)

  let is_empty ~nil head = A.get (link (A.get head)) == nil

  (** The structural half of [check_quiescent_invariants]: [tail]
      reachable from [head] and no node dangling past [tail]. Variants
      layer their descriptor-state checks on top. *)
  let check_list_invariants ~nil ~head ~tail =
    let head = A.get head in
    let tail = A.get tail in
    let rec reaches node =
      if node == tail then true
      else
        let n = A.get (link node) in
        n != nil && n != node && reaches n
    in
    if not (reaches head) then Error "tail not reachable from head"
    else if A.get (link tail) != nil then Error "dangling node after tail"
    else Ok ()
end
