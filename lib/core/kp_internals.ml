(** The node / linked-list representation shared by the Kogan-Petrank
    queue family ([Kp_queue], [Kp_queue_fps], [Kp_queue_hp]).

    Paper Figure 1, lines 1-12: a singly-linked list of nodes behind a
    sentinel. A node holds the paper's four fields in three words:
    [next], [value], and one int word, [claim], that packs [enq_tid]
    with [deq_tid], the contended field (L5), and the node's
    incarnation. Both atomic fields are embedded ([A.embedded]), so a
    node is one 4-word block. The node is its own [next] cell: [next]
    is field 0, and every access to it goes through [link] ([A.first]).
    [claim] is the int field 2, and every access to it goes through
    [claim_word], [try_claim], [enq_tid], [set_enq_tid] and [recycle]
    ([A.get_int_field] and its kin). Neither is ever read as a plain
    field. The lock-free baseline's node ([Ms_queue]) is 3 words; the
    paper's "two extra fields" (Fig. 10), [enq_tid] and [deq_tid],
    cost this node one word between them.

    [value] is unboxed. A node that never held an element (nil, the
    first sentinel) or was recycled holds {!no_value} instead, so an
    enqueue allocates only the node and a dequeue only the [Some] it
    returns.

    [enq_tid] doubles as the fast-path marker in the fast-path/slow-path
    variant: a node appended by a fast-path (plain Michael-Scott)
    enqueue carries [enq_tid = no_tid], telling helpers there is no
    descriptor to finish — only [tail] to advance. Slow-path (and all
    base-KP) nodes carry the enqueuer's real tid.

    The claim word is a [Counted_atomic.Epoch] word. Its payload is
    [deq_tid]: the claiming tid, or [no_tid]. Its epoch field holds
    [enq_tid + 1] in the low {!tid_bits} bits and the incarnation above
    them ({!word}). [Epoch.value] and [Epoch.with_value] keep the whole
    epoch field, so a claim CAS leaves [enq_tid] and the incarnation as
    they were, and it compares all three at once. [enq_tid] is written
    only before the node is published ([make_node], [set_enq_tid]) and
    never changes while it is on the list, so it is read with a plain
    load ([A.peek_int_field]) that is no simulator step. Nil and a
    fresh blank node pack to the raw [no_tid]; a node with an enqueuer
    does not.

    To support node recycling ([Segment_pool]) [value] is mutable, still
    written only by the allocating enqueuer before the node is
    published. [recycle] bumps the incarnation and clears both tids,
    which is what makes a stalled helper's claim CAS on a recycled node
    fail instead of ABA-claiming the new incarnation. The pool keeps
    its free stacks and quarantines in arrays of its own, so a pooled
    node carries no field for it.

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
    mutable claim : int A.embedded; (* field 2, only via the claim helpers *)
  }

  (* [claim]'s position in the record, for the int-field atomics. *)
  let claim_field = 2

  (** The node's [next] cell: the node itself, read as a cell. *)
  let link : 'a node -> 'a node A.t = A.first

  (** [enq_tid] of the sentinel and of fast-path nodes; also the
      unclaimed [deq_tid]. *)
  let no_tid = -1

  (* ------------------------------------------------------------------ *)
  (* The claim word: incarnation, [enq_tid] and [deq_tid] in one int    *)
  (* ------------------------------------------------------------------ *)

  (** Width of the [enq_tid + 1] field at the bottom of the claim
      word's epoch. The incarnation gets the rest of the epoch's bits:
      [63 - Epoch.bits - tid_bits = 31]. *)
  let tid_bits = 12

  let tid_mask = (1 lsl tid_bits) - 1

  (** The largest [num_threads] whose tids fit the claim word: [enq_tid
      + 1 <= num_threads] in {!tid_bits} bits, and the fast path's
      [deq_tid], up to [2 * num_threads - 1], in [Epoch]'s payload. *)
  let max_threads = min tid_mask ((Epoch.max_value + 1) / 2)

  (** The unclaimed claim word of incarnation [incarnation] whose
      enqueuer is [enq_tid]. Arithmetic wraps, so the incarnation
      counts modulo [2^31]. *)
  let word ~incarnation ~enq_tid =
    Epoch.pack ~epoch:((incarnation lsl tid_bits) lor (enq_tid + 1)) no_tid

  let incarnation_of w = Epoch.epoch w asr tid_bits
  let enq_tid_of w = (Epoch.epoch w land tid_mask) - 1

  (* The queue's nil: its [next] cell holds nil itself.
     [A.embed_cyclic] closes the loop before the node is shared, so it
     is no step of the simulator. *)
  let make_nil () =
    let claim = A.embed no_tid in
    A.embed_cyclic (fun next -> { next; value = no_value; claim })

  (* A fresh node whose [next] is [nil]; the first sentinel is one with
     [no_value]. *)
  let make_node ~nil ~enq_tid value =
    let next = A.embed nil in
    let claim = A.embed (word ~incarnation:0 ~enq_tid) in
    { next; value; claim }

  (** [node]'s enqueuer, or [no_tid] for a blank or fast-path node. A
      plain read: the bits are written only before publication. *)
  let enq_tid node = enq_tid_of (A.peek_int_field node claim_field)

  (** Set the enqueuer of a node that is not yet published: a fresh or
      recycled node, so it is unclaimed. *)
  let set_enq_tid node enq_tid =
    let w = A.peek_int_field node claim_field in
    A.init_int_field node claim_field
      (word ~incarnation:(incarnation_of w) ~enq_tid)

  (* ------------------------------------------------------------------ *)
  (* Epoch-tagged claim protocol                                        *)
  (* ------------------------------------------------------------------ *)

  (** [node]'s claim word: the claiming tid (or [no_tid]) tagged with
      the node's incarnation and enqueuer. *)
  let claim_word node = A.get_int_field node claim_field

  (** The claiming tid of [node] (or [no_tid]), stripped of its epoch. *)
  let claimed_tid node = Epoch.value (claim_word node)

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
    && A.cas_int_field node claim_field observed
         (Epoch.with_value observed tid)

  (** Reset a node for its next life: clear [value], both tids and
      [next], and bump the incarnation. Called from the pool's [reset]
      with the node quiescent (quarantine has proven no thread still
      holds a reference). *)
  let recycle ~nil node =
    node.value <- no_value;
    A.set (link node) nil;
    A.set_int_field node claim_field
      (word ~incarnation:(incarnation_of (claim_word node) + 1)
         ~enq_tid:no_tid)

  (** Recycle {e without} bumping the incarnation — the seeded fault for
      the DPOR calibration scenario ([Untagged_pool_claim]): with the
      tag gone, a stalled helper's claim CAS can ABA a recycled node. *)
  let recycle_untagged ~nil node =
    node.value <- no_value;
    A.set (link node) nil;
    A.set_int_field node claim_field no_tid

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
