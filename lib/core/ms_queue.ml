(** Michael & Scott's lock-free queue (PODC 1996) — the paper's baseline.

    Port of the Java version in Herlihy & Shavit, "The Art of Multiprocessor
    Programming", which is exactly the implementation the paper benchmarks
    against ("LF" in Figures 7-9). The queue is a singly-linked list with a
    sentinel; [tail] is lazy — it may lag at most one node behind the true
    last node (the "dangling" node), and every operation that observes the
    lag first helps advance [tail].

    Nodes are never reused: the GC reclaims them, as in the paper. The
    element is unboxed as in {!Kp_internals}: a node without an element
    holds [Kp_internals.no_value]. The queue's placeholder node is the list's
    nil: [next] holds a node, never an option, so neither an append nor
    a self-link allocates. The node is its own [next] cell, as in
    {!Kp_internals}: [next] is field 0, reached only through [link]
    ([A.first]). A node is 3 words (header, [next], [value]).

    Progress: lock-free, not wait-free — an enqueuer whose CAS on
    [last.next] keeps losing can be starved forever (demonstrated by a
    simulator test in [test/test_sim_queues.ml]). *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  let no_value = Kp_internals.no_value

  type 'a node = {
    mutable next : 'a node A.embedded;
        (* field 0, accessed only through [link]; [placeholder]: no
           successor *)
    value : 'a; (* [no_value] when the node holds no element *)
  }

  (* The node's [next] cell: the node itself, read as a cell. *)
  let link : 'a node -> 'a node A.t = A.first

  type 'a t = {
    head : 'a node A.t;
    tail : 'a node A.t;
    placeholder : 'a node;
        (* never on the list: the list's nil *)
  }

  let name = "ms-lock-free"

  (* [next] has no null, so a node points at some node from birth. The
     placeholder's [next] points back at the placeholder itself;
     [A.embed_cyclic] closes the loop without a store the simulator
     would see. Every other node links to it. *)
  let make_placeholder () =
    A.embed_cyclic (fun next -> { next; value = no_value })

  let make_node ~nil value = { next = A.embed nil; value }

  let create ~num_threads:_ () =
    let placeholder = make_placeholder () in
    let sentinel = make_node ~nil:placeholder no_value in
    { head = A.make sentinel; tail = A.make sentinel; placeholder }

  (* Retry loops at functor level with explicit arguments: a nested
     [let rec loop] capturing [t]/[node] allocates its closure
     environment on every operation (~9 words/pair on the pairs
     workload — see EXPERIMENTS.md, fps words/op decomposition). *)
  let rec enq_loop t node =
    let last = A.get t.tail in
    let next = A.get (link last) in
    if last == A.get t.tail then
      if next == t.placeholder then begin
        if A.compare_and_set (link last) t.placeholder node then
          (* Lazily fix tail; failure means someone helped us. *)
          ignore (A.compare_and_set t.tail last node)
        else enq_loop t node
      end
      else begin
        (* Tail is lagging: help the in-progress enqueue, then retry. *)
        ignore (A.compare_and_set t.tail last next);
        enq_loop t node
      end
    else enq_loop t node

  let enqueue t ~tid:_ value = enq_loop t (make_node ~nil:t.placeholder value)

  let rec deq_loop t =
    let first = A.get t.head in
    let last = A.get t.tail in
    let next = A.get (link first) in
    if first == A.get t.head then
      if first == last then
        if next == t.placeholder then None
        else begin
          ignore (A.compare_and_set t.tail last next);
          deq_loop t
        end
      else if next == t.placeholder then
        (* head trails tail yet has no successor: transient view,
           retry. *)
        deq_loop t
      else
        let v = next.value in
        if A.compare_and_set t.head first next then begin
          (* The unique head winner self-links the old sentinel, so that
             a promoted sentinel does not keep every node enqueued after
             it reachable (nepotism: the next minor collection would
             promote them all). Every other reader of [first.next]
             re-checks [head] or [tail] after the read and discards the
             self-link: [head] has left [first] for good, and [tail]
             passed it before [head] could. *)
          A.set (link first) first;
          Some v
        end
        else deq_loop t
    else deq_loop t

  let dequeue t ~tid:_ = deq_loop t

  let to_list t =
    let rec collect acc node =
      let n = A.get (link node) in
      if n == t.placeholder then List.rev acc
      else collect (n.value :: acc) n
    in
    collect [] (A.get t.head)

  let length t =
    let rec count acc node =
      let n = A.get (link node) in
      if n == t.placeholder then acc else count (acc + 1) n
    in
    count 0 (A.get t.head)

  let is_empty t = A.get (link (A.get t.head)) == t.placeholder

  let check_quiescent_invariants t =
    let head = A.get t.head in
    let tail = A.get t.tail in
    let rec reaches node =
      if node == tail then true
      else
        let n = A.get (link node) in
        n != t.placeholder && reaches n
    in
    if not (reaches head) then Error "tail not reachable from head"
    else if A.get (link tail) != t.placeholder then
      Error "dangling node after tail"
    else Ok ()
end
