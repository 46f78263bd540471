(** Michael & Scott's lock-free queue (PODC 1996) — the paper's baseline.

    Port of the Java version in Herlihy & Shavit, "The Art of Multiprocessor
    Programming", which is exactly the implementation the paper benchmarks
    against ("LF" in Figures 7-9). The queue is a singly-linked list with a
    sentinel; [tail] is lazy — it may lag at most one node behind the true
    last node (the "dangling" node), and every operation that observes the
    lag first helps advance [tail].

    [create_pooled] recycles nodes through a per-domain
    {!Wfq_primitives.Segment_pool} with quarantine {e always} on: MS has
    no claim word to carry an epoch tag, so quarantine (no reuse until
    every operation concurrent with the retirement has finished) is the
    only thing standing between a recycled node and the classic MS
    head-CAS ABA. The node's [value] is mutable for the same
    write-before-publication discipline as {!Kp_internals}, and unboxed
    as there: a node without an element holds
    [Kp_internals.no_value]. The queue's placeholder node is the list's
    nil: [next] holds a node, never an option, so neither an append nor
    a self-link allocates. The node is its own [next] cell, as in
    {!Kp_internals}: [next] is field 0, reached only through [link]
    ([A.first]). A node is 3 words (header, [next], [value]) and
    carries nothing for the pool.

    Progress: lock-free, not wait-free — an enqueuer whose CAS on
    [last.next] keeps losing can be starved forever (demonstrated by a
    simulator test in [test/test_sim_queues.ml]). *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  module Pool = Wfq_primitives.Segment_pool.Make (A)

  let no_value = Kp_internals.no_value

  type 'a node = {
    mutable next : 'a node A.embedded;
        (* field 0, accessed only through [link]; [placeholder]: no
           successor *)
    mutable value : 'a; (* [no_value] when the node holds no element *)
  }

  (* The node's [next] cell: the node itself, read as a cell. *)
  let link : 'a node -> 'a node A.t = A.first

  type 'a t = {
    head : 'a node A.t;
    tail : 'a node A.t;
    pool : 'a node Pool.t option;
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

  let reset_node ~nil n =
    n.value <- no_value;
    A.set (link n) nil

  let create ~num_threads:_ () =
    let placeholder = make_placeholder () in
    let sentinel = make_node ~nil:placeholder no_value in
    { head = A.make sentinel; tail = A.make sentinel; pool = None;
      placeholder }

  let create_pooled ?segment_size ~num_threads () =
    let placeholder = make_placeholder () in
    let fresh_node () = make_node ~nil:placeholder no_value in
    let sentinel = fresh_node () in
    let clock = Pool.Clock.create ~num_threads in
    let pool =
      Pool.create ?segment_size ~quarantine:true ~clock ~num_threads
        ~fresh:fresh_node ~reset:(reset_node ~nil:placeholder)
        ()
    in
    { head = A.make sentinel; tail = A.make sentinel; pool = Some pool;
      placeholder }

  let op_enter t ~tid =
    match t.pool with Some p -> Pool.enter p ~tid | None -> ()

  let op_exit t ~tid =
    match t.pool with Some p -> Pool.exit p ~tid | None -> ()

  let alloc_node t ~tid value =
    match t.pool with
    | Some p ->
        let n = Pool.alloc p ~tid in
        n.value <- value;
        n
    | None -> make_node ~nil:t.placeholder value

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

  let enqueue t ~tid value =
    op_enter t ~tid;
    enq_loop t (alloc_node t ~tid value);
    op_exit t ~tid

  let rec deq_loop t ~tid =
    let first = A.get t.head in
    let last = A.get t.tail in
    let next = A.get (link first) in
    if first == A.get t.head then
      if first == last then
        if next == t.placeholder then None
        else begin
          ignore (A.compare_and_set t.tail last next);
          deq_loop t ~tid
        end
      else if next == t.placeholder then
        (* head trails tail yet has no successor: transient view,
           retry. *)
        deq_loop t ~tid
      else
        let v = next.value in
        if A.compare_and_set t.head first next then begin
          (* The unique head winner self-links the old sentinel, so that
             a promoted sentinel does not keep every node enqueued after
             it reachable (nepotism: the next minor collection would
             promote them all). Every other reader of [first.next]
             re-checks [head] or [tail] after the read and discards the
             self-link: [head] has left [first] for good, and [tail]
             passed it before [head] could. It then retires the old
             sentinel; the quarantine keeps it intact for every
             operation that started before this point. *)
          A.set (link first) first;
          (match t.pool with
          | Some p -> Pool.release p ~tid first
          | None -> ());
          Some v
        end
        else deq_loop t ~tid
    else deq_loop t ~tid

  let dequeue t ~tid =
    op_enter t ~tid;
    let result = deq_loop t ~tid in
    op_exit t ~tid;
    result

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

  let pool_stats t =
    match t.pool with
    | None -> None
    | Some p ->
        Some
          ( Pool.reused p,
            Pool.allocated_fresh p,
            Pool.pooled p + Pool.quarantined p )
end
