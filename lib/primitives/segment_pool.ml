(** Per-domain segment pools: recycled allocation for queue hot paths.

    The KP queue family allocates one node per enqueue; at millions of
    operations per second that allocation rate is the dominant residual
    cost over the lock-free baseline (EXPERIMENTS.md,
    "fast-path/slow-path"). This module removes it Jiffy-style (Adas &
    Friedman, 2020): objects are carved from {e segments} — chunked
    batches of [segment_size] objects — and recycled through per-domain
    free stacks, so a steady-state operation allocates no node. A pool
    serves one object type and owns its epoch clock.

    Safety is split between two mechanisms, matching the two ways a
    recycled object can be misused:

    - {b Epoch tags} ([Counted_atomic.Epoch]) defend the {e claim CAS}:
      a pooled node's claim word is reset to the next incarnation's
      epoch on recycle, so a stalled helper's CAS (expecting the old
      incarnation's packed word) fails instead of ABA-claiming the new
      one. The tag lives in the object and is maintained by the client's
      [reset]; the DPOR scenario in test/test_pool.ml proves it
      load-bearing.
    - {b Epoch-based quarantine} ([Clock]) defends the {e pointer
      CASes} (head/tail/next), whose expected values are node references
      and cannot carry a tag: a released object parks in a per-domain
      quarantine until every thread has left the operation it was in
      when the object was retired (two global-epoch advances), so no
      stalled helper can still hold a reference when the object is
      reused. A stalled thread blocks reuse — never safety — and
      [alloc] then falls through to fresh segments, preserving
      wait-freedom.

    All shared cells go through the [ATOMIC] functor argument, so the
    pool runs unchanged under [Wfq_sim.Sim_atomic] and is DPOR-checkable
    alongside the queues it feeds. Free stacks and quarantines are
    strictly tid-local (single-owner plain state); only the clock is
    shared.

    Each tid parks at most {!max_parked} objects, free and quarantined
    together; [release] leaves any further object to the GC. Without
    the bound, a tid that only releases (a consumer whose producer
    allocates from its own slot) would park every object it ever
    retired.

    The pool keeps its bookkeeping out of the objects: each tid holds
    its free stack and its quarantine ring in arrays of its own, with
    the retire epochs in an [int array] beside the ring. An object
    therefore carries nothing for the pool, so pooling adds no word to
    a queue node, pooled or not. The arrays start at one segment and
    double as the tid's parked count grows, up to
    {!max_parked}; after that warm-up, release, promotion and reuse
    allocate nothing. A vacated entry is overwritten, so the pool
    references exactly the objects it parks. *)

module Make (A : Atomic_intf.ATOMIC) = struct
  (* ------------------------------------------------------------------ *)
  (* Clock: global epoch + per-domain announcements (EBR-style)         *)
  (* ------------------------------------------------------------------ *)

  module Clock = struct
    let idle = max_int

    type t = {
      (* [global] and the announced epoch per tid ([idle] when outside
         any operation) are padded cells: each announcement is written
         by its own domain twice per operation, [global] by whichever
         domain advances it, and all of them are read by every
         advancement scan. *)
      global : int A.t;
      local : int A.t array;
      num_threads : int;
    }

    let create ~num_threads =
      if num_threads <= 0 then
        invalid_arg "Segment_pool.Clock.create: num_threads";
      {
        global = A.make_padded 0;
        local = Array.init num_threads (fun _ -> A.make_padded idle);
        num_threads;
      }

    (* Announce the current global epoch for the duration of one queue
       operation. One atomic load + one store to an uncontended padded
       slot — the whole per-operation cost of quarantine safety. *)
    let enter t ~tid = A.set t.local.(tid) (A.get t.global)
    let exit t ~tid = A.set t.local.(tid) idle

    let current t = A.get t.global

    (* Advance the global epoch iff no thread is still announced in an
       earlier one. O(num_threads); called on the alloc slow path only.
       The CAS may fail under a racing advance — that advance serves us
       equally well, so the result is ignored. *)
    let try_advance t =
      let e = A.get t.global in
      let rec all_caught_up i =
        i >= t.num_threads
        || (A.get t.local.(i) >= e && all_caught_up (i + 1))
      in
      if all_caught_up 0 then ignore (A.compare_and_set t.global e (e + 1))

    let cells t =
      Obj.repr t.global :: List.map Obj.repr (Array.to_list t.local)
  end

  (* ------------------------------------------------------------------ *)
  (* Per-tid storage: free stack + quarantine ring, both tid-local      *)
  (* ------------------------------------------------------------------ *)

  (* Plain mutable single-owner state, written on every [alloc] and
     [release]. Seven fields and a header make 64 bytes, but the heap
     does not align a record to a line, so two slots made one after
     the other would share one; each slot is a
     {!Wfq_obsv.Line.copy_as_padded} copy, and two tids' fields are
     more than a line apart. [free] is a LIFO
     stack in [free.(0 .. free_len - 1)], top last. Its bottom
     [fresh_len] entries are first-life objects: [carve] fills only an
     empty stack, and every later push lands above them, so the
     fresh/reused split needs no mark in the object. The quarantine is
     a FIFO ring of [quarantine_len] entries from [q_head] (oldest
     first), and [stamps] holds each entry's retire-time epoch at the
     same index. *)
  type 'a slot = {
    mutable free : 'a array;
    mutable free_len : int;
    mutable fresh_len : int;
    mutable ring : 'a array;
    mutable stamps : int array;
    mutable q_head : int;
    mutable quarantine_len : int;
  }

  type 'a t = {
    clock : Clock.t;
    slots : 'a slot array;
    segment_size : int;
    quarantine : bool;
    fresh_obj : unit -> 'a;
    reset : 'a -> unit;
    (* Hit/miss accounting through the stack-wide observability layer
       (Wfq_obsv): per-tid single-writer cells, exactly the discipline
       the old plain slot fields followed, now with a uniform
       snapshot/registry surface. Plain cells — invisible to the
       simulated-atomic plane, so pooled queues model-check with
       unchanged traces. *)
    c_reused : Wfq_obsv.Counter.t;
    c_fresh : Wfq_obsv.Counter.t;
    c_segments : Wfq_obsv.Counter.t;
  }

  let default_segment_size = 64
  let max_parked = 4096

  (* What a vacant array entry holds: an immediate, which the GC does
     not follow, so a vacated entry keeps nothing alive. Never read
     back as an object. *)
  let vacant = Obj.magic ()

  let create ?(segment_size = default_segment_size) ?(quarantine = true)
      ~num_threads ~fresh ~reset () =
    if segment_size <= 0 then
      invalid_arg "Segment_pool.create: segment_size must be positive";
    if num_threads <= 0 then invalid_arg "Segment_pool.create: num_threads";
    let clock = Clock.create ~num_threads in
    {
      clock;
      slots =
        Array.init num_threads (fun _ ->
            Wfq_obsv.Line.copy_as_padded
              {
                free = [||];
                free_len = 0;
                fresh_len = 0;
                ring = [||];
                stamps = [||];
                q_head = 0;
                quarantine_len = 0;
              });
      segment_size;
      quarantine;
      fresh_obj = fresh;
      reset;
      c_reused = Wfq_obsv.Counter.create ~slots:num_threads ();
      c_fresh = Wfq_obsv.Counter.create ~slots:num_threads ();
      c_segments = Wfq_obsv.Counter.create ~slots:num_threads ();
    }

  let enter t ~tid = if t.quarantine then Clock.enter t.clock ~tid
  let exit t ~tid = if t.quarantine then Clock.exit t.clock ~tid

  (* The capacity after [cap] fills: one segment, then doubling, capped
     at [max_parked]. Neither array ever needs more: [release] parks
     only below [max_parked] objects in all, [promote] moves them, and
     [carve] fills an empty stack with one segment. *)
  let grown_capacity t cap = max t.segment_size (min max_parked (2 * cap))

  let push_free t s obj =
    if s.free_len = Array.length s.free then begin
      let a = Array.make (grown_capacity t s.free_len) vacant in
      Array.blit s.free 0 a 0 s.free_len;
      s.free <- a
    end;
    s.free.(s.free_len) <- obj;
    s.free_len <- s.free_len + 1

  (* Grow a full ring, unrolling it so that the oldest entry lands at
     index 0. *)
  let grow_ring t s =
    let cap = Array.length s.ring in
    let cap' = grown_capacity t cap in
    let ring = Array.make cap' vacant and stamps = Array.make cap' 0 in
    for i = 0 to cap - 1 do
      let j = (s.q_head + i) mod cap in
      ring.(i) <- s.ring.(j);
      stamps.(i) <- s.stamps.(j)
    done;
    s.ring <- ring;
    s.stamps <- stamps;
    s.q_head <- 0

  (* Move every matured quarantine entry (retired >= 2 epochs ago: all
     threads have since left the epoch the object was retired in, so no
     stalled reference survives) onto the free stack. Oldest entries
     mature first, so we stop at the first unripe one. *)
  let promote t s =
    let horizon = Clock.current t.clock - 2 in
    while s.quarantine_len > 0 && s.stamps.(s.q_head) <= horizon do
      let obj = s.ring.(s.q_head) in
      s.ring.(s.q_head) <- vacant;
      s.q_head <-
        (if s.q_head + 1 = Array.length s.ring then 0 else s.q_head + 1);
      s.quarantine_len <- s.quarantine_len - 1;
      push_free t s obj
    done

  (* Carve a fresh segment: one batch of [segment_size] objects pushed
     onto the (empty) free stack, all of them first-life. Batching keeps
     the fresh path off the per-operation fast path — after warm-up,
     [alloc] touches only the tid-local free stack. *)
  let carve t ~tid s =
    for _ = 1 to t.segment_size do
      push_free t s (t.fresh_obj ())
    done;
    s.fresh_len <- s.free_len;
    Wfq_obsv.Counter.incr t.c_segments ~slot:tid

  let alloc t ~tid =
    let s = t.slots.(tid) in
    if s.free_len = 0 then begin
      if t.quarantine then begin
        Clock.try_advance t.clock;
        promote t s
      end;
      if s.free_len = 0 then carve t ~tid s
    end;
    let top = s.free_len - 1 in
    let obj = s.free.(top) in
    s.free.(top) <- vacant;
    s.free_len <- top;
    if top < s.fresh_len then begin
      s.fresh_len <- top;
      Wfq_obsv.Counter.incr t.c_fresh ~slot:tid
    end
    else Wfq_obsv.Counter.incr t.c_reused ~slot:tid;
    t.reset obj;
    obj

  (* Retire an object. With quarantine, park it stamped with the current
     global epoch; without (tests of the tag in isolation, or hazard
     pointers deciding when it is safe), it is immediately reusable. A
     tid already parking [max_parked] objects leaves it to the GC. *)
  let release t ~tid obj =
    let s = t.slots.(tid) in
    if s.free_len + s.quarantine_len >= max_parked then ()
    else if t.quarantine then begin
      if s.quarantine_len = Array.length s.ring then grow_ring t s;
      let i = s.q_head + s.quarantine_len in
      let i = if i >= Array.length s.ring then i - Array.length s.ring else i in
      s.ring.(i) <- obj;
      s.stamps.(i) <- Clock.current t.clock;
      s.quarantine_len <- s.quarantine_len + 1
    end
    else push_free t s obj

  (* ------------------------------------------------------------------ *)
  (* Stats (quiescent aggregation)                                     *)
  (* ------------------------------------------------------------------ *)

  (* The seven fields of each tid's [slot]. *)
  let slot_words t =
    Array.map (fun s -> List.init 7 (fun i -> (Obj.repr s, i))) t.slots

  let sum t f = Array.fold_left (fun acc s -> acc + f s) 0 t.slots
  let reused t = Wfq_obsv.Counter.total t.c_reused
  let allocated_fresh t = Wfq_obsv.Counter.total t.c_fresh
  let segments t = Wfq_obsv.Counter.total t.c_segments
  let pooled t = sum t (fun s -> s.free_len)
  let quarantined t = sum t (fun s -> s.quarantine_len)

  (* Attach this pool's counters (and depth gauges) to a metrics
     registry under [prefix ^ ".reused"], [".fresh"], [".segments"],
     [".pooled"], [".quarantined"]. The counters are live — registration
     shares them, it does not copy. *)
  let register_metrics t metrics ~prefix =
    let open Wfq_obsv in
    Metrics.register metrics (prefix ^ ".reused") (Metrics.Counter t.c_reused);
    Metrics.register metrics (prefix ^ ".fresh") (Metrics.Counter t.c_fresh);
    Metrics.register metrics (prefix ^ ".segments")
      (Metrics.Counter t.c_segments);
    Metrics.gauge metrics ~name:(prefix ^ ".pooled") (fun () -> pooled t);
    Metrics.gauge metrics ~name:(prefix ^ ".quarantined") (fun () ->
        quarantined t)
end
