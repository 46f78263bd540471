(** Per-domain segment pools: recycled allocation for queue hot paths.

    The KP queue family allocates one node per enqueue and one
    descriptor per operation; at millions of operations per second that
    allocation rate is the dominant residual cost over the lock-free
    baseline (EXPERIMENTS.md, "fast-path/slow-path"). This module
    removes it Jiffy-style (Adas & Friedman, 2020): objects are carved
    from {e segments} — chunked batches of [segment_size] objects — and
    recycled through per-domain free lists, so a steady-state operation
    allocates nothing beyond its payload boxes.

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
    alongside the queues it feeds. Free lists and quarantines are
    strictly tid-local (single-owner plain state); only the clock is
    shared.

    Each tid parks at most {!max_parked} objects, free and quarantined
    together; [release] leaves any further object to the GC. Without
    the bound, a tid that only releases (a consumer whose producer
    allocates from its own slot) would park every object it ever
    retired.

    Both containers are {e intrusive}: objects are chained through a
    client-provided link field and stamped through a client-provided
    int field ({!ops}), so the steady-state pool paths — release into
    quarantine, promote, reuse — allocate {e nothing}. This is the
    point of the module: a cons cell per release would hand back a
    third of the words the recycled object saves. *)

(* Client accessors for the intrusive fields. [get_next]/[set_next]
   chain the object through the tid-local free stack and quarantine
   FIFO; [get_stamp]/[set_stamp] hold the retire-time epoch while the
   object sits in quarantine. Both fields are owned by the pool between
   [release] and the next [alloc] of the object, and are dead storage
   (arbitrary values) while the object is live with the client. *)
type 'a ops = {
  get_next : 'a -> 'a;
  set_next : 'a -> 'a -> unit;
  get_stamp : 'a -> int;
  set_stamp : 'a -> int -> unit;
}

module Make (A : Atomic_intf.ATOMIC) = struct
  module P = Padded.Make (A)

  (* ------------------------------------------------------------------ *)
  (* Clock: global epoch + per-domain announcements (EBR-style)         *)
  (* ------------------------------------------------------------------ *)

  module Clock = struct
    let idle = max_int

    type t = {
      global : int A.t;
      (* Announced epoch per tid ([idle] when outside any operation).
         Padded: each slot is written by exactly one domain per
         operation and read by all during advancement scans. *)
      local : int P.t array;
      num_threads : int;
    }

    let create ~num_threads =
      if num_threads <= 0 then
        invalid_arg "Segment_pool.Clock.create: num_threads";
      {
        global = A.make 0;
        local = Array.init num_threads (fun _ -> P.make idle);
        num_threads;
      }

    (* Announce the current global epoch for the duration of one queue
       operation. One atomic load + one store to an uncontended padded
       slot — the whole per-operation cost of quarantine safety. *)
    let enter t ~tid = P.set t.local.(tid) (A.get t.global)
    let exit t ~tid = P.set t.local.(tid) idle

    let current t = A.get t.global

    (* Advance the global epoch iff no thread is still announced in an
       earlier one. O(num_threads); called on the alloc slow path only.
       The CAS may fail under a racing advance — that advance serves us
       equally well, so the result is ignored. *)
    let try_advance t =
      let e = A.get t.global in
      let rec all_caught_up i =
        i >= t.num_threads
        || (P.get t.local.(i) >= e && all_caught_up (i + 1))
      in
      if all_caught_up 0 then ignore (A.compare_and_set t.global e (e + 1))
  end

  (* ------------------------------------------------------------------ *)
  (* Per-tid storage: free stack + quarantine ring, both tid-local      *)
  (* ------------------------------------------------------------------ *)

  (* Plain mutable single-owner state; padding fields keep adjacent
     tids' hot words off each other's cache lines. Both containers are
     intrusive chains through the client's link field, with the pool's
     [dummy] object as the null marker (['a] has no null of its own):
     [free] is a LIFO stack, the quarantine a FIFO queue (head = pop
     end, oldest first) whose entries carry their retire-time epoch in
     the client's stamp field. No allocation on any path but [carve]. *)
  type 'a slot = {
    mutable free : 'a;
    mutable free_len : int;
    mutable q_head : 'a;
    mutable q_tail : 'a;
    mutable quarantine_len : int;
    _p0 : int;
    _p1 : int;
  }

  type 'a t = {
    clock : Clock.t;
    slots : 'a slot array;
    segment_size : int;
    quarantine : bool;
    num_threads : int;
    ops : 'a ops;
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
    (* Never handed out; only an end-of-chain marker compared with
       [==]. *)
    dummy : 'a;
  }

  let default_segment_size = 64
  let max_parked = 4096

  let create ?(segment_size = default_segment_size) ?(quarantine = true)
      ~clock ~num_threads ~ops ~fresh ~reset () =
    if segment_size <= 0 then
      invalid_arg "Segment_pool.create: segment_size must be positive";
    if num_threads <= 0 then invalid_arg "Segment_pool.create: num_threads";
    if num_threads > clock.Clock.num_threads then
      invalid_arg "Segment_pool.create: more threads than the clock serves";
    let dummy = fresh () in
    {
      clock;
      slots =
        Array.init num_threads (fun _ ->
            {
              free = dummy;
              free_len = 0;
              q_head = dummy;
              q_tail = dummy;
              quarantine_len = 0;
              _p0 = 0;
              _p1 = 0;
            });
      segment_size;
      quarantine;
      num_threads;
      ops;
      fresh_obj = fresh;
      reset;
      c_reused = Wfq_obsv.Counter.create ~slots:num_threads ();
      c_fresh = Wfq_obsv.Counter.create ~slots:num_threads ();
      c_segments = Wfq_obsv.Counter.create ~slots:num_threads ();
      dummy;
    }

  let enter t ~tid = if t.quarantine then Clock.enter t.clock ~tid
  let exit t ~tid = if t.quarantine then Clock.exit t.clock ~tid

  (* Stamp value marking a never-used object. Carve writes it; both
     release paths overwrite it (epochs are >= 0), so at alloc time the
     stamp distinguishes first-life objects from recycled ones exactly
     even though the client may scribble on the stamp while the object
     is live. *)
  let fresh_mark = min_int

  let push_free t s obj =
    t.ops.set_next obj s.free;
    s.free <- obj;
    s.free_len <- s.free_len + 1

  (* Move every matured quarantine entry (retired >= 2 epochs ago: all
     threads have since left the epoch the object was retired in, so no
     stalled reference survives) onto the free list. Oldest entries
     mature first, so we stop at the first unripe one. *)
  let promote t ~tid =
    let s = t.slots.(tid) in
    let horizon = Clock.current t.clock - 2 in
    let rec go () =
      let obj = s.q_head in
      if obj != t.dummy && t.ops.get_stamp obj <= horizon then begin
        s.q_head <- t.ops.get_next obj;
        if s.q_head == t.dummy then s.q_tail <- t.dummy;
        s.quarantine_len <- s.quarantine_len - 1;
        push_free t s obj;
        go ()
      end
    in
    go ()

  (* Carve a fresh segment: one batch of [segment_size] objects pushed
     onto the free list. Batching keeps the fresh path off the
     per-operation fast path — after warm-up, [alloc] touches only the
     tid-local free list. *)
  let carve t ~tid =
    let s = t.slots.(tid) in
    for _ = 1 to t.segment_size do
      let obj = t.fresh_obj () in
      t.ops.set_stamp obj fresh_mark;
      push_free t s obj
    done;
    Wfq_obsv.Counter.incr t.c_segments ~slot:tid

  let alloc t ~tid =
    let s = t.slots.(tid) in
    if s.free == t.dummy then begin
      if t.quarantine then begin
        Clock.try_advance t.clock;
        promote t ~tid
      end;
      if s.free == t.dummy then carve t ~tid
    end;
    let obj = s.free in
    s.free <- t.ops.get_next obj;
    s.free_len <- s.free_len - 1;
    if t.ops.get_stamp obj = fresh_mark then
      Wfq_obsv.Counter.incr t.c_fresh ~slot:tid
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
      t.ops.set_stamp obj (Clock.current t.clock);
      t.ops.set_next obj t.dummy;
      if s.q_head == t.dummy then s.q_head <- obj
      else t.ops.set_next s.q_tail obj;
      s.q_tail <- obj;
      s.quarantine_len <- s.quarantine_len + 1
    end
    else begin
      t.ops.set_stamp obj 0;
      push_free t s obj
    end

  (* ------------------------------------------------------------------ *)
  (* Stats (quiescent aggregation)                                     *)
  (* ------------------------------------------------------------------ *)

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
