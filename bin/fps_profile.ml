(* Single-thread decomposition of the FPS fast path's overhead over raw
   Michael-Scott (the EXPERIMENTS.md "where the LF gap comes from"
   numbers): each step adds one ingredient of the fast-path protocol to
   an MS pair loop, so the deltas attribute the cost.

     MS (baseline)                plain Ms_queue pairs
     MS + fat nodes               the [Ms_fat] rig: MS nodes plus an
                                  [enq_tid] field and a [deq_tid] claim
                                  cell, the two fields the slow-path
                                  claim protocol requires
     MS + fat nodes + claim CAS   + the sentinel claim CAS every dequeue
                                  pays (the fast/slow compatibility cost)
     FPS (full fast path)         the real Kp_queue_fps, adding the
                                  [slow_pending] helping check and the
                                  remaining functor-boundary calls
     FPS pooled                   the fps-pooled registry entry: nodes
                                  come back from the segment pool

   The rig keeps the node layout the queues had before they shrank to
   five words: a boxed [value] option, a separate [next] cell holding an
   option, and a separate [deq_tid] cell. Today's KP node is the [next]
   cell itself, holds its element unboxed and CASes [deq_tid] as an int
   field in place (docs/FASTPATH.md, "Five-word nodes"), so the two
   "fat nodes" rows overstate what the node shape costs the real fast
   path.

   Rows move with code placement by more than the differences they are
   meant to show: on a 2-vCPU host the same unchanged rig row read
   204-212 ns/pair on one build and 291-301 on the next. Compare two
   builds only with repeated runs of both, alternating, and read
   medians; single-core noise within one build is about ±15 ns. *)

module A = Wfq_primitives.Real_atomic
module Ms = Wfq_core.Ms_queue.Make (A)
module Fps = Wfq_core.Kp_queue_fps.Make (A)

let iters = 1_000_000

(* Words/pair via [Gc.minor_words] deltas: single-domain, so the
   counter is exact for the loop. The allocation column attributes the
   heap-churn side of the decomposition the same way the ns column
   attributes time (and, unlike the times, it is deterministic). *)
let time name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  Printf.printf "%-28s %8.1f ns/pair %8.1f words/pair\n%!" name
    ((t1 -. t0) *. 1e9 /. float_of_int iters)
    ((w1 -. w0) /. float_of_int iters)

(* MS with KP-shaped nodes; [claim] adds the sentinel claim CAS. This is
   a costing rig, not a usable queue (the claim is never consumed by a
   slow path — there isn't one here). *)
module Ms_fat = struct
  type 'a node = {
    value : 'a option;
    next : 'a node option A.t;
    enq_tid : int;
    deq_tid : int A.t;
  }

  type 'a t = { head : 'a node A.t; tail : 'a node A.t }

  let create () =
    let s =
      { value = None; next = A.make None; enq_tid = -1; deq_tid = A.make (-1) }
    in
    ignore s.enq_tid;
    { head = A.make s; tail = A.make s }

  let enqueue t value =
    let node =
      { value = Some value; next = A.make None; enq_tid = -1;
        deq_tid = A.make (-1) }
    in
    let rec loop () =
      let last = A.get t.tail in
      let next = A.get last.next in
      if last == A.get t.tail then
        match next with
        | None ->
            if A.compare_and_set last.next None (Some node) then
              ignore (A.compare_and_set t.tail last node)
            else loop ()
        | Some n ->
            ignore (A.compare_and_set t.tail last n);
            loop ()
      else loop ()
    in
    loop ()

  let dequeue ~claim t =
    let rec loop () =
      let first = A.get t.head in
      let last = A.get t.tail in
      let next = A.get first.next in
      if first == A.get t.head then
        if first == last then match next with None -> None | Some _ -> loop ()
        else
          match next with
          | None -> loop ()
          | Some n ->
              if claim then
                if A.compare_and_set first.deq_tid (-1) 7 then begin
                  ignore (A.compare_and_set t.head first n);
                  n.value
                end
                else loop ()
              else
                let v = n.value in
                if A.compare_and_set t.head first n then v else loop ()
      else loop ()
    in
    loop ()
end

let () =
  time "MS (baseline)" (fun () ->
      let q = Ms.create ~num_threads:1 () in
      for i = 1 to iters do
        Ms.enqueue q ~tid:0 i;
        ignore (Ms.dequeue q ~tid:0)
      done);
  time "MS + fat nodes" (fun () ->
      let q = Ms_fat.create () in
      for i = 1 to iters do
        Ms_fat.enqueue q i;
        ignore (Ms_fat.dequeue ~claim:false q)
      done);
  time "MS + fat nodes + claim CAS" (fun () ->
      let q = Ms_fat.create () in
      for i = 1 to iters do
        Ms_fat.enqueue q i;
        ignore (Ms_fat.dequeue ~claim:true q)
      done);
  time "FPS (full fast path)" (fun () ->
      let q = Fps.create ~num_threads:1 () in
      for i = 1 to iters do
        Fps.enqueue q ~tid:0 i;
        ignore (Fps.dequeue q ~tid:0)
      done);
  (* One more ingredient: the segment pool. Words/pair should collapse
     to near zero (nodes are recycled, not minted); the ns column prices
     the pool bookkeeping the recycling costs in exchange. *)
  time "FPS pooled" (fun () ->
      let module B = (val Wfq_core.Backends.find "fps-pooled") in
      let module Fp = B.Make (A) in
      let q = Fp.create ~num_threads:1 () in
      for i = 1 to iters do
        Fp.enqueue q ~tid:0 i;
        ignore (Fp.dequeue q ~tid:0)
      done)
