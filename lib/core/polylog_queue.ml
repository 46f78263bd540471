(* Naderibeni-Ruppert wait-free queue with polylogarithmic step
   complexity (arXiv:2305.07229). See the interface for the contract
   and docs/BACKENDS.md for how it plugs into the registry; the
   protocol summary:

   A tournament tree with one leaf per thread. An operation (or a whole
   batch of operations — blocks are natively batched here) is written
   as a *block* at the caller's leaf, then propagated toward the root:
   each internal node keeps an append-only log of blocks, and a block
   of an internal node summarizes a contiguous run of new child blocks
   (cumulative operation counts plus the inclusive index of the last
   merged block of each child). Appending to an internal node is the
   classic double-refresh: read the log head, build a block from the
   children's current ends, CAS it into the head slot, CAS the head
   forward; if two consecutive refreshes of a node fail, the winner of
   the second one read the children *after* our child-level block was
   complete, so our operations were merged by someone else (the lemma
   relies on every failure path helping the head forward first — both
   failure branches below do).

   The root log is the linearization: root blocks in log order; inside
   a block all enqueues precede all dequeues, left subtree before
   right. Every cell of every log is written at most once (CAS from
   [None]), so the propagation needs no locks and no unbounded retries:
   an operation does O(1) CASes per tree level.

   A dequeue resolves its return value arithmetically after its block
   reaches the root: walk the tree upward to find the root block B
   containing it and its rank r among B's dequeues (per-level binary
   search over the parent log, O(log) each); the root block's prefix
   sums decide whether the queue was empty for rank r, otherwise the
   dequeue removes the globally i-th enqueue (i = removed-before-B + r)
   and a downward binary-search descent fetches that enqueue's payload
   from the leaf block that published it.

   Memory: logs are append-only and never reclaimed (the paper's
   presentation; bounding them is possible but out of scope — see
   docs/BACKENDS.md). Segments double in size behind a small directory,
   so an empty queue allocates a few dozen cells per node and a long
   run amortizes to ~1 directory hop per log access. *)

type fault = No_double_refresh

type metrics = {
  m_leaf_blocks : Wfq_obsv.Counter.t;
  m_refresh_fails : Wfq_obsv.Counter.t;
}

let metrics registry ~prefix ~slots =
  let c () = Wfq_obsv.Counter.create ~slots () in
  let m = { m_leaf_blocks = c (); m_refresh_fails = c () } in
  Wfq_obsv.Metrics.register registry (prefix ^ ".leaf_blocks")
    (Wfq_obsv.Metrics.Counter m.m_leaf_blocks);
  Wfq_obsv.Metrics.register registry (prefix ^ ".refresh_fails")
    (Wfq_obsv.Metrics.Counter m.m_refresh_fails);
  m

(* Doubling segments: segment [s] holds [seg_base * 2^s] cells and
   covers log indices [seg_base*(2^s - 1), seg_base*(2^(s+1) - 1)). *)
let seg_base = 32
let dir_size = 26 (* seg_base * (2^26 - 1) ~ 2.1e9 blocks per node *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  type 'a block = {
    sum_enq : int;  (** cumulative enqueues through this block *)
    sum_deq : int;  (** cumulative dequeues through this block *)
    end_left : int;  (** internal: last merged left-child block (incl.) *)
    end_right : int;
    size : int;  (** root only: queue length after this block; -1 else *)
    sum_removed : int;  (** root only: cumulative successful dequeues *)
    values : 'a array;  (** leaf only: the enqueue batch's payloads *)
  }

  type 'a node = {
    head : int A.t;  (** next append index; slots below are complete *)
    segs : 'a block option A.t array option A.t array;
  }

  type 'a t = {
    nodes : 'a node array;
        (** 1-based heap layout: children of [i] are [2i], [2i+1];
            [nodes.(0)] is an unused dummy. *)
    leaf0 : int;  (** first leaf index = leaf count (a power of two) *)
    num_threads : int;
    fault : fault option;
    obsv : metrics option;
  }

  let name = "wf-polylog"

  let sentinel =
    {
      sum_enq = 0;
      sum_deq = 0;
      end_left = 0;
      end_right = 0;
      size = 0;
      sum_removed = 0;
      values = [||];
    }

  (* --- segmented append-only logs -------------------------------- *)

  let seg_index i =
    let k = ref ((i / seg_base) + 1) and s = ref 0 in
    while !k > 1 do
      k := !k lsr 1;
      incr s
    done;
    !s

  let seg_start s = seg_base * ((1 lsl s) - 1)
  let seg_size s = seg_base lsl s

  let get_block n i =
    let s = seg_index i in
    match A.get n.segs.(s) with
    | None -> None
    | Some seg -> A.get seg.(i - seg_start s)

  let block_exn n i =
    match get_block n i with
    | Some b -> b
    | None ->
        invalid_arg (Printf.sprintf "Polylog_queue: missing block %d" i)

  let cell_for n i =
    let s = seg_index i in
    if s >= dir_size then
      failwith "Polylog_queue: per-node block log capacity exceeded";
    (match A.get n.segs.(s) with
    | Some _ -> ()
    | None ->
        let seg = Array.init (seg_size s) (fun _ -> A.make None) in
        ignore (A.compare_and_set n.segs.(s) None (Some seg) : bool));
    match A.get n.segs.(s) with
    | Some seg -> seg.(i - seg_start s)
    | None -> assert false

  (* --- construction ----------------------------------------------- *)

  let create_with ?fault ?obsv ~num_threads () =
    if num_threads <= 0 then invalid_arg "Polylog_queue.create: num_threads";
    (* Force >= 2 leaves so the root is always an internal node and the
       propagation/linearization story is uniform even at p = 1. *)
    let leaves = ref 2 in
    while !leaves < num_threads do
      leaves := !leaves * 2
    done;
    let leaves = !leaves in
    let make_node () =
      (* Construction must stay yield-free (it may run outside a
         simulator fiber), so the sentinel and segment 0 are installed
         with [A.make] rather than [A.set]. *)
      let segs = Array.init dir_size (fun _ -> A.make None) in
      let seg0 =
        Array.init seg_base (fun c ->
            A.make (if c = 0 then Some sentinel else None))
      in
      segs.(0) <- A.make (Some seg0);
      { head = A.make 1; segs }
    in
    {
      nodes = Array.init (2 * leaves) (fun _ -> make_node ());
      leaf0 = leaves;
      num_threads;
      fault;
      obsv;
    }

  let create ~num_threads () = create_with ~num_threads ()
  let leaf_of t ~tid = t.leaf0 + tid

  (* --- propagation ------------------------------------------------ *)

  (* Index of the last {e complete} block of [nodes.(i)]: the slot at
     [head] may already be filled but not yet counted — help the head
     forward and count it (the paper's Advance). *)
  let last_done t i =
    let n = t.nodes.(i) in
    let h = A.get n.head in
    match get_block n h with
    | Some _ ->
        ignore (A.compare_and_set n.head h (h + 1) : bool);
        h
    | None -> h - 1

  (* Build the block to append to internal node [i] at index [h]:
     everything the children completed beyond what [h - 1] merged.
     [None] when there is nothing new. *)
  let create_block t i h =
    let n = t.nodes.(i) in
    let prev = block_exn n (h - 1) in
    let li = 2 * i and ri = (2 * i) + 1 in
    let ln = t.nodes.(li) and rn = t.nodes.(ri) in
    let el = max (last_done t li) prev.end_left
    and er = max (last_done t ri) prev.end_right in
    let lb = block_exn ln el and plb = block_exn ln prev.end_left in
    let rb = block_exn rn er and prb = block_exn rn prev.end_right in
    let ne = lb.sum_enq - plb.sum_enq + (rb.sum_enq - prb.sum_enq) in
    let nd = lb.sum_deq - plb.sum_deq + (rb.sum_deq - prb.sum_deq) in
    if ne = 0 && nd = 0 then None
    else
      let sum_enq = prev.sum_enq + ne and sum_deq = prev.sum_deq + nd in
      if i = 1 then
        (* Root: all of the block's enqueues linearize before its
           dequeues, so [avail] elements are dequeuable; the rest of
           the block's dequeues return empty. *)
        let avail = prev.size + ne in
        let rem = min nd avail in
        Some
          {
            sum_enq;
            sum_deq;
            end_left = el;
            end_right = er;
            size = avail - rem;
            sum_removed = prev.sum_removed + rem;
            values = [||];
          }
      else
        Some
          {
            sum_enq;
            sum_deq;
            end_left = el;
            end_right = er;
            size = -1;
            sum_removed = 0;
            values = [||];
          }

  (* One refresh attempt. Every path that does not install a block
     helps the head past the contended slot first — the double-refresh
     lemma needs the second attempt to observe a head the first
     attempt's winner advanced. *)
  let refresh t ~tid i =
    let n = t.nodes.(i) in
    let h = A.get n.head in
    match get_block n h with
    | Some _ ->
        ignore (A.compare_and_set n.head h (h + 1) : bool);
        false
    | None -> (
        match create_block t i h with
        | None -> true
        | Some b ->
            let ok = A.compare_and_set (cell_for n h) None (Some b) in
            ignore (A.compare_and_set n.head h (h + 1) : bool);
            if not ok then
              Option.iter
                (fun m -> Wfq_obsv.Counter.incr m.m_refresh_fails ~slot:tid)
                t.obsv;
            ok)

  let rec propagate t ~tid i =
    if not (refresh t ~tid i) then
      (match t.fault with
      | Some No_double_refresh -> ()
      | None -> ignore (refresh t ~tid i : bool));
    if i > 1 then propagate t ~tid (i / 2)

  (* Publish a leaf block (single writer: the leaf's owner) and drive
     it to the root. Returns the block's leaf log index. *)
  let append t ~tid ~values ~ndeq =
    let li = leaf_of t ~tid in
    let n = t.nodes.(li) in
    let h = A.get n.head in
    let prev = block_exn n (h - 1) in
    let b =
      {
        sum_enq = prev.sum_enq + Array.length values;
        sum_deq = prev.sum_deq + ndeq;
        end_left = 0;
        end_right = 0;
        size = -1;
        sum_removed = 0;
        values;
      }
    in
    A.set (cell_for n h) (Some b);
    A.set n.head (h + 1);
    Option.iter
      (fun m -> Wfq_obsv.Counter.incr m.m_leaf_blocks ~slot:tid)
      t.obsv;
    propagate t ~tid (li / 2);
    h

  (* --- index arithmetic ------------------------------------------- *)

  (* First index in [lo, hi] whose block satisfies [pred] (monotone in
     the index); the range is complete and known to contain one. *)
  let bsearch n ~lo ~hi pred =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pred (block_exn n mid) then hi := mid else lo := mid + 1
    done;
    !lo

  (* The parent block that merged child block [j] ([left] side of
     parent [p]). After the child-level propagation finished, such a
     block exists or is about to: re-reading [last_done] until it
     covers [j] is bounded by the double-refresh lemma (and diverges
     exactly when the [No_double_refresh] fault breaks the lemma — the
     model checker reports that as a livelock). *)
  let rec find_merged t p ~left j =
    let n = t.nodes.(p) in
    let hi = last_done t p in
    let covered b = (if left then b.end_left else b.end_right) >= j in
    if hi >= 1 && covered (block_exn n hi) then
      bsearch n ~lo:1 ~hi covered
    else find_merged t p ~left j

  (* Root position of the [r]-th dequeue of block [j] of node [i]:
     returns the root block index and the dequeue's rank among that
     block's dequeues. Block order inside a merge: left child's blocks
     before right child's. *)
  let rec lift t i j r =
    if i = 1 then (j, r)
    else
      let p = i / 2 in
      let left = i land 1 = 0 in
      let k = find_merged t p ~left j in
      let pn = t.nodes.(p) in
      let bk = block_exn pn k and pk = block_exn pn (k - 1) in
      let sum_deq_of idx l = (block_exn t.nodes.(idx) l).sum_deq in
      let before =
        if left then sum_deq_of i (j - 1) - sum_deq_of i pk.end_left
        else
          let sib = 2 * p in
          sum_deq_of sib bk.end_left
          - sum_deq_of sib pk.end_left
          + (sum_deq_of i (j - 1) - sum_deq_of i pk.end_right)
      in
      lift t p k (before + r)

  (* Payload of the globally [i]-th enqueue (1-based, root order):
     binary-search the root log, then descend — at each internal block
     decide which child contributed the target and re-express it as
     that child's cumulative enqueue rank. *)
  let find_value t i =
    let rec down idx c ti =
      let n = t.nodes.(idx) in
      let b = block_exn n c and pb = block_exn n (c - 1) in
      if idx >= t.leaf0 then b.values.(ti - pb.sum_enq - 1)
      else
        let li = 2 * idx and ri = (2 * idx) + 1 in
        let sum_enq_of j l = (block_exn t.nodes.(j) l).sum_enq in
        let lcnt = sum_enq_of li b.end_left - sum_enq_of li pb.end_left in
        let local = ti - pb.sum_enq in
        if local <= lcnt then
          let ti' = sum_enq_of li pb.end_left + local in
          let c' =
            bsearch t.nodes.(li) ~lo:(pb.end_left + 1) ~hi:b.end_left
              (fun blk -> blk.sum_enq >= ti')
          in
          down li c' ti'
        else
          let ti' = sum_enq_of ri pb.end_right + (local - lcnt) in
          let c' =
            bsearch t.nodes.(ri) ~lo:(pb.end_right + 1) ~hi:b.end_right
              (fun blk -> blk.sum_enq >= ti')
          in
          down ri c' ti'
    in
    let root = t.nodes.(1) in
    let hi = last_done t 1 in
    let c = bsearch root ~lo:1 ~hi (fun b -> b.sum_enq >= i) in
    down 1 c i

  (* --- operations ------------------------------------------------- *)

  let enqueue_batch t ~tid vs =
    match vs with
    | [] -> ()
    | vs -> ignore (append t ~tid ~values:(Array.of_list vs) ~ndeq:0 : int)

  let enqueue t ~tid v = ignore (append t ~tid ~values:[| v |] ~ndeq:0 : int)

  let try_enqueue t ~tid v =
    enqueue t ~tid v;
    true

  let dequeue_batch t ~tid ~n =
    if n < 0 then invalid_arg "Polylog_queue.dequeue_batch: n";
    if n = 0 then []
    else begin
      let j = append t ~tid ~values:[||] ~ndeq:n in
      let bi, r1 = lift t (leaf_of t ~tid) j 1 in
      let root = t.nodes.(1) in
      let b = block_exn root bi and pb = block_exn root (bi - 1) in
      (* Elements dequeuable by this root block: what survived the
         previous block plus this block's own enqueues (which all
         linearize first). Ranks past that observed an empty queue. *)
      let avail = pb.size + (b.sum_enq - pb.sum_enq) in
      let rec collect k acc =
        if k = n || r1 + k > avail then List.rev acc
        else
          collect (k + 1) (find_value t (pb.sum_removed + r1 + k) :: acc)
      in
      collect 0 []
    end

  let dequeue t ~tid =
    match dequeue_batch t ~tid ~n:1 with
    | [] -> None
    | [ v ] -> Some v
    | _ -> assert false

  (* --- quiescent observers ---------------------------------------- *)

  let last_root t = block_exn t.nodes.(1) (last_done t 1)
  let length t = (last_root t).size
  let is_empty t = length t = 0

  let to_list t =
    let b = last_root t in
    List.init (b.sum_enq - b.sum_removed) (fun k ->
        find_value t (b.sum_removed + k + 1))

  let check_quiescent_invariants t =
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let rec check_node i =
      if i >= Array.length t.nodes then Ok ()
      else
        let n = t.nodes.(i) in
        let hi = last_done t i in
        if get_block n (A.get n.head) <> None then
          err "node %d: filled slot beyond head after quiescence" i
        else
          let rec walk j =
            if j > hi then check_node (i + 1)
            else
              let b = block_exn n j and pb = block_exn n (j - 1) in
              if b.sum_enq < pb.sum_enq || b.sum_deq < pb.sum_deq then
                err "node %d block %d: cumulative sums decreased" i j
              else if
                i < t.leaf0
                && (b.end_left < pb.end_left || b.end_right < pb.end_right)
              then err "node %d block %d: merge ends decreased" i j
              else if
                i = 1
                &&
                let ne = b.sum_enq - pb.sum_enq
                and nd = b.sum_deq - pb.sum_deq in
                let avail = pb.size + ne in
                let rem = min nd avail in
                b.size <> avail - rem
                || b.sum_removed <> pb.sum_removed + rem
              then err "root block %d: size recurrence violated" j
              else walk (j + 1)
          in
          walk 1
    in
    match check_node 1 with
    | Error _ as e -> e
    | Ok () ->
        (* At quiescence every leaf block has reached the root. *)
        let leaf_tot f =
          let tot = ref 0 in
          for l = t.leaf0 to (2 * t.leaf0) - 1 do
            tot := !tot + f (block_exn t.nodes.(l) (last_done t l))
          done;
          !tot
        in
        let r = last_root t in
        if r.sum_enq <> leaf_tot (fun b -> b.sum_enq) then
          err "root lost enqueues (%d merged, %d announced)" r.sum_enq
            (leaf_tot (fun b -> b.sum_enq))
        else if r.sum_deq <> leaf_tot (fun b -> b.sum_deq) then
          err "root lost dequeues (%d merged, %d announced)" r.sum_deq
            (leaf_tot (fun b -> b.sum_deq))
        else if r.size <> r.sum_enq - r.sum_removed then
          err "root size %d <> %d enqueued - %d removed" r.size r.sum_enq
            r.sum_removed
        else Ok ()

  let register_metrics t registry ~prefix =
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".depth") (fun () ->
        length t);
    Wfq_obsv.Metrics.gauge registry ~name:(prefix ^ ".root_blocks")
      (fun () -> last_done t 1)

  (* --- white-box probes ------------------------------------------- *)

  module Probe = struct
    let leaves t = t.leaf0
    let root_blocks t = last_done t 1
    let leaf_blocks t ~tid = last_done t (leaf_of t ~tid)
    let root_size t = (last_root t).size
  end
end
