(** Hazard pointers (Michael, IEEE TPDS 2004) — safe memory reclamation
    for non-blocking data structures without relying on the GC.

    Paper §3.4 prescribes exactly this technique for running the wait-free
    queue in non-GC environments. OCaml has a GC, so "reclamation" here
    means returning nodes to a pool for reuse; the safety obligation is
    identical — a node must not be recycled (and its fields mutated) while
    any thread may still dereference it — and a protocol bug manifests as
    real data corruption in the stress tests, just as use-after-free
    would.

    Protocol: each thread owns [slots_per_thread] single-writer
    multi-reader hazard slots. Before dereferencing a shared node a thread
    publishes it in a slot and re-validates its source; a node is retired
    to a thread-local list, and once the list reaches the scan threshold
    the thread collects every published hazard and frees (recycles) only
    the retired nodes not currently protected. All claims are on physical
    identity. The technique is wait-free: [scan] is two bounded loops. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) = struct
  (* A slot holds the domain's [nil] when it protects nothing, so a
     publication stores the node itself and allocates nothing. Its
     thread publishes into it on every traversal and every scan reads
     it, so it is a padded cell; the per-thread record, whose retire
     list its thread updates on every retirement, is a padded copy
     ({!Wfq_obsv.Line.copy_as_padded}). Two threads' words are thus
     never on one cache line. *)
  type 'a slot = 'a A.t

  type 'a per_thread = {
    slots : 'a slot array;
    mutable retired : 'a list;
    mutable retired_count : int;
    mutable freed_total : int;
    mutable retired_total : int;
  }

  type 'a t = {
    threads : 'a per_thread array;
    nil : 'a; (* never retired: what an empty slot holds *)
    scan_threshold : int;
    free : tid:int -> 'a -> unit;
        (* Called by the scanning thread with its own [tid], so a
           recycler can route freed objects to thread-local storage
           without synchronization. *)
    extra_hazards : unit -> 'a list;
        (* Additional hazard roots scanned AFTER the slots; the KP queue
           registers its descriptor [node] references here (see the scan
           ordering note below). *)
  }

  let default_threshold ~num_threads ~slots_per_thread =
    (* Michael's recommendation: R >= H (total hazard slots) + Omega(H)
       amortizes each scan over many retirements. *)
    (2 * num_threads * slots_per_thread) + 8

  let create ?(scan_threshold = 0) ?(extra_hazards = fun () -> []) ~nil
      ~num_threads ~slots_per_thread ~free () =
    if num_threads <= 0 then invalid_arg "Hazard.create: num_threads";
    if slots_per_thread <= 0 then
      invalid_arg "Hazard.create: slots_per_thread";
    let threshold =
      if scan_threshold > 0 then scan_threshold
      else default_threshold ~num_threads ~slots_per_thread
    in
    {
      threads =
        Array.init num_threads (fun _ ->
            Wfq_obsv.Line.copy_as_padded
              {
                slots =
                  Array.init slots_per_thread (fun _ -> A.make_padded nil);
                retired = [];
                retired_count = 0;
                freed_total = 0;
                retired_total = 0;
              });
      nil;
      scan_threshold = threshold;
      free;
      extra_hazards;
    }

  let protect t ~tid ~slot node = A.set t.threads.(tid).slots.(slot) node
  let clear t ~tid ~slot = A.set t.threads.(tid).slots.(slot) t.nil

  let clear_all t ~tid =
    let slots = t.threads.(tid).slots in
    for i = 0 to Array.length slots - 1 do
      A.set slots.(i) t.nil
    done

  (** [protect_read t ~tid ~slot read] reads a pointer with [read],
      publishes it, and re-reads to validate the publication happened
      before the pointer could have been retired. Loops on change; in the
      queue algorithms the loop is bounded by the surrounding validation
      structure. Returns the protected value ([read] may yield [nil] for
      an empty link, which needs no protection). *)
  let rec protect_read t ~tid ~slot read =
    let node = read () in
    if node == t.nil then begin
      clear t ~tid ~slot;
      node
    end
    else begin
      protect t ~tid ~slot node;
      if read () == node then node else protect_read t ~tid ~slot read
    end

  (* A node is hazardous if any thread currently publishes it. Physical
     membership test; H is small (num_threads * slots_per_thread). *)
  let collect_hazards t =
    Array.fold_left
      (fun acc per ->
        Array.fold_left
          (fun acc slot ->
            let n = A.get slot in
            if n == t.nil then acc else n :: acc)
          acc per.slots)
      [] t.threads

  (* Scan ordering matters for hazards transferred into shared structures
     (e.g. a node installed into an operation descriptor): the installer
     keeps the node in a slot until after the install completes, so a
     scanner that misses the slot (already overwritten) is guaranteed the
     install finished — reading the extra roots AFTER the slots then
     observes the node there. Reading roots first would leave a window
     where both sources miss a live transfer. *)
  let scan t ~tid =
    let per = t.threads.(tid) in
    let slot_hazards = collect_hazards t in
    let root_hazards = t.extra_hazards () in
    let hazards = slot_hazards @ root_hazards in
    let still_hazardous, freeable =
      List.partition (fun n -> List.memq n hazards) per.retired
    in
    List.iter (t.free ~tid) freeable;
    per.freed_total <- per.freed_total + List.length freeable;
    per.retired <- still_hazardous;
    per.retired_count <- List.length still_hazardous

  let retire t ~tid node =
    let per = t.threads.(tid) in
    per.retired <- node :: per.retired;
    per.retired_count <- per.retired_count + 1;
    per.retired_total <- per.retired_total + 1;
    if per.retired_count >= t.scan_threshold then scan t ~tid

  (** Force a final scan on every thread's retire list; quiescent use. *)
  let flush t = Array.iteri (fun tid _ -> scan t ~tid) t.threads

  (* The five fields of each [per_thread] and field 0 of each of its
     slots. *)
  let tid_words t =
    Array.map
      (fun per ->
        List.init 5 (fun i -> (Obj.repr per, i))
        @ List.map (fun c -> (Obj.repr c, 0)) (Array.to_list per.slots))
      t.threads

  type stats = { retired : int; freed : int; still_pending : int }

  let stats t =
    Array.fold_left
      (fun acc per ->
        {
          retired = acc.retired + per.retired_total;
          freed = acc.freed + per.freed_total;
          still_pending = acc.still_pending + per.retired_count;
        })
      { retired = 0; freed = 0; still_pending = 0 }
      t.threads
end
