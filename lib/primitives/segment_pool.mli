(** Per-domain segment pools with epoch-tagged, quarantined recycling.

    Removes the one-node-per-enqueue allocation rate of the KP queue
    family: objects are carved from Jiffy-style segments (batches of
    [segment_size]) and recycled through strictly tid-local free stacks.
    A pool serves one object type and owns its epoch clock. Two
    mechanisms make reuse safe under helping:

    - the {e claim CAS} on a recycled node is protected by an epoch tag
      in the claim word itself ([Counted_atomic.Epoch]) — maintained by
      the client's [reset] callback;
    - the {e pointer CASes} (head/tail/next), whose expected values
      cannot carry a tag, are protected by epoch-based quarantine: a
      released object is only reusable once every thread has left the
      operation that was in flight when it was retired (two [Clock]
      epochs). A stalled thread delays reuse, never safety; [alloc]
      falls back to fresh segments, preserving wait-freedom.

    Each tid parks at most {!Make.max_parked} objects, free and
    quarantined together; [release] leaves any further object to the
    GC, so a tid that only releases cannot grow its pool without
    limit.

    The pool's bookkeeping lives in per-tid arrays, not in the objects:
    a pooled object carries no link or stamp field. The arrays start at
    one segment and double up to [max_parked], so after warm-up
    release, promotion and reuse allocate nothing.

    Functorized over [ATOMIC] so the pool runs under
    [Wfq_sim.Sim_atomic] and is DPOR-checkable with its client queues. *)

module Make (A : Atomic_intf.ATOMIC) : sig
  (** Global epoch + per-thread announcements (EBR-style). Each pool
      makes its own at {!create}; the module is exposed for tests. *)
  module Clock : sig
    type t

    val create : num_threads:int -> t

    val enter : t -> tid:int -> unit
    (** Announce the current global epoch; call on operation entry. *)

    val exit : t -> tid:int -> unit
    (** Withdraw the announcement; call on operation exit. *)

    val current : t -> int

    val try_advance : t -> unit
    (** Bump the global epoch if every announced thread has caught up
        to it. Called internally on the alloc slow path; exposed for
        tests. *)

    val cells : t -> Obj.t list
    (** The global epoch and the announcements, for tests of where they
        land in the heap. *)
  end

  type 'a t

  val default_segment_size : int

  val max_parked : int
  (** 4,096: the most objects one tid parks, free and quarantined
      together. *)

  val create :
    ?segment_size:int ->
    ?quarantine:bool ->
    num_threads:int ->
    fresh:(unit -> 'a) ->
    reset:('a -> unit) ->
    unit ->
    'a t
  (** [fresh] mints a blank object; [reset] re-blanks a
      recycled one before it is handed out, and must bump the object's
      epoch tag if it has one. [quarantine:false] makes released
      objects immediately reusable — only safe when something else
      closes the pointer races: hazard pointers that release an object
      only once no thread can reach it ([Kp_queue_hp]), or nothing at
      all in the seeded faults that prove quarantine and the epoch tag
      load-bearing. The other queues keep the default [true]. *)

  val enter : 'a t -> tid:int -> unit
  (** [Clock.enter] iff this pool quarantines (no-op otherwise). *)

  val exit : 'a t -> tid:int -> unit

  val alloc : 'a t -> tid:int -> 'a
  (** Pop a recycled object or carve a fresh segment, then [reset] it.
      Tid-local: at most one concurrent call per [tid]. *)

  val release : 'a t -> tid:int -> 'a -> unit
  (** Retire an object into [tid]'s quarantine (or straight onto the
      free stack when [quarantine:false]); dropped for the GC when [tid]
      already parks [max_parked] objects. The caller must hold the only
      live reference paths' retirement right — for queue nodes, be the
      unique winner of the head-swing CAS. *)

  (** {2 Statistics} (read quiescently; exact — a carve fills only an
      empty free stack, so its first-life objects are the stack's
      bottom entries) *)

  val reused : 'a t -> int
  val allocated_fresh : 'a t -> int
  val segments : 'a t -> int
  val pooled : 'a t -> int
  val quarantined : 'a t -> int

  val slot_words : 'a t -> (Obj.t * int) list array
  (** Per tid, the fields of the tid's free-stack and quarantine
      bookkeeping, each as a block and a field index, for tests of
      where they land in the heap. *)

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the pool's live counters and depth gauges to [metrics]
      under [prefix ^ ".reused"/".fresh"/".segments"/".pooled"/
      ".quarantined"]. Raises [Invalid_argument] if any of those names
      is already registered. *)
end
