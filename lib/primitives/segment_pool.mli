(** Per-domain segment pools with epoch-tagged, quarantined recycling.

    Removes the one-node-plus-one-descriptor-per-operation allocation
    rate of the KP queue family: objects are carved from Jiffy-style
    segments (batches of [segment_size]) and recycled through strictly
    tid-local free lists. Two mechanisms make reuse safe under helping:

    - the {e claim CAS} on a recycled node is protected by an epoch tag
      in the claim word itself ([Counted_atomic.Epoch]) — maintained by
      the client's [reset] callback;
    - the {e pointer CASes} (head/tail/next), whose expected values
      cannot carry a tag, are protected by epoch-based quarantine: a
      released object is only reusable once every thread has left the
      operation that was in flight when it was retired (two [Clock]
      epochs). A stalled thread delays reuse, never safety; [alloc]
      falls back to fresh segments, preserving wait-freedom.

    Both containers are {e intrusive} — objects chain through a
    client-provided link field and carry their retire epoch in a
    client-provided int field ({!ops}) — so release, promotion and
    reuse allocate nothing. A non-intrusive cons cell per release would
    hand back a third of the words the recycled object saves, which is
    measurable: the whole module exists to lower words/op.

    Each tid parks at most {!Make.max_parked} objects, free and
    quarantined together; [release] leaves any further object to the
    GC, so a tid that only releases cannot grow its pool without
    limit.

    Functorized over [ATOMIC] so the pool runs under
    [Wfq_sim.Sim_atomic] and is DPOR-checkable with its client queues. *)

type 'a ops = {
  get_next : 'a -> 'a;
  set_next : 'a -> 'a -> unit;
  get_stamp : 'a -> int;
  set_stamp : 'a -> int -> unit;
}
(** Accessors for the intrusive link and stamp fields. The pool owns
    both fields from [release] until the object's next [alloc]; while
    the object is live with the client they are dead storage and may
    hold anything. *)

module Make (A : Atomic_intf.ATOMIC) : sig
  (** Global epoch + per-thread announcements (EBR-style). One clock is
      shared by all pools of a queue instance, so one enter/exit pair
      per queue operation covers node and descriptor pools alike. *)
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
  end

  type 'a t

  val default_segment_size : int

  val max_parked : int
  (** 4,096: the most objects one tid parks, free and quarantined
      together. *)

  val create :
    ?segment_size:int ->
    ?quarantine:bool ->
    clock:Clock.t ->
    num_threads:int ->
    ops:'a ops ->
    fresh:(unit -> 'a) ->
    reset:('a -> unit) ->
    unit ->
    'a t
  (** [fresh] mints a blank object (one extra is consumed at creation as
      the pool's internal end-of-chain marker); [reset] re-blanks a
      recycled one before it is handed out, and must bump the object's
      epoch tag if it has one. [quarantine:false] makes released
      objects immediately reusable — only safe when something else
      closes the pointer races: hazard pointers that release an object
      only once no thread can reach it ([Kp_queue_hp]), or nothing at
      all in the DPOR scenario that proves the epoch tag load-bearing.
      The other queues keep the default [true]. *)

  val enter : 'a t -> tid:int -> unit
  (** [Clock.enter] iff this pool quarantines (no-op otherwise). *)

  val exit : 'a t -> tid:int -> unit

  val alloc : 'a t -> tid:int -> 'a
  (** Pop a recycled object (after [reset]) or carve a fresh segment.
      Tid-local: at most one concurrent call per [tid]. *)

  val release : 'a t -> tid:int -> 'a -> unit
  (** Retire an object into [tid]'s quarantine (or straight onto the
      free list when [quarantine:false]); dropped for the GC when [tid]
      already parks [max_parked] objects. The caller must hold the only
      live reference paths' retirement right — for queue nodes, be the
      unique winner of the head-swing CAS. *)

  (** {2 Statistics} (read quiescently; exact — the pool distinguishes
      first-life objects from recycled ones by a carve-time stamp) *)

  val reused : 'a t -> int
  val allocated_fresh : 'a t -> int
  val segments : 'a t -> int
  val pooled : 'a t -> int
  val quarantined : 'a t -> int

  val register_metrics :
    'a t -> Wfq_obsv.Metrics.t -> prefix:string -> unit
  (** Attach the pool's live counters and depth gauges to [metrics]
      under [prefix ^ ".reused"/".fresh"/".segments"/".pooled"/
      ".quarantined"]. Raises [Invalid_argument] if any of those names
      is already registered. *)
end
