(** Hazard pointers (Michael, 2004) — safe memory reclamation for
    non-blocking structures, as prescribed by the paper's §3.4 for
    non-GC environments.

    Each thread owns a few single-writer multi-reader hazard slots;
    before dereferencing a shared node it publishes the node in a slot
    and re-validates the source. Retired nodes accumulate in a
    thread-local list and are freed by a bounded {e scan} once the list
    reaches a threshold — only nodes absent from every slot (and every
    extra hazard root) are freed. Wait-free: both scan loops are
    bounded. *)

module Make (A : Wfq_primitives.Atomic_intf.ATOMIC) : sig
  type 'a t

  val create :
    ?scan_threshold:int ->
    ?extra_hazards:(unit -> 'a list) ->
    nil:'a ->
    num_threads:int ->
    slots_per_thread:int ->
    free:(tid:int -> 'a -> unit) ->
    unit ->
    'a t
  (** [create ~nil ~num_threads ~slots_per_thread ~free ()] builds a
      hazard domain. An empty slot holds [nil], which must never be
      retired; a publication stores the node itself, with no box.
      [free] is called by the scanning thread (with its own
      [tid]) for each reclaimable node. [extra_hazards] lists additional
      hazard roots, scanned {e after} the slots — the Kogan-Petrank queue
      registers its descriptor node references here so that a node
      reachable from any descriptor is never recycled (the scan ordering
      covers in-flight transfers from a slot into a root). The default
      [scan_threshold] is Michael's [2·H + Θ(1)]. *)

  val protect : 'a t -> tid:int -> slot:int -> 'a -> unit
  (** Publish a node in the caller's slot. The caller must re-validate
      its source pointer after publishing and before dereferencing. *)

  val clear : 'a t -> tid:int -> slot:int -> unit
  val clear_all : 'a t -> tid:int -> unit

  val protect_read : 'a t -> tid:int -> slot:int -> (unit -> 'a) -> 'a
  (** [protect_read t ~tid ~slot read] loops read → publish → re-read
      until stable; the returned node (unless [nil]) is published and
      was reachable at publication time. Lock-free only: it retries for
      as long as other threads keep changing the source. *)

  val retire : 'a t -> tid:int -> 'a -> unit
  (** Hand a node removed from the structure to deferred reclamation;
      may trigger a scan. Each node must be retired at most once. *)

  val scan : 'a t -> tid:int -> unit
  (** Force a reclamation pass over the caller's retire list. *)

  val flush : 'a t -> unit
  (** Scan every thread's retire list. Quiescent use only (tests,
      shutdown). *)

  type stats = { retired : int; freed : int; still_pending : int }

  val stats : 'a t -> stats
  (** Aggregate counters; exact only at quiescence. *)
end
