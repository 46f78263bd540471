(** Instrumented [ATOMIC] wrapper that counts shared-memory operations.

    Instantiating a queue functor with [Counted_atomic.Make (Real_atomic)]
    yields the same queue plus a per-module operation profile: how many
    atomic reads, writes, successful and failed CASes an operation
    performs. This is the executable form of the cost model behind the
    paper's §3.3 discussion (the [maxPhase] scan, helping overhead, and
    the "costly CAS" the validation enhancement avoids).

    Counters are plain module-level ints: exact in single-domain use
    (the simulator or single-threaded profiling); for multi-domain runs
    they are indicative only. Each functor application owns independent
    counters. *)

type counters = {
  reads : int;
  writes : int;
  cas_success : int;
  cas_failure : int;
  exchanges : int;
  fetch_adds : int;
}

let zero =
  { reads = 0; writes = 0; cas_success = 0; cas_failure = 0; exchanges = 0;
    fetch_adds = 0 }

let total c =
  c.reads + c.writes + c.cas_success + c.cas_failure + c.exchanges
  + c.fetch_adds

let pp fmt c =
  Format.fprintf fmt
    "reads=%d writes=%d cas_ok=%d cas_fail=%d xchg=%d faa=%d (total %d)"
    c.reads c.writes c.cas_success c.cas_failure c.exchanges c.fetch_adds
    (total c)

(* ------------------------------------------------------------------ *)
(* Epoch tags: version-stamped integers for ABA-safe recycling         *)
(* ------------------------------------------------------------------ *)

module Epoch = struct
  (* A small signed payload (>= -1) and an incarnation counter packed
     into one immediate int, so a CAS on an [int A.t] cell compares both
     at once. Used by the node pools ([Segment_pool]): a recycled node's
     claim word carries the next incarnation's epoch, so a stalled
     helper's CAS — expecting the previous incarnation's packed word —
     fails instead of ABA-claiming the fresh incarnation.

     Layout: [epoch lsl bits + value]. Epoch 0 packs to the raw value,
     so untagged code and tagged code agree on the initial state
     (pack ~epoch:0 (-1) = -1, the queues' unclaimed marker). *)

  let bits = 20
  let max_value = (1 lsl (bits - 1)) - 1

  let pack ~epoch value =
    if value < -1 || value > max_value then
      invalid_arg "Counted_atomic.Epoch.pack: value out of range";
    (epoch lsl bits) + value

  (* [p + 1 = epoch lsl bits + (value + 1)] with [value + 1] in
     [0, 2^bits): the shift separates the fields exactly. *)
  let epoch p = (p + 1) asr bits
  let value p = ((p + 1) land ((1 lsl bits) - 1)) - 1

  let with_value p v = pack ~epoch:(epoch p) v

  (** The unclaimed word of the next incarnation: bump the epoch, reset
      the payload to -1. Applied when a pooled node is recycled. *)
  let next_incarnation p = pack ~epoch:(epoch p + 1) (-1)
end

module Make (Base : Atomic_intf.ATOMIC) = struct
  type 'a t = 'a Base.t

  let reads = ref 0
  let writes = ref 0
  let cas_success = ref 0
  let cas_failure = ref 0
  let exchanges = ref 0
  let fetch_adds = ref 0

  let reset () =
    reads := 0;
    writes := 0;
    cas_success := 0;
    cas_failure := 0;
    exchanges := 0;
    fetch_adds := 0

  let snapshot () =
    {
      reads = !reads;
      writes = !writes;
      cas_success = !cas_success;
      cas_failure = !cas_failure;
      exchanges = !exchanges;
      fetch_adds = !fetch_adds;
    }

  let make = Base.make
  let make_padded = Base.make_padded

  type 'a embedded = 'a Base.embedded

  let embed = Base.embed
  let first = Base.first
  let embed_cyclic = Base.embed_cyclic

  let get_int_field r i =
    incr reads;
    Base.get_int_field r i

  let set_int_field r i v =
    incr writes;
    Base.set_int_field r i v

  let cas_int_field r i expected desired =
    let ok = Base.cas_int_field r i expected desired in
    if ok then incr cas_success else incr cas_failure;
    ok

  let get c =
    incr reads;
    Base.get c

  let set c v =
    incr writes;
    Base.set c v

  let compare_and_set c expected desired =
    let ok = Base.compare_and_set c expected desired in
    if ok then incr cas_success else incr cas_failure;
    ok

  let exchange c v =
    incr exchanges;
    Base.exchange c v

  let fetch_and_add c d =
    incr fetch_adds;
    Base.fetch_and_add c d
end
