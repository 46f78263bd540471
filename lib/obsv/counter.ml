(** Per-slot, cache-padded, single-writer event counters.

    The queue stack's diagnostic counters were ad-hoc plain [int array]s
    before this module existed, and two of them were racy (multi-domain
    writers with no synchronization — see docs/OBSERVABILITY.md). This
    module is the single replacement mechanism. Its contract:

    {b Single-writer rule.} Each slot is written by exactly one domain
    at a time. Queue code indexes slots by the {e executing} thread's
    tid, so helper traffic is accounted to the helper — which keeps the
    rule intact even though operations are completed cooperatively.
    When slot ownership migrates between domains (e.g. the tid registry
    hands a slot to a new domain), the migration must happen through a
    synchronizing operation (a CAS on the slot's ownership word);
    writers that cannot guarantee that must use {!Shared_counter}
    instead.

    {b Racy reads.} [total] / [snapshot] read the slots with plain
    loads, concurrently with the writers. OCaml immediate ints are
    word-sized, so a racing read returns some previously-written value
    of that slot — never a torn word. Sums are therefore per-slot
    consistent, monotone under monotone writers, and exact once the
    writers are quiescent. They are {e not} a linearizable cut across
    slots, and must not be used for control decisions, only reporting.

    {b Cost.} An increment is one bounds-checked array load + store to a
    slot that no other domain writes; slots are laid out by {!Line}, a
    line apart, so concurrent writers never share a line. No RMW, no fence:
    this is deliberately {e cheaper} than an [Atomic.t] and is what lets
    instrumentation sit on queue hot paths within the ≤2% overhead
    budget. *)

(* Slots laid out by {!Line}: a stride apart, the first a stride in. *)
type t = int array

let create ~slots () =
  if slots <= 0 then invalid_arg "Obsv.Counter.create: slots";
  Line.ints slots 0

let slots = Line.slots

let incr t ~slot =
  let i = Line.slot slot in
  t.(i) <- t.(i) + 1

let add t ~slot n =
  let i = Line.slot slot in
  t.(i) <- t.(i) + n

let slot_value t ~slot = t.(Line.slot slot)
let slot_word t ~slot = (Obj.repr t, Line.slot slot)

let snapshot t = Array.init (slots t) (fun i -> t.(Line.slot i))

let total t =
  let acc = ref 0 in
  for i = 0 to slots t - 1 do
    acc := !acc + t.(Line.slot i)
  done;
  !acc
