(** Multi-writer atomic counters, for slots whose writer changes domains
    without a synchronizing hand-off the single-writer {!Counter} could
    piggyback on.

    The motivating client is [Wfq_registry]: its per-slot acquisition
    counter is bumped by whichever domain just won the slot, and across
    release/re-acquire churn the writer changes arbitrarily often. The
    original plain [int array] could lose increments under that churn;
    here each bump is a [fetch_and_add], so totals are exact — the churn
    test in test/test_registry.ml asserts equality with a
    domain-local reference count.

    Each cell is padded by {!Line.copy_as_padded}, so concurrent writers
    of {e different} slots do not false-share; same-slot contention pays
    the usual RMW price, which is acceptable because every client bump
    already sits next to a CAS (slot acquisition) on its path. *)

(* An [Atomic.t] is a one-field block and every atomic primitive
   touches field 0 only, so a padded copy is still an atomic. *)
type t = int Atomic.t array

let create ~slots () =
  if slots <= 0 then invalid_arg "Obsv.Shared_counter.create: slots";
  Array.init slots (fun _ -> Line.copy_as_padded (Atomic.make 0))

let slots = Array.length
let incr t ~slot = ignore (Atomic.fetch_and_add t.(slot) 1)
let add t ~slot n = ignore (Atomic.fetch_and_add t.(slot) n)
let slot_value t ~slot = Atomic.get t.(slot)
let snapshot t = Array.map Atomic.get t
let total t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t
