(** Simulator implementation of {!Wfq_primitives.Atomic_intf.ATOMIC}.

    Cells are plain references — the simulator is single-domain — but
    every access first performs {!Scheduler.Yield_access}, making each
    shared read/write/CAS an individual scheduling point. Instantiating
    a queue functor with this module therefore exposes every
    interleaving of its shared-memory accesses to the scheduler, which
    is exactly the granularity of the paper's atomic-step model (§5.1).

    Each cell carries a unique location id (allocation order within the
    process), and each access is tagged Read/Write/Rmw — the metadata
    {!Dpor}'s happens-before analysis keys on. Ids are only comparable
    within one execution: re-running [make] allocates fresh ids.

    [compare_and_set] uses physical equality, like [Stdlib.Atomic] (and
    like Java reference CAS); for immediates such as [int], physical and
    structural equality coincide. A failed CAS is conservatively still
    an Rmw access (sound for DPOR, merely less reduction). *)

type 'a t = { mutable contents : 'a; loc : int }

let loc_counter = ref 0

let make v =
  incr loc_counter;
  { contents = v; loc = !loc_counter }

(* Padding is a layout matter for real domains; a simulated cell is
   one location either way. *)
let make_padded = make

(* An embedded field holds a cell of its own, so an access through
   [first] or an int-field function is one step at that cell's
   location, as on a [make] cell. *)
type 'a embedded = 'a t

let embed = make
let field_cell r i = Obj.obj (Obj.field (Obj.repr r) i)
let first r = field_cell r 0

(* The initializing store is a plain one: no scheduling point. *)
let embed_cyclic f =
  let c = make (Obj.magic 0) in
  let r = f c in
  c.contents <- r;
  r

let get r =
  Scheduler.yield_access { Scheduler.loc = r.loc; kind = Scheduler.Read };
  r.contents

(* Non-yielding read for assertions outside a scheduled run. *)
let peek r = r.contents

(* Location id, for tests that assert on conflict detection. *)
let loc_id r = r.loc

let set r v =
  Scheduler.yield_access { Scheduler.loc = r.loc; kind = Scheduler.Write };
  r.contents <- v

let compare_and_set r expected desired =
  Scheduler.yield_access { Scheduler.loc = r.loc; kind = Scheduler.Rmw };
  if r.contents == expected then begin
    r.contents <- desired;
    true
  end
  else false

let get_int_field r i = get (field_cell r i)
let set_int_field r i v = set (field_cell r i) v

let cas_int_field r i expected desired =
  compare_and_set (field_cell r i) expected desired

let exchange r v =
  Scheduler.yield_access { Scheduler.loc = r.loc; kind = Scheduler.Rmw };
  let old = r.contents in
  r.contents <- v;
  old

let fetch_and_add r d =
  Scheduler.yield_access { Scheduler.loc = r.loc; kind = Scheduler.Rmw };
  let old = r.contents in
  r.contents <- old + d;
  old
