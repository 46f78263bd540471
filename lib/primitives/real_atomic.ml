(** The production implementation of {!Atomic_intf.ATOMIC}: a zero-cost
    wrapper over [Stdlib.Atomic]. *)

type 'a t = 'a Atomic.t

let make = Atomic.make

(* The cell holds an immediate, which the GC skips, until [f] has
   built the value it points back from. *)
let make_cyclic f =
  let cell = Atomic.make (Obj.magic 0) in
  let v = f cell in
  Atomic.set cell v;
  v

let get = Atomic.get
let set = Atomic.set
let compare_and_set = Atomic.compare_and_set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
