(** Atomic cells wrapped in records padded past one cache line.

    The padding keeps the {e records} (the cell pointer and seven filler
    words, 72 bytes with the header) off each other's 64-byte lines. The
    atomic cell is a separate two-word block that the padding does not
    place: young cells sit next to their records, but promoted cells are
    packed by the major heap's two-word size class, 16 bytes apart. See
    padded.mli. *)

type 'a t = {
  cell : 'a Atomic.t;
  (* Seven immutable filler words push the next heap object past the
     cache line that holds [cell]'s pointer and header. They do not pad
     the block [cell] points to. *)
  _p0 : int;
  _p1 : int;
  _p2 : int;
  _p3 : int;
  _p4 : int;
  _p5 : int;
  _p6 : int;
}

let make v =
  { cell = Atomic.make v; _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0;
    _p5 = 0; _p6 = 0 }

let get t = Atomic.get t.cell
let set t v = Atomic.set t.cell v
let compare_and_set t expected desired =
  Atomic.compare_and_set t.cell expected desired
let fetch_and_add t d = Atomic.fetch_and_add t.cell d

(* Padded cells over an arbitrary [ATOMIC] implementation, so that the
   queue functors (which are abstract over the atomic plane: real,
   counted, simulated) can pad their per-thread descriptor slots without
   committing to [Stdlib.Atomic]. Under the simulator the padding words
   are inert — every access still goes through [A] and therefore still
   yields to the scheduler. *)
module Make (A : Atomic_intf.ATOMIC) = struct
  type 'a t = {
    cell : 'a A.t;
    _p0 : int;
    _p1 : int;
    _p2 : int;
    _p3 : int;
    _p4 : int;
    _p5 : int;
    _p6 : int;
  }

  let wrap cell =
    { cell; _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0; _p5 = 0; _p6 = 0 }

  let make v = wrap (A.make v)

  let make_cyclic f = A.make_cyclic (fun cell -> f (wrap cell))

  let get t = A.get t.cell
  let set t v = A.set t.cell v
  let compare_and_set t expected desired =
    A.compare_and_set t.cell expected desired
  let exchange t v = A.exchange t.cell v
  let fetch_and_add t d = A.fetch_and_add t.cell d
end
