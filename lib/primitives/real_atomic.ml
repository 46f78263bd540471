(** The production implementation of {!Atomic_intf.ATOMIC}: a zero-cost
    wrapper over [Stdlib.Atomic]. *)

type 'a t = 'a Atomic.t

let make = Atomic.make

(* An [Atomic.t] is a one-field block, and every atomic primitive
   touches field 0 only, so a wider tag-0 block with the value in field
   0 is a valid cell. Eight fields and the header make 72 bytes, so the
   value words of two padded cells are always more than a 64-byte line
   apart, and a promoted cell lives in the major heap's 9-word size
   class, away from the 2-word atomics [make] packs 16 bytes apart.
   This is multicore-magic's [copy_as_padded], allocated inline: an
   [Obj.new_block] is a C call per cell. The fields are mutable so the
   compiler never shares a literal between calls. *)
type 'a padded = {
  mutable v : 'a;
  mutable _p1 : int;
  mutable _p2 : int;
  mutable _p3 : int;
  mutable _p4 : int;
  mutable _p5 : int;
  mutable _p6 : int;
  mutable _p7 : int;
}

let make_padded (v : 'a) : 'a t =
  Obj.magic
    { v; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0; _p5 = 0; _p6 = 0; _p7 = 0 }

(* The same cast as [make_padded]: a record whose field 0 holds the
   value is a cell, so an embedded field is the value itself and
   [first] is the identity. This is Saturn's [as_atomic]. *)
type 'a embedded = 'a

let embed v = v
let first r = Obj.magic r

(* Field 0 holds an immediate, which the GC skips, until [f] has built
   the record it points back at. *)
let embed_cyclic f =
  let r = f (Obj.magic 0) in
  Atomic.set (first r) r;
  r

(* An [int embedded] field holds only immediates, so the C stubs need
   no write barrier and never allocate. *)
external get_int_field : 'r -> int -> int = "wfq_atomic_field_get"
[@@noalloc]

external set_int_field : 'r -> int -> int -> unit = "wfq_atomic_field_set"
[@@noalloc]

external cas_int_field : 'r -> int -> int -> int -> bool
  = "wfq_atomic_field_cas"
[@@noalloc]

(* Read as an [int array], the field is a plain load or store of an
   immediate: no barrier, and no [caml_modify]. *)
let peek_int_field r i = Array.unsafe_get (Obj.magic r : int array) i
let init_int_field r i v = Array.unsafe_set (Obj.magic r : int array) i v

let get = Atomic.get
let set = Atomic.set
let compare_and_set = Atomic.compare_and_set
let exchange = Atomic.exchange
let fetch_and_add = Atomic.fetch_and_add
