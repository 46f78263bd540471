(** Cache-line layout for words that one domain writes on a hot path.

    A word that one domain stores to on every operation must not share
    a cache line with a word that another domain writes, or the two
    domains take the line from each other on every store although they
    never touch the same word. This module is the one place that says
    how far apart such words sit: {!stride} words.

    {!ints} lays out one [int] per slot, each a stride from the next.
    Slot [i] is word [(i + 1) * stride]: the first slot starts one
    stride in, so the array's header and whatever block the heap placed
    just before it (whose last words another domain may write) are a
    line away, and [stride - 1] words follow the last slot.

    {!copy_as_padded} pads a record instead: its fields stay where the
    code reads them, and [stride] words follow them, so the fields of
    two padded records never share a line whichever order the heap puts
    them in. *)

(* 16 words = 128 bytes: a cache line on x86-64 plus a guard against
   adjacent-line prefetch pairing. *)
let stride = 16

let slot i = (i + 1) * stride

let ints n v =
  if n <= 0 then invalid_arg "Obsv.Line.ints: slots";
  Array.make ((n + 1) * stride) v

let slots a = (Array.length a / stride) - 1

(* A record is a tag-0 block whose fields the code reads by index, so a
   longer tag-0 block with the same first fields is the same record to
   every reader. The padding holds [()], which the GC skips. A C call
   per record ([Obj.new_block]), so only for records made once per
   queue. *)
let copy_as_padded (r : 'a) : 'a =
  let o = Obj.repr r in
  if Obj.is_int o || Obj.tag o <> 0 then
    invalid_arg "Obsv.Line.copy_as_padded: not a record";
  let n = Obj.size o in
  let p = Obj.new_block 0 (n + stride) in
  for i = 0 to n - 1 do
    Obj.set_field p i (Obj.field o i)
  done;
  Obj.obj p
