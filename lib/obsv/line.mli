(** Cache-line layout for words that one domain writes on a hot path:
    the one definition of how far apart two domains' words sit. *)

val stride : int
(** 16 words (128 bytes): a cache line and the line the hardware
    prefetches beside it. *)

val ints : int -> int -> int array
(** [ints n v] is an array with [n] slots holding [v], slot [i] at
    index {!slot}[ i]. Every slot is [stride] words from the next one
    and from the array's header. Raises [Invalid_argument] for
    [n <= 0]. *)

val slot : int -> int
(** [slot i] is the index of slot [i] in an array made by {!ints}. *)

val slots : int array -> int
(** The number of slots of an array made by {!ints}. *)

val copy_as_padded : 'a -> 'a
(** [copy_as_padded r] is a copy of the record [r] followed by
    [stride] words of padding, for a record whose fields one domain
    writes on a hot path. The copy is the same record to every reader;
    a float-only record or a non-record raises [Invalid_argument].
    Allocates through C, so it is meant for records made once per
    structure, not per operation. *)
