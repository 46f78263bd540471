(** Operation histories for linearizability checking.

    Records invocation/response events with sequence-number timestamps.
    Under the simulator the recording is exact (runs are single-domain);
    on real domains pass [~thread_safe:true] — the recorder's lock only
    coarsens intervals, which keeps the check sound. *)

type op = Enq of int | Deq

type response =
  | Done  (** enqueue returned *)
  | Got of int  (** dequeue returned a value *)
  | Empty  (** dequeue observed an empty queue *)
  | Rejected  (** bounded enqueue observed a full queue *)

type completed = {
  thread : int;
  op : op;
  response : response;
  call : int;  (** sequence number of the invocation event *)
  return : int;  (** sequence number of the response event *)
}

type t

val create : ?thread_safe:bool -> unit -> t

val call : t -> thread:int -> op -> unit
(** Record an invocation; at most one call may be pending per thread. *)

val return : t -> thread:int -> response -> unit
(** Record the response to the thread's pending call. Raises
    [Invalid_argument] when no call is pending for that thread. *)

val call_batch : t -> thread:int -> op list -> unit
(** Record one invocation per batch element, in batch order, before the
    batch operation runs. The sub-ops share the batch's real-time
    window; their intra-batch order is their invocation order, which
    the checker enforces as per-thread program order. *)

val return_batch : t -> thread:int -> response list -> unit
(** Complete the thread's pending sub-ops, responses matched to sub-ops
    in invocation order. Raises [Invalid_argument] when the counts
    disagree. *)

val completed : t -> completed list
(** All completed operations, oldest first. *)

val has_pending : t -> bool

val pp_completed : Format.formatter -> completed -> unit
