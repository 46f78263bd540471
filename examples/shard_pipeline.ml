(* A fan-out/fan-in stage pipeline over the sharded front-end
   (lib/shard): several producer domains feed one Wfq_shard queue in
   batches, several worker domains drain it in batches, and a strict
   (single-shard) queue carries the ordered results to a sink.

   The example shows the two halves of the sharding contract in one
   program:
   - the wide middle edge tolerates relaxed global order (workers don't
     care which producer's item they grab first), so it uses 4 shards
     and batch operations — contention is shard-local and ticket
     acquisition is amortized;
   - the result edge needs strict FIFO (the sink checks workers'
     per-worker sequence numbers), so it uses one shard
     ([create ~shards:1]) — same API, strict semantics.

     dune exec examples/shard_pipeline.exe
*)

module Sh = Wfq_shard.Shard.Make (Wfq_primitives.Real_atomic)
module Rng = Wfq_primitives.Rng

let producers = 2
let workers = 2
let per_producer = 20_000
let batch = 16
let total = producers * per_producer

(* Middle edge: producers are tids 0..producers-1, workers follow. *)
let work_q : int Sh.t =
  Sh.create ~policy:Wfq_shard.Shard.Round_robin ~shards:4
    ~num_threads:(producers + workers) ()

(* Result edge: each worker owns a tid; the sink is the last tid. *)
let result_q : (int * int * int) Sh.t =
  Sh.create ~shards:1 ~num_threads:(workers + 1) ()

let done_producing = Atomic.make 0

let producer p () =
  let rng = Rng.create ~seed:(9000 + p) in
  let rec feed sent acc n =
    if sent = per_producer then (
      if acc <> [] then Sh.enqueue_batch work_q ~tid:p (List.rev acc))
    else
      let item = (p * per_producer) + Rng.below rng 1_000_000 in
      if n + 1 = batch then (
        Sh.enqueue_batch work_q ~tid:p (List.rev (item :: acc));
        feed (sent + 1) [] 0)
      else feed (sent + 1) (item :: acc) (n + 1)
  in
  feed 0 [] 0;
  Atomic.incr done_producing

let worker w () =
  let tid = producers + w in
  let seq = ref 0 in
  let process v =
    (* A deliberately CPU-bearing "hash". *)
    let h = ref v in
    for _ = 1 to 8 do
      h := (!h * 1103515245) + 12345
    done;
    incr seq;
    Sh.enqueue result_q ~tid:w (w, !seq, !h land 0xFFFF)
  in
  (* Termination: an empty sweep observed AFTER all producers finished
     is conclusive — no enqueue is concurrent anymore, so a remaining
     element would have been found. The flag must be read before the
     confirming sweep. *)
  let rec drain () =
    let all_produced = Atomic.get done_producing = producers in
    match Sh.dequeue_batch work_q ~tid ~n:batch with
    | [] ->
        if not all_produced then (
          Domain.cpu_relax ();
          drain ())
    | vs ->
        List.iter process vs;
        drain ()
  in
  drain ()

let () =
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init producers (fun p -> Domain.spawn (producer p))
    @ List.init workers (fun w -> Domain.spawn (worker w))
  in
  List.iter Domain.join domains;
  (* Sink: sequential drain of the strict edge. Per-worker sequence
     numbers must arrive in order — the strict edge guarantees it. *)
  let last = Array.make workers 0 in
  let count = ref 0 and checksum = ref 0 in
  let rec sink () =
    match Sh.dequeue result_q ~tid:workers with
    | None -> ()
    | Some (w, seq, h) ->
        if seq <> last.(w) + 1 then
          failwith
            (Printf.sprintf "worker %d results out of order: %d after %d" w
               seq last.(w));
        last.(w) <- seq;
        incr count;
        checksum := !checksum + h;
        sink ()
  in
  sink ();
  let dt = Unix.gettimeofday () -. t0 in
  assert (!count = total);
  assert (Sh.is_empty work_q);
  let st = Sh.stats work_q in
  Printf.printf
    "shard pipeline processed %d items exactly once in %.3fs (%.0f items/s)\n"
    !count dt
    (float_of_int !count /. dt);
  Printf.printf "aggregate checksum: %d\n" !checksum;
  Array.iteri
    (fun s c ->
      Printf.printf "  shard %d: %d in / %d out (%d stolen)\n" s
        c.Wfq_shard.Shard.enqueues c.Wfq_shard.Shard.dequeues
        c.Wfq_shard.Shard.steals)
    st
