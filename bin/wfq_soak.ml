(* Soak tester: run a randomized mixed workload on a chosen queue across
   several domains for a wall-clock duration, validating conservation
   invariants continuously. Intended for long unattended runs:

     wfq_soak --queue kp-opt12 --threads 8 --seconds 30

   [wfq_soak --help] lists the registry ids [--queue] accepts.
*)

open Cmdliner
module Bk = Wfq_core.Backends
module Rng = Wfq_primitives.Rng

type totals = {
  mutable enqs : int;
  mutable deq_hits : int;
  mutable deq_empties : int;
  mutable fulls : int; (* enqueues a bounded queue refused *)
  mutable checksum : int; (* sum of enqueued minus sum of dequeued *)
}

let run_soak queue_id threads seconds seed =
  let ((module B) as backend) = Bk.find queue_id in
  Printf.printf "soaking %s: %d domains, %.1fs, seed %d\n%!" B.label threads
    seconds seed;
  let q = Bk.instantiate backend ~num_threads:(threads + 1) () in
  let stop = Atomic.make false in
  let totals = Array.init threads (fun _ ->
      { enqs = 0; deq_hits = 0; deq_empties = 0; fulls = 0; checksum = 0 })
  in
  let worker tid () =
    let rng = Rng.split_for ~seed ~tid in
    let t = totals.(tid) in
    while not (Atomic.get stop) do
      (* Bursts keep the queue length wandering instead of hovering. *)
      let burst = 1 + Rng.below rng 32 in
      if Rng.bool rng then begin
        (* A bounded queue that refuses an element ends the burst (an
           unbounded one always accepts); the refused value never
           entered, so it stays out of the checksum. *)
        let rec enq k =
          if k > 0 then
            let v = 1 + Rng.below rng 1_000_000 in
            if q.try_enq ~tid v then begin
              t.enqs <- t.enqs + 1;
              t.checksum <- t.checksum + v;
              enq (k - 1)
            end
            else t.fulls <- t.fulls + 1
        in
        enq burst
      end
      else
        for _ = 1 to burst do
          match q.deq ~tid with
          | Some v ->
              t.deq_hits <- t.deq_hits + 1;
              t.checksum <- t.checksum - v
          | None -> t.deq_empties <- t.deq_empties + 1
        done
    done
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init threads (fun tid -> Domain.spawn (worker tid)) in
  Unix.sleepf seconds;
  Atomic.set stop true;
  List.iter Domain.join domains;
  let dt = Unix.gettimeofday () -. t0 in
  (* Drain and validate conservation: every enqueued value (as a sum)
     must be accounted for by dequeues plus leftovers. *)
  let leftover_count = ref 0 and leftover_sum = ref 0 in
  let rec drain () =
    match q.deq ~tid:threads with
    | Some v ->
        incr leftover_count;
        leftover_sum := !leftover_sum + v;
        drain ()
    | None -> ()
  in
  drain ();
  let enqs = Array.fold_left (fun a t -> a + t.enqs) 0 totals in
  let hits = Array.fold_left (fun a t -> a + t.deq_hits) 0 totals in
  let empties = Array.fold_left (fun a t -> a + t.deq_empties) 0 totals in
  let fulls = Array.fold_left (fun a t -> a + t.fulls) 0 totals in
  let checksum = Array.fold_left (fun a t -> a + t.checksum) 0 totals in
  Printf.printf
    "ops: %d enq, %d deq, %d empty-deq, %d full in %.2fs (%.0f ops/s)\n" enqs
    hits empties fulls dt
    (float_of_int (enqs + hits + empties + fulls) /. dt);
  let count_ok = enqs - hits = !leftover_count in
  let sum_ok = checksum = !leftover_sum in
  Printf.printf "conservation: count %s, checksum %s (%d left in queue)\n"
    (if count_ok then "OK" else "VIOLATED")
    (if sum_ok then "OK" else "VIOLATED")
    !leftover_count;
  if not (count_ok && sum_ok) then exit 1

let queue_arg =
  let ids = List.map (fun id -> (id, id)) Bk.ids in
  let doc =
    Printf.sprintf "Registry entry to soak: %s." (Arg.doc_alts_enum ids)
  in
  Arg.(value & opt (enum ids) "kp-opt12" & info [ "queue" ] ~docv:"ID" ~doc)

(* A zero, negative or NaN count or duration is a usage error (exit
   124) before any domain starts. *)
let positive zero of_string pp what =
  let parse s =
    match of_string s with
    | Some n when n > zero -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive %s" s what))
  in
  Arg.conv (parse, pp)

let pos_int = positive 0 int_of_string_opt Format.pp_print_int "integer"
let pos_float = positive 0.0 float_of_string_opt Format.pp_print_float "number"

let threads_arg =
  let doc = "Worker domains." in
  Arg.(value & opt pos_int 4 & info [ "threads" ] ~doc)

let seconds_arg =
  let doc = "Wall-clock duration in seconds." in
  Arg.(value & opt pos_float 10.0 & info [ "seconds" ] ~doc)

let seed_arg =
  let doc = "Workload seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let () =
  let info =
    Cmd.info "wfq_soak" ~version:"1.0"
      ~doc:"Long-running randomized soak test with conservation checking."
  in
  let term =
    Term.(
      const run_soak $ queue_arg $ threads_arg $ seconds_arg $ seed_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
