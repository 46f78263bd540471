(* Benchmark CLI: one subcommand per suite of Wfq_harness.Suite, plus
   the validator of the files the suites write.

     wfq_bench fig7 --threads 1,2,4,8 --iters 100000 --runs 5
     wfq_bench fig10 --sizes 1,100,10000
     wfq_bench figures --paper --csv
     wfq_bench alloc --threads 2 --iters 2000 --runs 1 --json
     wfq_bench check BENCH_alloc.json
*)

open Cmdliner
module S = Wfq_harness.Suite
module OL = Wfq_harness.Open_loop
module Bks = Wfq_core.Backends

(* Sizes, counts and rates must be positive: a malformed or zero value
   is a usage error before anything runs, not an exception after. *)
let positive zero of_string pp what =
  let parse s =
    match of_string s with
    | Some n when n > zero -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive %s" s what))
  in
  Arg.conv (parse, pp)

let pos_int = positive 0 int_of_string_opt Format.pp_print_int "integer"
let pos_float = positive 0.0 float_of_string_opt Format.pp_print_float "number"

let list c =
  let l = Arg.list c in
  let parse s =
    match Arg.conv_parser l s with
    | Ok [] -> Error (`Msg "the list is empty")
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer l)

let opt_d c v name docv doc = Arg.(value & opt c v & info [ name ] ~docv ~doc)
let opt c = opt_d (Arg.some c) None
let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let csv_arg = flag "csv" "Also print machine-readable CSV blocks."

let run_cmd ?(csv = csv_arg) (s : S.t) suite scale =
  let json =
    match s.file with
    | Some file -> flag "json" ("Also write the series to " ^ file ^ ".")
    | None -> Term.const false
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(
      const (fun s scale csv json ->
          ignore (S.run ~csv ~json scale s : S.bench))
      $ suite $ scale $ csv $ json)

(* The scale-driven suites share one term. *)
let suite_cmd (s : S.t) =
  let scale paper threads iters runs sizes batch =
    let base = if paper then S.paper else S.quick in
    {
      S.threads =
        (match (threads, s.threads) with
        | Some t, _ -> t
        | None, Some t when not paper -> t
        | None, _ -> base.threads);
      iters = Option.value iters ~default:base.iters;
      runs = Option.value runs ~default:base.runs;
      sizes = Option.value sizes ~default:base.sizes;
      batch;
    }
  in
  let batch =
    if S.takes_batch s then
      opt pos_int "batch" "K"
        "Also run the batch-native decomposition at this batch size: the \
         per-item WF fps baseline vs the native enqueue_batch/dequeue_batch \
         of the fps, KP, ring and sharded backends on the batch pairs \
         workload (docs/BATCHING.md). Adds batch:-prefixed series to the \
         tables and the JSON."
    else Term.const None
  in
  run_cmd s (Term.const s)
    Term.(
      const scale
      $ flag "paper"
          "Use the paper's full parameters (1..16 threads, 1M iters, 10 runs)."
      $ opt (list pos_int) "threads" "LIST"
          "Comma-separated thread counts (x axis)."
      $ opt pos_int "iters" "N" "Iterations per thread."
      $ opt pos_int "runs" "N"
          "Repetitions per point, reported as their median (paper: 10)."
      $ opt (list pos_int) "sizes" "LIST"
          "Comma-separated initial queue sizes (fig. 10)."
      $ batch)

(* The suites with their own configuration: [s] names the command, and
   [suite] builds the configured suite from its flags. *)
let configured_cmd ?csv s suite = run_cmd ?csv s suite (Term.const S.quick)

let sched_cmd =
  let d = Wfq_harness.Sched_bench.default in
  let make domains requests fanout work runs =
    S.sched { domains; requests; fanout; work; runs }
  in
  configured_cmd (S.sched d)
    Term.(
      const make
      $ opt_d (list pos_int) d.domains "domains" "LIST"
          "Comma-separated worker-domain counts."
      $ opt_d pos_int d.requests "requests" "N" "Request fibers per run."
      $ opt_d pos_int d.fanout "fanout" "N"
          "Subfibers spawned and awaited per request."
      $ opt_d pos_int d.work "work" "N"
          "CPU-burn loop iterations per request stage."
      $ opt_d pos_int d.runs "runs" "N"
          "Repetitions per point, reported as their median.")

(* Open-loop latency sweep (docs/LATENCY.md): seeded arrival schedules
   drive registry backends at fixed offered loads, and every latency is
   measured from the event's intended send time on the monotonic clock,
   so a saturated or stalled queue shows the queueing delay it caused
   instead of silently throttling the load generator (coordinated
   omission). *)
let openloop_cmd =
  let make rates events producers consumers pattern duty burst_len skew seed
      stall_us stall_after knee_mult backends =
    let pattern =
      match pattern with
      | `Poisson -> Wfq_harness.Arrivals.Poisson
      | `Burst -> Wfq_harness.Arrivals.Burst { duty; burst_len }
    in
    let stall =
      if stall_us > 0 then
        Some
          { OL.victim = 0; after = stall_after; duration_ns = stall_us * 1000 }
      else None
    in
    S.open_loop ~rates ~knee_mult
      ~config:
        { OL.default_config with events; producers; consumers; pattern;
          skew; seed; stall }
      (Option.fold ~none:Bks.all ~some:(List.map Bks.find) backends)
  in
  configured_cmd ~csv:(Term.const false)
    (S.open_loop ~config:OL.default_config ~rates:[] ~knee_mult:4.0 [])
    Term.(
      const make
      $ opt_d (list pos_float) [ 2000.; 4000.; 8000.; 16000. ] "rates" "LIST"
          "Comma-separated offered loads in events/second (x axis)."
      $ opt_d pos_int 4000 "events" "N" "Events per (backend, rate) point."
      $ opt_d pos_int 1 "producers" "N"
          "Producer domains following the arrival schedule."
      $ opt_d pos_int 1 "consumers" "N" "Consumer domains."
      $ opt_d
          Arg.(enum [ ("poisson", `Poisson); ("burst", `Burst) ])
          `Poisson "pattern" "NAME"
          "Arrival pattern: $(b,poisson) (exponential interarrivals) or \
           $(b,burst) (on/off Markov-modulated; see --duty, --burst-len)."
      $ opt_d Arg.float 0.2 "duty" "F"
          "Burst pattern: fraction of time spent in the ON state."
      $ opt_d pos_int 32 "burst-len" "N"
          "Burst pattern: mean events per ON burst."
      $ opt_d Arg.float 0.0 "skew" "F"
          "Producer-affinity skew: events are assigned to producers with \
           Zipf-like weights (i+1)^-skew; 0 is uniform."
      $ opt_d Arg.int 42 "seed" "N"
          "Schedule seed (deterministic arrivals per seed)."
      $ opt_d Arg.int 0 "stall-us" "US"
          "Inject a slow consumer: consumer 0 goes dark for this many \
           microseconds after its --stall-after-th dequeue (0 disables)."
      $ opt_d pos_int 100 "stall-after" "N"
          "Dequeues by consumer 0 before the injected stall."
      $ opt_d pos_float 4.0 "knee-mult" "F"
          "Saturation-knee multiplier: the knee is the first offered load \
           whose sojourn p99 exceeds this multiple of the lowest load's p99."
      $ opt (list Arg.string) "backends" "LIST"
          "Comma-separated registry backend ids to sweep (default: all; see \
           --list-backends).")

let stats_cmd =
  configured_cmd ~csv:(Term.const false)
    (S.stats ~threads:4 ~iters:20_000 ~runs:50)
    Term.(
      const (fun threads iters runs -> S.stats ~threads ~iters ~runs)
      $ opt_d pos_int 4 "threads" "N" "Number of worker domains."
      $ opt_d pos_int 20_000 "iters" "N" "Iterations per thread."
      $ opt_d pos_int 50 "runs" "N" "Overhead chunk pairs.")

let check_cmd =
  let check files =
    let failed =
      List.fold_left
        (fun failed f ->
          match S.check f with
          | [] ->
              print_endline (f ^ ": ok");
              failed
          | v ->
              List.iter (fun m -> Printf.eprintf "%s: %s\n" f m) v;
              true)
        false files
    in
    if failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate BENCH_*.json files: the series must be the writing \
          suite's rows on its recorded axes, and its guards must hold. \
          Names each violation and exits 1 if there is any.")
    Term.(
      const check $ Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"))

(* wfq_bench --list-backends: the registry, one row per backend — the
   single source of truth the benches, the conformance battery, the
   shard front-end and the scheduler all instantiate from. *)
let print_backends () =
  Printf.printf "%-16s %-22s %-8s %-10s %s\n" "id" "label" "family"
    "capacity" "sim";
  List.iter
    (fun (module B : Wfq_core.Queue_intf.BACKEND) ->
      Printf.printf "%-16s %-22s %-8s %-10s %s\n" B.id B.label B.family
        (match B.capacity with None -> "unbounded" | Some c -> string_of_int c)
        (if B.sim_safe then "yes" else "no"))
    Bks.all

let default =
  Term.(
    ret
      (const (fun list ->
           if list then `Ok (print_backends ()) else `Help (`Pager, None))
      $ flag "list-backends"
          "List every backend registered in Wfq_core.Backends (id, label, \
           family, capacity, simulator-safety) and exit."))

let () =
  let info =
    Cmd.info "wfq_bench" ~version:"1.0"
      ~doc:
        "Benchmarks for the Kogan-Petrank wait-free queue reproduction \
         (PPoPP 2011)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (List.map suite_cmd S.table
          @ [ sched_cmd; openloop_cmd; stats_cmd; check_cmd ])))
