(* Benchmark executable regenerating every figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks (one group per
   figure) measuring per-operation cost and allocation.

   Usage:
     dune exec bench/main.exe               # quick scale (default)
     dune exec bench/main.exe -- --paper    # the paper's parameters
     dune exec bench/main.exe -- --skip-micro   # completion-time only
     dune exec bench/main.exe -- --csv      # also emit CSV blocks

   The completion-time tables are the data behind the paper's plots; see
   EXPERIMENTS.md for paper-vs-measured commentary. *)

open Bechamel
module F = Wfq_harness.Figures
module I = Wfq_harness.Impls
module W = Wfq_harness.Workload

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Per-operation enqueue-dequeue pair on a persistent queue (size stays
   bounded), one closure per algorithm. *)
let pair_op (module Q : I.BENCH_QUEUE) =
  let q = Q.create ~num_threads:1 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Q.enqueue q ~tid:0 !i;
      ignore (Q.dequeue q ~tid:0))

(* Strictly alternating enq/deq over a prefilled queue: the single-thread
   stand-in for the 50% enqueues mix with a stable queue size. *)
let alternating_op (module Q : I.BENCH_QUEUE) =
  let q = Q.create ~num_threads:1 in
  for i = 1 to 1000 do
    Q.enqueue q ~tid:0 i
  done;
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      if !i land 1 = 0 then Q.enqueue q ~tid:0 !i
      else ignore (Q.dequeue q ~tid:0))

(* Enqueue-only: its minor-allocation profile is the per-node footprint
   that Figure 10 is about. *)
let enq_op (module Q : I.BENCH_QUEUE) =
  let q = Q.create ~num_threads:1 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Q.enqueue q ~tid:0 !i)

let micro_groups =
  [
    ("fig7-pairs", [ I.lf; I.wf_base; I.wf_opt12 ], pair_op);
    ("fig8-50pc-enq", [ I.lf; I.wf_base; I.wf_opt12 ], alternating_op);
    ("fig9-optimizations", [ I.wf_base; I.wf_opt1; I.wf_opt2; I.wf_opt12 ],
     pair_op);
    ("fig10-enqueue-alloc", [ I.lf; I.wf_base; I.wf_opt12; I.wf_hp ], enq_op);
  ]

(* Minor words allocated, read with [Gc.minor_words]. Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], whose [minor_words] only
   advances at a minor collection on OCaml 5.1: it reads 0.0 words/op
   for runs shorter than a minor heap. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance
    (module Minor_words)
    (Measure.register (module Minor_words))

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (single-thread per-op cost) ==";
  (* Bechamel's monotonic_clock instance reads the same CLOCK_MONOTONIC
     source as Wfq_harness.Clock, so per-op estimates here and the
     harness's latency samples (Latency, Open_loop) are directly
     comparable — no wall-clock/monotonic mismatch between stages. *)
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = minor_words in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  List.iter
    (fun (group, impls, op) ->
      let tests =
        List.map (fun impl -> Test.make ~name:(I.name impl) (op impl)) impls
      in
      let grouped = Test.make_grouped ~name:group tests in
      let raw = Benchmark.all cfg [ clock; alloc ] grouped in
      let times = Analyze.all ols clock raw in
      let allocs = Analyze.all ols alloc raw in
      Printf.printf "\n[%s]\n" group;
      let rows =
        Hashtbl.fold (fun name t acc -> (name, t) :: acc) times []
        |> List.sort compare
      in
      List.iter
        (fun (name, t) ->
          let ns =
            match Analyze.OLS.estimates t with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let words =
            match Hashtbl.find_opt allocs name with
            | Some a -> (
                match Analyze.OLS.estimates a with
                | Some (e :: _) -> e
                | _ -> nan)
            | None -> nan
          in
          Printf.printf "  %-28s %10.1f ns/op %10.1f minor-words/op\n" name
            ns words)
        rows)
    micro_groups;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Shared-memory operation profiles (cost model, §3.3)                 *)
(* ------------------------------------------------------------------ *)

module C = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Cms = Wfq_core.Ms_queue.Make (CA)
module Ckp = Wfq_core.Kp_queue.Make (CA)
module Clms = Wfq_core.Lms_queue.Make (CA)

(* Atomic reads/writes/CAS per uncontended operation, at two thread-count
   settings — the table that explains Figure 9: the base algorithm's
   per-operation work scales with num_threads, the optimized one's does
   not. *)
let run_profiles () =
  print_endline
    "\n== Shared-memory operation profile (uncontended; reads/writes/CAS \
     per op) ==";
  let profile f =
    CA.reset ();
    f ();
    CA.snapshot ()
  in
  let row name enq deq =
    Printf.printf "  %-22s enq: %-42s\n  %22s deq: %-42s\n" name
      (Format.asprintf "%a" C.pp enq)
      ""
      (Format.asprintf "%a" C.pp deq)
  in
  let kp_case name help phase num_threads =
    let q = Ckp.create_with ~help ~phase ~num_threads () in
    let enq = profile (fun () -> Ckp.enqueue q ~tid:0 1) in
    Ckp.enqueue q ~tid:0 2;
    let deq = profile (fun () -> ignore (Ckp.dequeue q ~tid:0)) in
    row (Printf.sprintf "%s (n=%d)" name num_threads) enq deq
  in
  let q = Cms.create ~num_threads:1 () in
  let enq = profile (fun () -> Cms.enqueue q ~tid:0 1) in
  Cms.enqueue q ~tid:0 2;
  let deq = profile (fun () -> ignore (Cms.dequeue q ~tid:0)) in
  row "LF (Michael-Scott)" enq deq;
  let ql = Clms.create ~num_threads:1 () in
  let enq = profile (fun () -> Clms.enqueue ql ~tid:0 1) in
  Clms.enqueue ql ~tid:0 2;
  let deq = profile (fun () -> ignore (Clms.dequeue ql ~tid:0)) in
  row "LF optimistic (LMS)" enq deq;
  List.iter
    (fun n ->
      kp_case "base WF" Wfq_core.Kp_queue.Help_all
        Wfq_core.Kp_queue.Phase_scan n)
    [ 1; 8; 16 ];
  List.iter
    (fun n ->
      kp_case "opt WF (1+2)" Wfq_core.Kp_queue.Help_one_cyclic
        Wfq_core.Kp_queue.Phase_counter n)
    [ 1; 16 ];
  flush stdout

(* ------------------------------------------------------------------ *)
(* Completion-time figures (the paper's actual plots)                  *)
(* ------------------------------------------------------------------ *)

let run_figures ~scale ~csv () =
  let s : F.scale = scale in
  Printf.printf
    "\n\
     == Completion-time figures ==\n\
     threads: %s; %d iterations/thread; %d runs per point\n"
    (String.concat "," (List.map string_of_int s.threads))
    s.iters s.runs;

  let fig7 = F.fig7 ~scale:s () in
  F.print_fig ~title:"Figure 7: enqueue-dequeue pairs, completion time"
    ~y_label:"seconds" fig7;
  Wfq_harness.Chart.print ~title:"Figure 7 (shape)" fig7;
  if csv then Wfq_harness.Report.print_csv ~title:"fig7" fig7;

  let fig8 = F.fig8 ~scale:s () in
  F.print_fig ~title:"Figure 8: 50% enqueues, completion time"
    ~y_label:"seconds" fig8;
  Wfq_harness.Chart.print ~title:"Figure 8 (shape)" fig8;
  if csv then Wfq_harness.Report.print_csv ~title:"fig8" fig8;

  let fig9 = F.fig9 ~scale:s () in
  F.print_fig ~title:"Figure 9: impact of the optimizations"
    ~y_label:"seconds" fig9;
  Wfq_harness.Chart.print ~title:"Figure 9 (shape)" fig9;
  if csv then Wfq_harness.Report.print_csv ~title:"fig9" fig9;

  let fig10 = F.fig10 ~scale:s () in
  F.print_fig10 fig10;
  Wfq_harness.Chart.print ~title:"Figure 10 (shape; x = queue size)" fig10;
  if csv then Wfq_harness.Report.print_csv ~title:"fig10" fig10;

  let ext =
    F.extended_pairs ~scale:{ s with runs = max 1 (s.runs / 2) } ()
  in
  F.print_fig
    ~title:"Extension: all implementations, enqueue-dequeue pairs"
    ~y_label:"seconds" ext;
  if csv then Wfq_harness.Report.print_csv ~title:"extended" ext;

  let abl = F.ablation ~scale:{ s with runs = max 1 (s.runs / 2) } () in
  F.print_fig
    ~title:
      "Ablation: helping-chunk size and tuning enhancements (pairs)"
    ~y_label:"seconds" abl;
  if csv then Wfq_harness.Report.print_csv ~title:"ablation" abl

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let scale = if has "--paper" then F.paper else F.quick in
  Printf.printf
    "wait-free queue benchmarks (Kogan-Petrank PPoPP'11 reproduction)\n\
     host: %d recommended domain(s)\n"
    (Domain.recommended_domain_count ());
  (* Total wall time on the shared monotonic clock — immune to NTP
     steps mid-run, unlike the Unix.gettimeofday this used to read. *)
  let t0 = Wfq_harness.Clock.now_s () in
  if not (has "--skip-micro") then run_micro ();
  run_profiles ();
  if not (has "--skip-figures") then run_figures ~scale ~csv:(has "--csv") ();
  Printf.printf "\ntotal bench time: %.1f s (monotonic)\n"
    (Wfq_harness.Clock.now_s () -. t0)
