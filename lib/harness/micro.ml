(* Single-thread micro-benchmarks: Bechamel groups measuring
   per-operation cost and allocation (one group per paper figure), and
   the counted-atomics table of reads/writes/CAS per uncontended
   operation. *)

open Bechamel
module I = Impls

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

let estimate t =
  match Analyze.OLS.estimates t with Some (e :: _) -> e | _ -> nan

let run_groups () =
  print_endline "== Bechamel micro-benchmarks (single-thread per-op cost) ==";
  (* Bechamel's monotonic_clock instance reads the same CLOCK_MONOTONIC
     source as Clock, so per-op estimates here and the
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
          Printf.printf "  %-28s %10.1f ns/op %10.1f minor-words/op\n" name
            (estimate t)
            (Option.fold ~none:nan ~some:estimate
               (Hashtbl.find_opt allocs name)))
        rows)
    micro_groups;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Shared-memory operation profiles (cost model, §3.3)                 *)
(* ------------------------------------------------------------------ *)

module C = Wfq_primitives.Counted_atomic
module CA = Wfq_primitives.Counted_atomic.Make (Wfq_primitives.Real_atomic)
module Cms = Wfq_core.Ms_queue.Make (CA)

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
  let case name enqueue dequeue =
    let enq = profile (fun () -> enqueue 1) in
    enqueue 2;
    let deq = profile (fun () -> ignore (dequeue () : int option)) in
    row name enq deq
  in
  let kp_case label config num_threads =
    let module B = (val Wfq_core.Backends.make ~id:label ~label (Kp config)) in
    let module Q = B.Make (CA) in
    let q = Q.create ~num_threads () in
    case
      (Printf.sprintf "%s (n=%d)" label num_threads)
      (Q.enqueue q ~tid:0)
      (fun () -> Q.dequeue q ~tid:0)
  in
  let q = Cms.create ~num_threads:1 () in
  case "LF (Michael-Scott)" (Cms.enqueue q ~tid:0) (fun () ->
      Cms.dequeue q ~tid:0);
  List.iter (kp_case "base WF" Wfq_core.Backends.kp_base) [ 1; 8; 16 ];
  List.iter (kp_case "opt WF (1+2)" Wfq_core.Backends.kp) [ 1; 16 ];
  flush stdout

let run () =
  run_groups ();
  run_profiles ()
