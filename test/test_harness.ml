(* Tests for the benchmark harness: barrier, workloads (with their
   built-in conservation checks), space measurement and report tables. *)

module B = Wfq_harness.Barrier
module W = Wfq_harness.Workload
module I = Wfq_harness.Impls
module Sp = Wfq_harness.Space
module R = Wfq_harness.Report

let test_barrier_releases_all () =
  let n = 5 in
  let b = B.create n in
  let released = Atomic.make 0 in
  let ds =
    List.init (n - 1) (fun _ ->
        Domain.spawn (fun () ->
            B.wait b;
            Atomic.incr released))
  in
  (* Nobody may pass before the last participant arrives. *)
  Unix.sleepf 0.05;
  Alcotest.(check int) "held until last arrival" 0 (Atomic.get released);
  B.wait b;
  List.iter Domain.join ds;
  Alcotest.(check int) "all released" (n - 1) (Atomic.get released)

(* The coarse single-mutex queue: the fixtures' reference queue. *)
let mutex : I.impl =
  (module struct
    type t = int Mutex_queue.t

    let name = "mutex"
    let create ~num_threads = Mutex_queue.create ~num_threads ()
    let enqueue = Mutex_queue.enqueue
    let dequeue = Mutex_queue.dequeue
  end)

(* The rows the suites sweep, once each by name: the paper's figure
   rows and every series. The sharded rows are relaxed FIFO, so their
   pairs run the relaxed workload, as in the shard suite. *)
let strict_rows, shard_rows =
  let seen rows r = List.exists (fun x -> I.name x = I.name r) rows in
  let strict =
    List.fold_left
      (fun acc r -> if seen acc r then acc else acc @ [ r ])
      []
      I.(
        [ lf; wf_base; wf_opt12 ] @ fps_bench_series @ alloc_series
        @ ring_series @ polylog_series)
  in
  (strict, List.filter (fun r -> not (seen strict r)) I.shard_series)

let test_pairs_all_impls () =
  let check impl (r : W.run_result) =
    Alcotest.(check bool)
      (I.name impl ^ " positive time")
      true (r.W.seconds >= 0.0);
    Alcotest.(check int)
      (I.name impl ^ " op count")
      (2 * 3 * 2_000) r.W.total_ops
  in
  List.iter
    (fun impl -> check impl (W.pairs impl ~threads:3 ~iters:2_000 ()))
    strict_rows;
  List.iter
    (fun impl -> check impl (W.pairs_relaxed impl ~threads:3 ~iters:2_000 ()))
    shard_rows

let test_p_enq_all_impls () =
  List.iter
    (fun impl ->
      let r = W.p_enq impl ~threads:3 ~iters:2_000 () in
      Alcotest.(check int)
        (I.name impl ^ " op count")
        (3 * 2_000) r.W.total_ops;
      (* coin flips counted *)
      let enqs =
        Array.fold_left (fun a c -> a + c.W.enqs) 0 r.W.per_thread
      in
      let deqs =
        Array.fold_left
          (fun a c -> a + c.W.deq_hits + c.W.deq_empties)
          0 r.W.per_thread
      in
      Alcotest.(check int) "every iteration did one op" (3 * 2_000)
        (enqs + deqs))
    (strict_rows @ shard_rows)

let test_pairs_check_catches_broken_queue () =
  (* A deliberately broken queue (drops every other enqueue) must be
     rejected by the workload's conservation check. *)
  let broken : I.impl =
    (module struct
      type t = { q : int Mutex_queue.t; mutable flip : bool }

      let name = "broken"

      let create ~num_threads =
        { q = Mutex_queue.create ~num_threads (); flip = false }

      let enqueue t ~tid v =
        t.flip <- not t.flip;
        if t.flip then Mutex_queue.enqueue t.q ~tid v

      let dequeue t ~tid = Mutex_queue.dequeue t.q ~tid
    end)
  in
  match W.pairs broken ~threads:1 ~iters:100 () with
  | _ -> Alcotest.fail "broken queue passed the conservation check"
  | exception Failure _ -> ()

let test_repeat_runs () =
  let times =
    W.repeat ~runs:3 (fun () -> W.pairs mutex ~threads:2 ~iters:500 ())
  in
  Alcotest.(check int) "three samples" 3 (List.length times);
  List.iter
    (fun t -> Alcotest.(check bool) "non-negative" true (t >= 0.0))
    times

let test_seed_determinism () =
  (* Same seed => same per-thread op mix in the random workload. *)
  let mix seed =
    let r = W.p_enq ~seed mutex ~threads:2 ~iters:1_000 () in
    Array.to_list (Array.map (fun c -> c.W.enqs) r.W.per_thread)
  in
  Alcotest.(check (list int)) "same seed same mix" (mix 7) (mix 7);
  Alcotest.(check bool) "different seed differs" true (mix 7 <> mix 8)

let test_space_footprint_scales () =
  let f100 = Sp.footprint I.lf ~size:100 in
  let f10k = Sp.footprint I.lf ~size:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "footprint grows with size (%d -> %d words)" f100 f10k)
    true
    (f10k > 50 * f100 / 10);
  (* WF nodes are larger than LF nodes (two extra fields). *)
  let wf = Sp.footprint I.wf_base ~size:10_000 in
  let lf = Sp.footprint I.lf ~size:10_000 in
  let ratio = float_of_int wf /. float_of_int lf in
  Alcotest.(check bool)
    (Printf.sprintf "WF/LF footprint ratio %.2f in (1.0, 2.5)" ratio)
    true
    (ratio > 1.0 && ratio < 2.5)

module S = Wfq_harness.Suite
module Json = Wfq_benchmark.Json

let suite name = List.find (fun (t : S.t) -> t.name = name) S.table
let run_suite name scale = (S.run scale (suite name)).S.series

let test_figures_shapes () =
  (* Tiny-scale smoke of the figure suites: well-formed series with
     consistent x axes and positive measurements. *)
  let scale =
    {
      S.quick with
      threads = [ 1; 2 ];
      iters = 300;
      runs = 1;
      sizes = [ 1; 100 ];
    }
  in
  let well_formed series =
    Alcotest.(check bool) "non-empty" true (series <> []);
    let xs (s : R.series) = List.map fst s.points in
    let first = xs (List.hd series) in
    List.iter
      (fun (s : R.series) ->
        Alcotest.(check (list (float 0.0))) "same x axis" first (xs s);
        List.iter
          (fun (_, y) ->
            Alcotest.(check bool) "finite positive" true
              (Float.is_finite y && y >= 0.0))
          s.points)
      series
  in
  well_formed (run_suite "fig7" scale);
  well_formed (run_suite "fig8" scale);
  well_formed (run_suite "fig9" scale);
  let fig10 = run_suite "fig10" scale in
  well_formed fig10;
  (* the space ratio must exceed 1: WF nodes are strictly larger *)
  List.iter
    (fun (s : R.series) ->
      List.iter
        (fun (_, y) -> Alcotest.(check bool) "ratio > 1" true (y > 1.0))
        s.points)
    fig10

(* The display names are the series keys of the committed BENCH_*.json
   files (BENCH_figures, _fps, _alloc, _ring, _polylog, _shard), so a
   refactor of how a configuration is built must not rename one. *)
let test_series_labels () =
  let names = List.map I.name in
  let check what expected got =
    Alcotest.(check (list string)) what expected got
  in
  let paper = [ "LF"; "base WF"; "opt WF (1+2)" ] in
  let scale =
    { S.quick with threads = [ 1 ]; iters = 50; runs = 1; sizes = [ 1 ] }
  in
  let labels fig =
    List.map (fun (s : R.series) -> s.R.label) (run_suite fig scale)
  in
  check "fig7 rows" paper (labels "fig7");
  check "fig8 rows" paper (labels "fig8");
  check "fig9 rows"
    [ "base WF"; "opt WF (1+2)"; "opt WF (1)"; "opt WF (2)" ]
    (labels "fig9");
  check "fps_bench_series"
    (paper
    @ [ "WF fps"; "WF fps pooled"; "WF fps mf=1"; "WF fps mf=8";
        "WF fps mf=64"; "WF fps mf=1024" ])
    (names I.fps_bench_series);
  check "alloc_series"
    [ "LF"; "opt WF (1+2)"; "WF fps"; "WF fps pooled" ]
    (names I.alloc_series);
  check "ring_series"
    [ "opt WF (1+2)"; "WF fps pooled"; "WF ring" ]
    (names I.ring_series);
  check "polylog_series"
    [ "opt WF (1+2)"; "WF fps pooled"; "WF polylog" ]
    (names I.polylog_series);
  check "shard_series"
    [ "opt WF (1+2)"; "WF shard-1"; "WF shard-2"; "WF shard-4";
      "WF shard-8"; "WF shard-8 (rr)" ]
    (names I.shard_series);
  check "batch_series"
    [ "WF fps per-item"; "WF fps batch"; "opt WF (1+2) batch";
      "WF ring batch"; "WF shard-4 (rr) batch" ]
    (List.map I.batch_name I.batch_series);
  check "swept rows"
    [ "LF"; "base WF"; "opt WF (1+2)"; "WF fps"; "WF fps pooled";
      "WF fps mf=1"; "WF fps mf=8"; "WF fps mf=64"; "WF fps mf=1024";
      "WF ring"; "WF polylog"; "WF shard-1"; "WF shard-2"; "WF shard-4";
      "WF shard-8"; "WF shard-8 (rr)" ]
    (names (strict_rows @ shard_rows))

let test_report_table_renders () =
  (* Smoke: the printer must not raise and must align missing points. *)
  R.print_table ~title:"test" ~x_label:"threads"
    [
      { R.label = "a"; points = [ (1.0, 0.5); (2.0, 0.7) ] };
      { R.label = "b"; points = [ (1.0, 0.6) ] };
    ];
  R.print_csv ~title:"test"
    [ { R.label = "a"; points = [ (1.0, 0.5) ] } ]

(* ------------------------------------------------------------------ *)
(* The validator: committed files and guard fixtures                   *)
(* ------------------------------------------------------------------ *)

(* Every committed BENCH file has its suite's shape. (The guards are not
   asserted on them: some hold only on the host that wrote them.) The
   files are the test's dune deps, copied next to the test directory,
   so they are found from the executable's path whatever the working
   directory. *)
let test_committed_files_valid () =
  let dir = Filename.dirname (Filename.dirname Sys.executable_name) in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check int) "nine committed files" 9 (List.length files);
  List.iter
    (fun f ->
      match S.find f with
      | None -> Alcotest.failf "no suite writes %s" f
      | Some t ->
          Alcotest.(check (list string))
            (f ^ " valid") []
            (S.validate t
               (S.of_json (Json.read_file (Filename.concat dir f)))))
    files

(* Fig. 10's points count the words reachable from a built queue, so
   they are exact: the committed ones must equal a fresh run of the
   fig10 suite at the committed sizes. A change to a node, a descriptor
   or a queue's fixed state moves them, and fails here until
   BENCH_figures.json's fig10 series are re-measured. *)
let test_committed_fig10_current () =
  let dir = Filename.dirname (Filename.dirname Sys.executable_name) in
  let committed =
    S.of_json (Json.read_file (Filename.concat dir "BENCH_figures.json"))
  in
  let sizes = [ 1; 100 ] in
  let fresh = run_suite "fig10" { S.quick with sizes } in
  Alcotest.(check int) "two rows" 2 (List.length fresh);
  List.iter
    (fun (s : R.series) ->
      let label = "fig10:" ^ s.label in
      match
        List.find_opt
          (fun (c : R.series) -> c.label = label)
          committed.S.series
      with
      | None -> Alcotest.failf "BENCH_figures.json has no %s" label
      | Some c ->
          Alcotest.(check (list (pair (float 0.0) (float 1e-6))))
            (label ^ " as committed") c.points s.points)
    fresh

let cert_ps = [ 2.; 4.; 8.; 16.; 32.; 64.; 128. ]

(* A valid file of [file]'s suite: every expected label over its axis
   (the meta's [axis_key] by default), y from [y label x]. *)
let fixture ?(axis_key = "threads") ?(members = []) file meta y =
  let t = Option.get (S.find file) in
  let axis k =
    List.map float_of_string (String.split_on_char ',' (List.assoc k meta))
  in
  let xs l =
    if String.starts_with ~prefix:"cert_steps:" l then cert_ps
    else if String.starts_with ~prefix:"fig10:" l then axis "sizes"
    else axis axis_key
  in
  ( t,
    {
      S.series =
        List.map
          (fun label ->
            { R.label; points = List.map (fun x -> (x, y label x)) (xs label) })
          (S.labels t meta);
      meta;
      members;
    } )

let contains needle s =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = needle || at (i + 1))
  in
  at 0

(* [good] passes validate and guard; each doctored variant fails with a
   message containing the given text. *)
let guard_cases what (t, good) doctored =
  Alcotest.(check (list string)) (what ^ " valid") [] (S.validate t good);
  Alcotest.(check (list string)) (what ^ " passes") [] (S.guard t good);
  List.iter
    (fun (needle, (t, b)) ->
      Alcotest.(check (list string))
        (what ^ " doctored still valid")
        [] (S.validate t b);
      let v = S.guard t b in
      if not (List.exists (contains needle) v) then
        Alcotest.failf "%s: expected a violation naming %S, got [%s]" what
          needle
          (String.concat "; " v))
    doctored

let prefixed p l = String.starts_with ~prefix:p l

let test_alloc_guards () =
  let meta = [ ("threads", "1,2") ] in
  let alloc ~pooled ~kp =
    fixture "BENCH_alloc.json" meta (fun l _ ->
        if not (prefixed "words_per_op:" l) then 1.0
        else if l = "words_per_op:opt WF (1+2)" then kp
        else if Filename.check_suffix l "pooled" then pooled
        else 34.0)
  in
  guard_cases "alloc" (alloc ~pooled:10.0 ~kp:27.9)
    [
      ("WF fps pooled allocates 34.00", alloc ~pooled:34.0 ~kp:27.9);
      ("28.00 words/op at 1 threads (limit 28)", alloc ~pooled:10.0 ~kp:28.0);
    ]

let test_batch_guard () =
  let meta = [ ("threads", "1,2"); ("sizes", "1,100"); ("batch", "64") ] in
  let figures per_item =
    fixture "BENCH_figures.json" meta (fun l x ->
        if l = "batch:WF fps per-item" && x = 1.0 then per_item
        else if prefixed "fig10:" l then 1.5
        else 1.0)
  in
  guard_cases "figures" (figures 2.0)
    [ ("batch speedup 1.90x < 2x at 1 domain", figures 1.9) ];
  (* without a batch size there are no batch series and nothing to guard *)
  let t, b =
    fixture "BENCH_figures.json"
      [ ("threads", "1,2"); ("sizes", "1,100"); ("batch", "none") ]
      (fun _ _ -> 1.0)
  in
  Alcotest.(check (list string)) "no batch" [] (S.validate t b @ S.guard t b)

let test_ring_guard () =
  let ring ys =
    fixture "BENCH_ring.json" [ ("threads", "1,2,4") ] (fun l x ->
        if l = "words_per_op:WF ring" then List.assoc x ys else 1.0)
  in
  guard_cases "ring"
    (ring [ (1.0, 3.5); (2.0, 3.6); (4.0, 3.69) ])
    [
      ("spread 0.210", ring [ (1.0, 3.5); (2.0, 3.6); (4.0, 3.71) ]);
      ( "3.530 words/op on 1 domain",
        ring [ (1.0, 3.53); (2.0, 3.6); (4.0, 3.6) ] );
    ]

let test_stats_guards () =
  let metric (name, total) =
    Json.Obj [ ("name", Json.Str name); ("total", Json.Num total) ]
  in
  let metrics ~slow ~steals =
    [
      ( "metrics",
        Json.Arr
          (List.map metric
             ([ ("kp_opt12.phase_lag", 0.0); ("fps_slow.slow_entries", slow);
                ("fps_pooled.nodes.reused", 5.0);
                ("registry.acquisitions", 4.0) ]
             @ List.init 4 (fun i ->
                   (Printf.sprintf "shard_rr4.shard%d.steals" i, steals)))) );
    ]
  in
  let stats ?(ratio = 1.0) ?(slow = 3.0) ?(steals = 1.0) () =
    fixture "BENCH_stats.json" ~axis_key:"x1"
      ~members:(metrics ~slow ~steals)
      [ ("x1", "1"); ("overhead_budget", "1.02") ]
      (fun l _ -> if prefixed "overhead_ratio:" l then ratio else 100.0)
  in
  guard_cases "stats" (stats ())
    [
      ("overhead ratio 1.0300 exceeds budget 1.02", stats ~ratio:1.03 ());
      ("slow-path metrics empty", stats ~slow:0.0 ());
      ("no shard steals recorded", stats ~steals:0.0 ());
    ]

let test_sched_guard () =
  let sched zero =
    fixture "BENCH_sched.json" ~axis_key:"domains" [ ("domains", "1,2") ]
      (fun l _ ->
        if l = zero then 0.0 else 5.0)
  in
  guard_cases "sched" (sched "")
    [ ("throughput:ring at 2: 0", sched "throughput:ring") ]

let test_open_loop_guards () =
  let open_loop ?(p999 = 3.0) ?(knee = "none") () =
    fixture "BENCH_latency_openloop.json" ~axis_key:"rates"
      [ ("rates", "2000.,5000."); ("knee", "kp-opt12=none; ring=" ^ knee) ]
      (fun l _ ->
        if l = "sojourn_p999:ring" then p999
        else if contains "_p50:" l then 1.0
        else if contains "_p99:" l then 2.0
        else 3.0)
  in
  guard_cases "open-loop" (open_loop ~knee:"12000" ())
    [
      ("sojourn:ring at 2000: 1/2/1.5", open_loop ~p999:1.5 ());
      ( "ring saturates at 5000 events/s (floor 8000)",
        open_loop ~knee:"5000" () );
    ]

let test_polylog_guard () =
  let polylog growth =
    fixture "BENCH_polylog.json" [ ("threads", "1,2") ] (fun l x ->
        if l = "cert_steps:kp-base" then 43.0 +. (4.0 *. x)
        else if l = "cert_steps:polylog" then 100.0 +. (growth *. Float.log2 x)
        else 1.0)
  in
  guard_cases "polylog" (polylog 71.0)
    [
      ( "polylog's certified bound grows +504 steps, kp-base's +504",
        polylog 84.0 );
    ]

let test_validate_names_shape () =
  let t, good =
    fixture "BENCH_ring.json" [ ("threads", "1,2") ] (fun _ _ -> 1.0)
  in
  let doctor f = S.validate t { good with S.series = f good.S.series } in
  let hd = List.hd good.S.series in
  Alcotest.(check (list string)) "missing" [ "missing series " ^ hd.R.label ]
    (doctor List.tl);
  Alcotest.(check (list string)) "empty" [ "empty series " ^ hd.R.label ]
    (doctor (fun l -> { hd with R.points = [] } :: List.tl l));
  Alcotest.(check (list string)) "duplicate and unexpected"
    [ "duplicate series x"; "unexpected series x"; "unexpected series x" ]
    (doctor (fun l ->
         l @ [ { hd with R.label = "x" }; { hd with R.label = "x" } ]));
  Alcotest.(check (list string)) "axis"
    [ hd.R.label ^ ": x axis 1 is not the meta's threads" ]
    (doctor (fun l -> { hd with R.points = [ (1.0, 1.0) ] } :: List.tl l))

let () =
  Alcotest.run "harness"
    [
      ( "barrier",
        [ Alcotest.test_case "releases all at once" `Quick
            test_barrier_releases_all ] );
      ( "workloads",
        [
          Alcotest.test_case "pairs on every impl" `Quick
            test_pairs_all_impls;
          Alcotest.test_case "p_enq on every impl" `Quick
            test_p_enq_all_impls;
          Alcotest.test_case "conservation check bites" `Quick
            test_pairs_check_catches_broken_queue;
          Alcotest.test_case "repeat collects samples" `Quick
            test_repeat_runs;
          Alcotest.test_case "workload seeds deterministic" `Quick
            test_seed_determinism;
        ] );
      ( "space",
        [
          Alcotest.test_case "footprints scale and compare" `Quick
            test_space_footprint_scales;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables render" `Quick
            test_report_table_renders;
        ] );
      ( "figures",
        [
          Alcotest.test_case "series well-formed" `Slow test_figures_shapes;
          Alcotest.test_case "series labels pinned" `Quick
            test_series_labels;
        ] );
      ( "validator",
        [
          Alcotest.test_case "committed files valid" `Quick
            test_committed_files_valid;
          Alcotest.test_case "shape violations named" `Quick
            test_validate_names_shape;
          Alcotest.test_case "alloc guards" `Quick test_alloc_guards;
          Alcotest.test_case "batch guard" `Quick test_batch_guard;
          Alcotest.test_case "ring guard" `Quick test_ring_guard;
          Alcotest.test_case "stats guards" `Quick test_stats_guards;
          Alcotest.test_case "sched guard" `Quick test_sched_guard;
          Alcotest.test_case "open-loop guards" `Quick test_open_loop_guards;
          Alcotest.test_case "polylog guard" `Quick test_polylog_guard;
          Alcotest.test_case "committed fig10 points current" `Quick
            test_committed_fig10_current;
        ] );
    ]
