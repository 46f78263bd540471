(* The model checker's own test suite: DPOR trace counts pinned against
   hand-computed Mazurkiewicz-trace identities, shrinking, forced-replay
   determinism, and the Explore × Lincheck driver catching seeded bugs.

   Litmus counts are exact: for two straight-line fibers taking s0 and s1
   scheduler slices (shared accesses + one startup slice each),
   exhaustive exploration runs C(s0 + s1, s0) interleavings, while DPOR
   runs one schedule per Mazurkiewicz trace — 1 when the fibers touch
   disjoint cells, C(k1 + k2, k1) when every access conflicts. *)

module S = Wfq_sim.Scheduler
module SA = Wfq_sim.Sim_atomic
module D = Wfq_sim.Dpor
module E = Wfq_sim.Explore
module Sh = Wfq_sim.Shrink
module Ck = Wfq_sim.Check
module H = Wfq_lincheck.History
module Bk = Wfq_core.Backends

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let binom n k =
  let k = min k (n - k) in
  let acc = ref 1.0 in
  for i = 1 to k do
    acc := !acc *. float_of_int (n - k + i) /. float_of_int i
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Litmus programs                                                    *)
(* ------------------------------------------------------------------ *)

(* Store buffering: W x / R y vs W y / R x. Sequential consistency
   forbids both reads returning 0; three Mazurkiewicz traces exist (the
   fourth combination of the two race orders is cyclic). *)
let store_buffering () =
  let x = SA.make 0 and y = SA.make 0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let f0 () =
    SA.set x 1;
    r0 := SA.get y
  in
  let f1 () =
    SA.set y 1;
    r1 := SA.get x
  in
  let check (_ : S.result) =
    if !r0 = 0 && !r1 = 0 then Error "store buffering: r0 = r1 = 0"
    else Ok ()
  in
  ([| f0; f1 |], check)

(* Message passing: W data / W flag vs R flag / R data. Forbidden:
   seeing the flag but not the data. Same dependency shape as store
   buffering: three traces. *)
let message_passing () =
  let data = SA.make 0 and flag = SA.make 0 in
  let rf = ref (-1) and rd = ref (-1) in
  let f0 () =
    SA.set data 1;
    SA.set flag 1
  in
  let f1 () =
    rf := SA.get flag;
    rd := SA.get data
  in
  let check (_ : S.result) =
    if !rf = 1 && !rd = 0 then Error "message passing: flag without data"
    else Ok ()
  in
  ([| f0; f1 |], check)

(* Two fibers on disjoint cells: every interleaving is equivalent. *)
let independent a b () =
  let x = SA.make 0 and y = SA.make 0 in
  let f0 () =
    for _ = 1 to a do
      SA.set x 1
    done
  in
  let f1 () =
    for _ = 1 to b do
      SA.set y 1
    done
  in
  ([| f0; f1 |], fun (_ : S.result) -> Ok ())

(* Two fibers writing the same cell: every interleaving is its own
   trace — C(k1 + k2, k1) of them. *)
let same_loc k1 k2 () =
  let c = SA.make 0 in
  let f0 () =
    for _ = 1 to k1 do
      SA.set c 0
    done
  in
  let f1 () =
    for _ = 1 to k2 do
      SA.set c 1
    done
  in
  ([| f0; f1 |], fun (_ : S.result) -> Ok ())

(* Non-atomic increment: the classic lost update. *)
let racy_counter () =
  let c = SA.make 0 in
  let incr () =
    let v = SA.get c in
    SA.set c (v + 1)
  in
  let check (_ : S.result) =
    if SA.peek c <> 2 then Error "lost increment" else Ok ()
  in
  ([| incr; incr |], check)

(* Atomic increment: correct under every schedule. *)
let faa_counter () =
  let c = SA.make 0 in
  let incr () = ignore (SA.fetch_and_add c 1) in
  let check (_ : S.result) =
    if SA.peek c <> 2 then Error "lost increment" else Ok ()
  in
  ([| incr; incr |], check)

(* ------------------------------------------------------------------ *)
(* Litmus assertions                                                  *)
(* ------------------------------------------------------------------ *)

let run_both make = (D.explore ~make (), E.exhaustive ~max_schedules:1_000 ~make ())

let test_store_buffering () =
  let d, e = run_both store_buffering in
  Alcotest.(check int) "dpor: one schedule per trace" 3 d.D.schedules;
  Alcotest.(check int) "dpor: no redundant executions" 0 d.D.redundant;
  Alcotest.(check bool) "dpor exhausted" true d.D.exhausted;
  Alcotest.(check int) "exhaustive: C(6,3) interleavings" 20 e.E.schedules;
  Alcotest.(check bool) "dpor: SC holds" true (d.D.failure = None);
  Alcotest.(check bool) "exhaustive agrees" true (e.E.failure = None)

let test_message_passing () =
  let d, e = run_both message_passing in
  Alcotest.(check int) "dpor traces" 3 d.D.schedules;
  Alcotest.(check int) "exhaustive interleavings" 20 e.E.schedules;
  Alcotest.(check bool) "dpor: no stale read" true (d.D.failure = None);
  Alcotest.(check bool) "exhaustive agrees" true (e.E.failure = None)

let test_independent_identity () =
  let d, e = run_both (independent 3 3) in
  (* 3 accesses + 1 startup slice per fiber: C(8,4) interleavings, all
     equivalent — the full C(a+b, a) blow-up collapses to 1. *)
  Alcotest.(check int) "exhaustive: C(8,4)" 70 e.E.schedules;
  Alcotest.(check int) "binomial identity"
    (int_of_float (binom 8 4))
    e.E.schedules;
  Alcotest.(check int) "dpor: a single trace" 1 d.D.schedules;
  Alcotest.(check int) "reduction ratio pinned: 70x" 70
    (e.E.schedules / d.D.schedules)

let test_same_loc_counts () =
  let d22 = D.explore ~make:(same_loc 2 2) () in
  let d32 = D.explore ~make:(same_loc 3 2) () in
  Alcotest.(check int) "2x2 writers: C(4,2) traces" 6 d22.D.schedules;
  Alcotest.(check int) "3x2 writers: C(5,2) traces" 10 d32.D.schedules;
  Alcotest.(check bool) "exhausted" true (d22.D.exhausted && d32.D.exhausted)

let test_violation_parity () =
  (* DPOR must find exactly the violations exhaustive finds — present on
     the racy counter, absent on the atomic one. *)
  let d, e = run_both racy_counter in
  (match (d.D.failure, e.E.failure) with
  | Some (_, dm), Some (_, em) ->
      Alcotest.(check string) "same violation" em dm
  | _ -> Alcotest.fail "racy counter: both explorers must fail");
  let d, e = run_both faa_counter in
  Alcotest.(check bool) "faa clean under dpor" true (d.D.failure = None);
  Alcotest.(check bool) "faa clean under exhaustive" true (e.E.failure = None);
  Alcotest.(check int) "faa: 2 traces" 2 d.D.schedules;
  Alcotest.(check int) "faa: 6 interleavings" 6 e.E.schedules

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

(* Fails iff fiber 1 observes a = 1 but b = 0, i.e. its two reads land
   between fiber 0's two writes. The minimal forced schedule is 5
   decisions: run fiber 0 through W a, then fiber 1 through both reads. *)
let window () =
  let a = SA.make 0 and b = SA.make 0 in
  let ra = ref 0 and rb = ref 0 in
  let f0 () =
    SA.set a 1;
    SA.set b 1
  in
  let f1 () =
    ra := SA.get a;
    rb := SA.get b
  in
  let check (_ : S.result) =
    if !ra = 1 && !rb = 0 then Error "a before b" else Ok ()
  in
  ([| f0; f1 |], check)

let test_shrink_minimal () =
  let d = D.explore ~make:window () in
  match d.D.failure with
  | None -> Alcotest.fail "window bug not found"
  | Some (forced, _) ->
      let s = Sh.shrink ~make:window ~forced () in
      Alcotest.(check int) "minimal forced prefix" 5
        (List.length s.Sh.forced);
      Alcotest.(check string) "failure preserved" "a before b" s.Sh.message;
      Alcotest.(check bool) "shrunk from a longer trace" true
        (s.Sh.original_length > List.length s.Sh.forced);
      (* The shrunk prefix must itself replay to the failure. *)
      let fibers, check = window () in
      let r = S.run ~strategy:S.First_enabled ~forced:s.Sh.forced fibers in
      Alcotest.(check bool) "shrunk schedule still fails" true
        (check r = Error "a before b");
      (* Pretty-printer: one line per forced decision with fiber + access. *)
      let out = Format.asprintf "%a" Sh.pp s in
      Alcotest.(check bool) "pp names fibers" true
        (contains_sub out "fiber 1");
      Alcotest.(check bool) "pp shows failure" true
        (contains_sub out "a before b")

let test_shrink_rejects_passing_schedule () =
  Alcotest.check_raises "non-failing schedule rejected"
    (Invalid_argument "Shrink.shrink: the given schedule does not fail")
    (fun () -> ignore (Sh.shrink ~make:window ~forced:[] ()))

(* ------------------------------------------------------------------ *)
(* Forced-replay determinism (the shrinker's core assumption)         *)
(* ------------------------------------------------------------------ *)

let kp_opt_ops = Ck.backend (Bk.find "kp-opt12")

let fps_ops ?fault ~max_failures () =
  Ck.backend
    (Bk.make ~id:"kp-fps" ~label:"kp-fps"
       (Fps { Bk.fps with max_failures; fault }))

let test_replay_determinism () =
  let mfs = ref 0 in
  let make () =
    Ck.make_scenario ~queue:kp_opt_ops
      ~scripts:[ [ `Enq 1 ]; [ `Deq ] ]
      ~init:[] ~max_fiber_steps:mfs ()
  in
  (* Record a random schedule, then replay its decision trace — twice —
     against fresh executions. Outcome, per-fiber step counts and the
     full decision sequence must be identical (cell ids are
     per-execution, so accesses are compared by kind). *)
  let fibers, _ = make () in
  let r0 = S.run ~strategy:(S.Random_seeded 7) fibers in
  let forced = List.map (fun d -> d.S.d_index) r0.S.decisions in
  let key (r : S.result) =
    ( r.S.outcome,
      Array.to_list r.S.steps,
      r.S.total_steps,
      List.map
        (fun d ->
          ( d.S.d_chosen,
            d.S.d_index,
            Option.map (fun (a : S.access) -> a.S.kind) d.S.d_access ))
        r.S.decisions )
  in
  let replay () =
    let fibers, check = make () in
    let r = S.run ~strategy:S.First_enabled ~forced fibers in
    (match check r with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("replayed schedule failed check: " ^ m));
    key r
  in
  Alcotest.(check bool) "replay 1 bit-identical" true (replay () = key r0);
  Alcotest.(check bool) "replay 2 bit-identical" true (replay () = key r0)

(* ------------------------------------------------------------------ *)
(* The pinned acceptance scenario (>= 40 shared accesses)             *)
(* ------------------------------------------------------------------ *)

let test_pinned_kp_scenario () =
  (* Two concurrent slow-path enqueues on the paper's fastest variant:
     41 shared accesses. DPOR covers every trace in ~69k schedules (a
     couple of seconds); the exhaustive interleaving count is
     C(43,21) ~ 5.4e11 — infeasible by six orders of magnitude. *)
  let scripts = [ [ `Enq 1 ]; [ `Enq 2 ] ] in
  let mfs = ref 0 in
  let fibers, check =
    Ck.make_scenario ~queue:kp_opt_ops ~scripts ~init:[]
      ~max_fiber_steps:mfs ()
  in
  let probe = S.run ~strategy:S.First_enabled fibers in
  (match check probe with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("baseline schedule failed: " ^ m));
  let accesses =
    List.length
      (List.filter (fun d -> d.S.d_access <> None) probe.S.decisions)
  in
  Alcotest.(check bool)
    (Printf.sprintf "scenario has >= 40 shared accesses (got %d)" accesses)
    true (accesses >= 40);
  (* Exhaustive infeasibility, from the measured per-fiber slice counts:
     the interleaving count C(s0+s1, s0) dwarfs any schedule budget. *)
  let s0 = probe.S.steps.(0) and s1 = probe.S.steps.(1) in
  let interleavings = binom (s0 + s1) s0 in
  Alcotest.(check bool)
    (Printf.sprintf "exhaustive infeasible: C(%d,%d) = %.3g > 1e9"
       (s0 + s1) s0 interleavings)
    true
    (interleavings > 1e9);
  (* DPOR, by contrast, terminates — with the trace count pinned. *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:200_000 ~queue:kp_opt_ops ~scripts ()
  in
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unexpected failure: %a" Ck.pp_failure f);
  Alcotest.(check bool) "dpor exhausted the trace space" true r.Ck.exhausted;
  Alcotest.(check int) "Mazurkiewicz trace count pinned" 69_363 r.Ck.schedules

(* ------------------------------------------------------------------ *)
(* Seeded bugs through the Explore × Lincheck driver                  *)
(* ------------------------------------------------------------------ *)

(* Seeded mutant: Michael-Scott dequeue with the linearization CAS on
   [head] downgraded to a blind store — the guard that makes two
   concurrent dequeues of the same sentinel impossible, dropped. Two
   racing dequeues then deliver the same element twice. *)
module Ms_blind = struct
  type 'a node = { value : 'a option; next : 'a node option SA.t }
  type 'a t = { head : 'a node SA.t; tail : 'a node SA.t }

  let create ~num_threads:_ =
    let s = { value = None; next = SA.make None } in
    { head = SA.make s; tail = SA.make s }

  let enqueue t ~tid:_ value =
    let node = { value = Some value; next = SA.make None } in
    let rec loop () =
      let last = SA.get t.tail in
      let next = SA.get last.next in
      if last == SA.get t.tail then
        match next with
        | None ->
            if SA.compare_and_set last.next None (Some node) then
              ignore (SA.compare_and_set t.tail last node)
            else loop ()
        | Some n ->
            ignore (SA.compare_and_set t.tail last n);
            loop ()
      else loop ()
    in
    loop ()

  let dequeue t ~tid:_ =
    let rec loop () =
      let first = SA.get t.head in
      let last = SA.get t.tail in
      let next = SA.get first.next in
      if first == SA.get t.head then
        if first == last then
          match next with
          | None -> None
          | Some n ->
              ignore (SA.compare_and_set t.tail last n);
              loop ()
        else
          match next with
          | None -> loop ()
          | Some n ->
              let v = n.value in
              SA.set t.head n;
              (* seeded bug: was [compare_and_set t.head first n] *)
              v
      else loop ()
    in
    loop ()

  let to_list t =
    let rec collect acc node =
      match SA.get node.next with
      | None -> List.rev acc
      | Some n -> (
          match n.value with
          | Some v -> collect (v :: acc) n
          | None -> collect acc n)
    in
    collect [] (SA.get t.head)
end

let ms_blind_ops =
  Ck.queue ~create:Ms_blind.create ~enqueue:Ms_blind.enqueue
    ~dequeue:Ms_blind.dequeue ~contents:Ms_blind.to_list ()

let shrunk_length (f : Ck.failure) =
  match f.Ck.shrunk with
  | Some s -> List.length s.Sh.forced
  | None -> Alcotest.fail "failure arrived unshrunk"

let test_seeded_blind_swing_caught () =
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:10_000 ~init:[ 1; 2 ]
      ~queue:ms_blind_ops
      ~scripts:[ [ `Deq ]; [ `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "dropped CAS guard not caught"
  | Some f ->
      Alcotest.(check bool) "found within a handful of schedules" true
        (r.Ck.schedules <= 10);
      let len = shrunk_length f in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk trace <= 25 decisions (got %d)" len)
        true (len <= 25);
      Alcotest.(check bool) "conservation violation reported" true
        (contains_sub f.Ck.message "conservation")

(* Sim_atomic's location ids count every cell the process has made; a
   printed counterexample must not depend on them. *)
let test_shrunk_trace_text_stable () =
  let print () =
    let r =
      Ck.run ~mode:Ck.Dpor ~max_schedules:10_000 ~init:[ 1; 2 ]
        ~queue:ms_blind_ops
        ~scripts:[ [ `Deq ]; [ `Deq ] ]
        ()
    in
    match r.Ck.failure with
    | None -> Alcotest.fail "dropped CAS guard not caught"
    | Some f -> Format.asprintf "%a" Ck.pp_failure f
  in
  let first = print () in
  ignore
    (Bk.instantiate_with (module SA) (Bk.find "kp-opt12") ~num_threads:2 ());
  let second = print () in
  Alcotest.(check string) "same text after another queue was made" first
    second;
  Alcotest.(check bool) "locations numbered from the first printed" true
    (contains_sub first "#0")

let test_seeded_fast_deq_no_claim_caught () =
  (* The fast/slow handshake bug proper: fast-path dequeues that swing
     [head] without claiming [deq_tid] race a slow dequeue that already
     owns the sentinel into a duplicate delivery. Needs a fast dequeue
     concurrent with a claimed-but-unfinished slow dequeue, so the
     scenario gives fiber 0 two fast dequeues and starves fiber 1 into
     the slow path (max_failures = 1). *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:10_000 ~init:[ 1; 2 ]
      ~queue:
        (fps_ops ~fault:Wfq_core.Kp_queue_fps.Fast_deq_no_claim
           ~max_failures:1 ())
      ~scripts:[ [ `Deq; `Deq ]; [ `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "Fast_deq_no_claim not caught"
  | Some f ->
      Alcotest.(check bool) "found quickly" true (r.Ck.schedules <= 100);
      let len = shrunk_length f in
      (* 34 before PR 4; the epoch-tagged claim protocol added one
         claim-word read per dequeue attempt, lengthening the minimal
         counterexample to 37 decisions. *)
      Alcotest.(check bool)
        (Printf.sprintf "shrunk trace <= 37 decisions (got %d)" len)
        true (len <= 37)

(* The history of a failing schedule, replayed by Check's own scenario
   builder: the pre-filled elements appear as enqueues by the synthetic
   thread (id = number of scripts), so the counterexample's history
   accounts for every delivered element. *)
let test_replay_history_has_init () =
  let queue =
    fps_ops ~fault:Wfq_core.Kp_queue_fps.Fast_deq_no_claim ~max_failures:1 ()
  and scripts = [ [ `Deq; `Deq ]; [ `Deq ] ]
  and init = [ 1; 2 ] in
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:10_000 ~init ~queue ~scripts ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "Fast_deq_no_claim not caught"
  | Some f ->
      let forced =
        match f.Ck.shrunk with Some s -> s.Sh.forced | None -> f.Ck.forced
      in
      let h =
        List.sort
          (fun (a : H.completed) b -> compare a.H.call b.H.call)
          (Ck.history ~queue ~scripts ~init ~forced)
      in
      let by thread =
        List.filter_map
          (fun (c : H.completed) ->
            if c.H.thread = thread then Some (c.H.op, c.H.response) else None)
          h
      in
      Alcotest.(check bool) "synthetic thread enqueued 1 then 2" true
        (by 2 = [ (H.Enq 1, H.Done); (H.Enq 2, H.Done) ]);
      (* the replay reproduces the failure: two elements, three
         deliveries *)
      Alcotest.(check int) "three deliveries" 3
        (List.length
           (List.filter
              (fun (c : H.completed) ->
                match c.H.response with H.Got _ -> true | _ -> false)
              h))

let test_fps_clean_baseline () =
  (* Same scenario shape, no fault: every trace linearizable and
     element-conserving. *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:50_000 ~init:[ 1; 2 ]
      ~queue:(fps_ops ~max_failures:1 ())
      ~scripts:[ [ `Deq ]; [ `Deq ] ]
      ()
  in
  (match r.Ck.failure with
  | None -> ()
  | Some f -> Alcotest.failf "clean queue failed: %a" Ck.pp_failure f);
  Alcotest.(check bool) "exhausted" true r.Ck.exhausted

(* ------------------------------------------------------------------ *)
(* PR 2 stale-helper regression, re-found systematically              *)
(* ------------------------------------------------------------------ *)

let test_stale_helper_refound_by_dpor () =
  (* PR 2's livelock (docs/FASTPATH.md): helpers helping at the caller's
     phase bound instead of the descriptor's own latch onto the helped
     thread's *next* operation. Originally found by random fuzz;
     here DPOR re-finds it by systematic search — no hand-pinned
     schedule — and the shrinker must do at least as well as the
     49-decision trace recorded in docs/FASTPATH.md. *)
  let r =
    Ck.run ~mode:Ck.Dpor ~max_schedules:250_000 ~step_limit:2_000
      ~init:[ 1 ]
      ~queue:
        (fps_ops ~fault:Wfq_core.Kp_queue_fps.Stale_helper_caller_phase
           ~max_failures:0 ())
      ~scripts:[ [ `Deq; `Enq 7 ]; [ `Deq ] ]
      ()
  in
  match r.Ck.failure with
  | None -> Alcotest.fail "stale-helper livelock not re-found by DPOR"
  | Some f ->
      Alcotest.(check bool) "manifests as starvation/livelock" true
        (contains_sub f.Ck.message "step limit");
      let len = shrunk_length f in
      (* docs/FASTPATH.md recorded 49 decisions before PR 4; the
         epoch-tagged claim protocol's extra claim-word read per
         help_deq iteration stretches the minimal trace to 51, and the
         owner's self-link store after a single slow-path dequeue
         (Kp_helping.dequeued_value) to 52. *)
      Alcotest.(check bool)
        (Printf.sprintf
           "shrunk trace <= docs/FASTPATH.md's 52 decisions (got %d)" len)
        true (len <= 52)

let () =
  Alcotest.run "dpor"
    [
      ( "litmus",
        [
          Alcotest.test_case "store buffering" `Quick test_store_buffering;
          Alcotest.test_case "message passing" `Quick test_message_passing;
          Alcotest.test_case "independent fibers: C(a+b,a) -> 1" `Quick
            test_independent_identity;
          Alcotest.test_case "same-loc writers: C(k1+k2,k1)" `Quick
            test_same_loc_counts;
          Alcotest.test_case "violation parity with exhaustive" `Quick
            test_violation_parity;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "delta-debugs to minimal schedule" `Quick
            test_shrink_minimal;
          Alcotest.test_case "rejects passing schedules" `Quick
            test_shrink_rejects_passing_schedule;
          Alcotest.test_case "printed trace independent of earlier cells"
            `Quick test_shrunk_trace_text_stable;
        ] );
      ( "replay",
        [
          Alcotest.test_case "forced replay is deterministic" `Quick
            test_replay_determinism;
        ] );
      ( "kp-pinned",
        [
          Alcotest.test_case "41-access scenario: dpor yes, exhaustive no"
            `Slow test_pinned_kp_scenario;
        ] );
      ( "seeded-bugs",
        [
          Alcotest.test_case "dropped CAS guard (MS mutant)" `Quick
            test_seeded_blind_swing_caught;
          Alcotest.test_case "Fast_deq_no_claim (fps)" `Quick
            test_seeded_fast_deq_no_claim_caught;
          Alcotest.test_case "clean fps baseline" `Quick
            test_fps_clean_baseline;
          Alcotest.test_case "stale-helper livelock re-found" `Slow
            test_stale_helper_refound_by_dpor;
          Alcotest.test_case "replayed history holds the pre-filled elements"
            `Quick test_replay_history_has_init;
        ] );
    ]
