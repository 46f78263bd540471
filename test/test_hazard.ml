(* Tests for the hazard-pointer machinery. *)

module Hp = Wfq_hazard.Hazard.Make (Wfq_primitives.Real_atomic)

type node = { mutable tag : int }

(* What an empty hazard slot holds; never retired. *)
let nil = { tag = 0 }

let test_protect_blocks_free () =
  let freed = ref [] in
  let hp =
    Hp.create ~nil ~scan_threshold:1 ~num_threads:2 ~slots_per_thread:2
      ~free:(fun ~tid:_ n -> freed := n :: !freed)
      ()
  in
  let n = { tag = 1 } in
  Hp.protect hp ~tid:1 ~slot:0 n;
  Hp.retire hp ~tid:0 n;
  (* threshold 1 forces a scan inside retire; n is protected by tid 1 *)
  Alcotest.(check int) "protected node not freed" 0 (List.length !freed);
  Hp.clear hp ~tid:1 ~slot:0;
  Hp.retire hp ~tid:0 { tag = 2 };
  (* the next scan frees both *)
  Alcotest.(check int) "freed after clear" 2 (List.length !freed)

let test_unprotected_freed_immediately () =
  let freed = ref 0 in
  let hp =
    Hp.create ~nil ~scan_threshold:1 ~num_threads:1 ~slots_per_thread:1
      ~free:(fun ~tid:_ _ -> incr freed)
      ()
  in
  for i = 1 to 5 do
    Hp.retire hp ~tid:0 { tag = i }
  done;
  Alcotest.(check int) "all freed at threshold 1" 5 !freed

let test_threshold_defers_scan () =
  let freed = ref 0 in
  let hp =
    Hp.create ~nil ~scan_threshold:10 ~num_threads:1 ~slots_per_thread:1
      ~free:(fun ~tid:_ _ -> incr freed)
      ()
  in
  for i = 1 to 9 do
    Hp.retire hp ~tid:0 { tag = i }
  done;
  Alcotest.(check int) "no scan below threshold" 0 !freed;
  Hp.retire hp ~tid:0 { tag = 10 };
  Alcotest.(check int) "scan at threshold" 10 !freed

let test_extra_hazard_roots () =
  let freed = ref 0 in
  let rooted = ref None in
  let hp =
    Hp.create ~nil ~scan_threshold:1 ~num_threads:1 ~slots_per_thread:1
      ~extra_hazards:(fun () ->
        match !rooted with Some n -> [ n ] | None -> [])
      ~free:(fun ~tid:_ _ -> incr freed)
      ()
  in
  let n = { tag = 1 } in
  rooted := Some n;
  Hp.retire hp ~tid:0 n;
  Alcotest.(check int) "root-referenced node kept" 0 !freed;
  rooted := None;
  Hp.retire hp ~tid:0 { tag = 2 };
  Alcotest.(check int) "freed once unrooted" 2 !freed

let test_protect_read_validates () =
  let hp =
    Hp.create ~nil ~num_threads:1 ~slots_per_thread:1
      ~free:(fun ~tid:_ _ -> ())
      ()
  in
  let source = Atomic.make { tag = 1 } in
  let v = Hp.protect_read hp ~tid:0 ~slot:0 (fun () -> Atomic.get source) in
  Alcotest.(check int) "protected the current node" 1 v.tag;
  Atomic.set source nil;
  let v2 = Hp.protect_read hp ~tid:0 ~slot:0 (fun () -> Atomic.get source) in
  Alcotest.(check bool) "nil source yields nil" true (v2 == nil)

let test_stats_and_flush () =
  let hp =
    Hp.create ~nil ~scan_threshold:100 ~num_threads:2 ~slots_per_thread:1
      ~free:(fun ~tid:_ _ -> ())
      ()
  in
  for i = 1 to 7 do
    Hp.retire hp ~tid:0 { tag = i }
  done;
  let s = Hp.stats hp in
  Alcotest.(check int) "retired counted" 7 s.Hp.retired;
  Alcotest.(check int) "nothing freed yet" 0 s.Hp.freed;
  Alcotest.(check int) "pending" 7 s.Hp.still_pending;
  Hp.flush hp;
  let s2 = Hp.stats hp in
  Alcotest.(check int) "flush frees all" 7 s2.Hp.freed;
  Alcotest.(check int) "no pending" 0 s2.Hp.still_pending

let test_create_validation () =
  Alcotest.check_raises "num_threads"
    (Invalid_argument "Hazard.create: num_threads") (fun () ->
      ignore
        (Hp.create ~nil ~num_threads:0 ~slots_per_thread:1
           ~free:(fun ~tid:_ (_ : node) -> ())
           ()))

(* -------------------- cross-domain integration ------------------- *)

let test_hazard_cross_domain_stress () =
  (* A shared cell of nodes: writers publish new nodes and retire the old
     ones; readers protect-read and then dereference, verifying the node
     was not recycled under them (its tag must still be valid). *)
  let pool_hits = Atomic.make 0 in
  let corruption = Atomic.make 0 in
  let num_threads = 4 in
  let hp =
    Hp.create ~nil ~scan_threshold:4 ~num_threads ~slots_per_thread:1
      ~free:(fun ~tid:_ n ->
        n.tag <- -1;
        (* poison: any reader still holding it would see -1 *)
        Atomic.incr pool_hits)
      ()
  in
  let cell = Atomic.make { tag = 1 } in
  let writer tid () =
    for i = 1 to 3_000 do
      let fresh = { tag = (tid * 100_000) + i } in
      Hp.retire hp ~tid (Atomic.exchange cell fresh)
    done
  in
  let reader tid () =
    for _ = 1 to 3_000 do
      let n = Hp.protect_read hp ~tid ~slot:0 (fun () -> Atomic.get cell) in
      if n.tag < 0 then Atomic.incr corruption;
      Hp.clear hp ~tid ~slot:0
    done
  in
  let domains =
    [
      Domain.spawn (writer 0); Domain.spawn (writer 1);
      Domain.spawn (reader 2); Domain.spawn (reader 3);
    ]
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no protected node was poisoned" 0
    (Atomic.get corruption);
  Alcotest.(check bool) "reclamation actually happened" true
    (Atomic.get pool_hits > 0)

let () =
  Alcotest.run "hazard"
    [
      ( "hazard-pointers",
        [
          Alcotest.test_case "protect blocks free" `Quick
            test_protect_blocks_free;
          Alcotest.test_case "unprotected freed" `Quick
            test_unprotected_freed_immediately;
          Alcotest.test_case "threshold defers scan" `Quick
            test_threshold_defers_scan;
          Alcotest.test_case "extra hazard roots" `Quick
            test_extra_hazard_roots;
          Alcotest.test_case "protect_read validates" `Quick
            test_protect_read_validates;
          Alcotest.test_case "stats and flush" `Quick test_stats_and_flush;
          Alcotest.test_case "create validation" `Quick
            test_create_validation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cross-domain protect/retire stress" `Quick
            test_hazard_cross_domain_stress;
        ] );
    ]
