(* Unit and property tests for the primitives layer: RNG, backoff,
   statistics, padded atomics, records that are their own cell
   ([embed]/[first]) and records with an atomic int field
   ([get_int_field] and its kin) on every plane, and the Real_atomic
   wrapper, and where the queues' hot cells land in the heap. *)

module Rng = Wfq_primitives.Rng
module Backoff = Wfq_primitives.Backoff
module Stats = Wfq_primitives.Stats
module A = Wfq_primitives.Real_atomic

(* ---------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check int) "independent streams" 0 !same

let test_rng_split_for () =
  let a = Rng.split_for ~seed:9 ~tid:0 and b = Rng.split_for ~seed:9 ~tid:1 in
  Alcotest.(check bool) "per-thread streams differ" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_below_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.below r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bool_balanced () =
  let r = Rng.create ~seed:77 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fair coin (%.3f)" ratio)
    true
    (ratio > 0.47 && ratio < 0.53)

let test_rng_float_range () =
  let r = Rng.create ~seed:31 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_below_invalid () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.below: bound must be positive") (fun () ->
      ignore (Rng.below r 0))

(* --------------------------- Backoff ---------------------------- *)

let test_backoff_growth () =
  let b = Backoff.create ~min_spins:4 ~max_spins:64 () in
  Alcotest.(check int) "starts at min" 4 (Backoff.current_spins b);
  Backoff.once b;
  Alcotest.(check int) "doubles" 8 (Backoff.current_spins b);
  Backoff.once b;
  Backoff.once b;
  Backoff.once b;
  Alcotest.(check int) "caps at max" 64 (Backoff.current_spins b);
  Backoff.once b;
  Alcotest.(check int) "stays at max" 64 (Backoff.current_spins b);
  Backoff.reset b;
  Alcotest.(check int) "reset to min" 4 (Backoff.current_spins b)

(* Pin the full cap/growth schedule (the satellite contract for the
   Domain.cpu_relax spin body): doubling from min, saturating exactly at
   max, including a non-power-of-two cap, plus the library defaults. *)
let test_backoff_schedule () =
  let schedule b n =
    List.init n (fun _ ->
        let s = Backoff.current_spins b in
        Backoff.once b;
        s)
  in
  let b = Backoff.create ~min_spins:4 ~max_spins:64 () in
  Alcotest.(check (list int))
    "doubling schedule, saturated at the cap"
    [ 4; 8; 16; 32; 64; 64; 64 ]
    (schedule b 7);
  (* A cap off the doubling ladder is still a true ceiling. *)
  let b = Backoff.create ~min_spins:3 ~max_spins:10 () in
  Alcotest.(check (list int)) "cap off the doubling ladder" [ 3; 6; 10; 10 ]
    (schedule b 4);
  Alcotest.(check int) "default min is 16" 16 Backoff.default_min;
  Alcotest.(check int) "default max is 4096" 4096 Backoff.default_max;
  let b = Backoff.create () in
  Alcotest.(check int) "defaults start at min" 16 (Backoff.current_spins b);
  Backoff.once b;
  Backoff.reset b;
  Alcotest.(check int) "reset returns to min" 16 (Backoff.current_spins b)

let test_backoff_validation () =
  Alcotest.check_raises "min must be positive"
    (Invalid_argument "Backoff.create: min_spins must be > 0") (fun () ->
      ignore (Backoff.create ~min_spins:0 ~max_spins:8 ()));
  Alcotest.check_raises "max >= min"
    (Invalid_argument "Backoff.create: max_spins must be >= min_spins")
    (fun () -> ignore (Backoff.create ~min_spins:16 ~max_spins:8 ()))

(* ---------------------------- Stats ----------------------------- *)

let feq = Alcotest.float 1e-9

let test_stats_mean_stddev () =
  Alcotest.check feq "mean" 3.0 (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.check feq "stddev (sample)"
    (sqrt 2.5)
    (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.check feq "stddev of singleton" 0.0 (Stats.stddev [ 42.0 ]);
  Alcotest.check feq "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.check feq "p99" 99.0 (Stats.percentile xs 99.0);
  Alcotest.check feq "p100" 100.0 (Stats.percentile xs 100.0);
  Alcotest.check feq "median alias" (Stats.percentile xs 50.0)
    (Stats.median xs)

(* Nearest-rank pins at the boundary sizes the latency harness hits:
   a single sample answers every percentile, and at n=100 the rank
   arithmetic must not off-by-one around p=99.9 (ceil(99.9) = 100 ->
   the top sample, not past the end). *)
let test_stats_nearest_rank_pins () =
  Alcotest.check feq "n=1 p0" 7.0 (Stats.percentile [ 7.0 ] 0.0);
  Alcotest.check feq "n=1 p50" 7.0 (Stats.percentile [ 7.0 ] 50.0);
  Alcotest.check feq "n=1 p99.9" 7.0 (Stats.percentile [ 7.0 ] 99.9);
  Alcotest.check feq "n=1 p100" 7.0 (Stats.percentile [ 7.0 ] 100.0);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "n=100 p1" 1.0 (Stats.percentile xs 1.0);
  Alcotest.check feq "n=100 p99.9" 100.0 (Stats.percentile xs 99.9);
  (* p=0 has rank 0; nearest-rank clamps to the smallest sample *)
  Alcotest.check feq "n=100 p0" 1.0 (Stats.percentile xs 0.0)

let test_stats_percentile_validation () =
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [ 1.0 ] 100.1));
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [ 1.0 ] (-1.0)));
  (* NaN defeats sorting: it must raise, never park silently in a rank *)
  Alcotest.check_raises "NaN sample rejected"
    (Invalid_argument "Stats.percentile_in_place: NaN sample at index 1")
    (fun () -> ignore (Stats.percentile_in_place [| 1.0; Float.nan |] 50.0))

let test_stats_in_place () =
  let arr = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check feq "median via in-place sort" 3.0
    (Stats.percentile_in_place arr 50.0);
  (* the in-place contract: the array is now sorted ascending *)
  Alcotest.(check (array (float 0.0)))
    "array sorted in place"
    [| 1.0; 2.0; 3.0; 4.0; 5.0 |]
    arr;
  let arr = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  (match Stats.percentiles_in_place arr [ 50.0; 99.0; 99.9; 100.0 ] with
  | [ p50; p99; p999; p100 ] ->
      Alcotest.check feq "batch p50" 499.0 p50;
      Alcotest.check feq "batch p99" 989.0 p99;
      Alcotest.check feq "batch p99.9" 998.0 p999;
      Alcotest.check feq "batch p100" 999.0 p100
  | _ -> Alcotest.fail "percentiles_in_place arity");
  Alcotest.check_raises "empty array rejected"
    (Invalid_argument "Stats.percentile_in_place: empty") (fun () ->
      ignore (Stats.percentile_in_place [||] 50.0))

let test_stats_empty () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let stats_mean_bounds =
  QCheck2.Test.make ~name:"mean between min and max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

(* ------------------------- make_padded -------------------------- *)

let test_padded_ops () =
  let p = A.make_padded 10 in
  Alcotest.(check int) "get" 10 (A.get p);
  A.set p 20;
  Alcotest.(check int) "set" 20 (A.get p);
  Alcotest.(check bool) "cas ok" true (A.compare_and_set p 20 30);
  Alcotest.(check bool) "cas stale fails" false (A.compare_and_set p 20 40);
  Alcotest.(check int) "exchange returns old" 30 (A.exchange p 7);
  Alcotest.(check int) "faa returns old" 7 (A.fetch_and_add p 5);
  Alcotest.(check int) "faa applied" 12 (A.get p);
  let r = A.make_padded [ 1 ] and l = [ 2 ] in
  Alcotest.(check bool) "cas on a pointer" true
    (A.compare_and_set r (A.get r) l);
  Gc.full_major ();
  Alcotest.(check bool) "pointer survives promotion" true (A.get r == l)

(* The address of a heap block. Read only after [Gc.full_major ()] has
   promoted everything: OCaml 5.1 does not compact, so a major block
   stays put. *)
let address c = 2 * (Obj.magic c : int)

(* Every pair of [cells] that [must] selects (all of them by default)
   at least a cache line apart, with a message naming the pair. *)
let check_apart ?(must = fun _ _ -> true) what cells =
  Gc.full_major ();
  let a = Array.of_list (List.map (fun (name, c) -> (name, address c)) cells) in
  Array.iteri
    (fun i (ni, ai) ->
      Array.iteri
        (fun j (nj, aj) ->
          if i < j && must ni nj then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s and %s %d bytes apart" what ni nj
                 (abs (ai - aj)))
              true
              (abs (ai - aj) >= 64))
        a)
    a

let test_padded_apart () =
  let cells =
    List.concat_map
      (fun i ->
        let plain = A.make i in
        [ (Printf.sprintf "padded %d" i, Obj.repr (A.make_padded i));
          (Printf.sprintf "plain %d" i, Obj.repr plain) ])
      [ 0; 1; 2; 3 ]
  in
  (* Plain cells pack 16 bytes apart; a pair with a padded cell in it
     must be a line apart. *)
  let padded = String.starts_with ~prefix:"padded" in
  check_apart ~must:(fun a b -> padded a || padded b) "make_padded" cells

(* The cells more than one domain writes on a queue's hot path. *)
module Kp = Wfq_core.Kp_queue.Make (A)
module Ring = Wfq_core.Ring_queue.Make (A)
module Pool = Wfq_primitives.Segment_pool.Make (A)

let test_hot_cells_apart () =
  let kp =
    Kp.create_with ~help:Wfq_core.Kp_queue.Help_one_cyclic
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:2 ()
  in
  Kp.enqueue kp ~tid:0 1;
  ignore (Kp.dequeue kp ~tid:1);
  check_apart "kp-opt12"
    (List.combine
       [ "head"; "tail"; "phase counter"; "state 0"; "state 1" ]
       (Kp.hot_cells kp));
  let ring = Ring.create ~num_threads:2 () in
  check_apart "ring"
    (List.combine
       [ "head"; "tail"; "slow_pending"; "phase counter"; "slot 0";
         "slot 1"; "state 0"; "state 1" ]
       (Ring.Probe.hot_cells ring));
  let clock = Pool.Clock.create ~num_threads:2 in
  check_apart "pool clock"
    (List.combine [ "global"; "local 0"; "local 1" ] (Pool.Clock.cells clock))

(* Plain words that one domain writes on an operation path. A word is
   a block and a field index, at the block's address plus 8 bytes a
   field; [words] gives each a name and its writer. *)
let word_address (block, i) = address block + (8 * i)

(* Two writers' words at least a cache line apart. *)
let check_words what words =
  Gc.full_major ();
  let a =
    Array.of_list
      (List.map (fun (name, writer, w) -> (name, writer, word_address w)) words)
  in
  Array.iteri
    (fun i (ni, wi, ai) ->
      Array.iteri
        (fun j (nj, wj, aj) ->
          if i < j && wi <> wj then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s and %s %d bytes apart" what ni nj
                 (abs (ai - aj)))
              true
              (abs (ai - aj) >= 64))
        a)
    a

(* Every word of an array a cache line past the array's header, so the
   block the heap placed before the array cannot share its line. *)
let check_headers what words =
  Gc.full_major ();
  List.iter
    (fun (name, _, ((block, _) as w)) ->
      let d = word_address w - (address block - 8) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %d bytes past its header" what name d)
        true (d >= 64))
    words

(* A probe's per-tid words, named [field tid] and written by [tid]. *)
let per_tid fields probe =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun tid ws ->
            List.map2
              (fun f w -> (Printf.sprintf "%s %d" f tid, tid, w))
              fields ws)
          probe))

module Shard = Wfq_shard.Shard.Make (A)
module Hazard = Wfq_hazard.Hazard.Make (A)

module Sched =
  Wfq_sched.Sched.Make (A)
    (Wfq_sched.Sched.Rq_of ((val Wfq_core.Backends.find "kp-opt12")) (A))

let test_tid_words_apart () =
  let kp =
    Kp.create_with ~help:Wfq_core.Kp_queue.Help_one_cyclic
      ~phase:Wfq_core.Kp_queue.Phase_counter ~num_threads:2 ()
  in
  Kp.enqueue kp ~tid:0 1;
  ignore (Kp.dequeue kp ~tid:1);
  let cursors = per_tid [ "cursor" ] (Kp.tid_words kp) in
  check_words "kp-opt12" cursors;
  check_headers "kp-opt12" cursors;
  let ring = Ring.create ~num_threads:2 () in
  let cursors = per_tid [ "cursor" ] (Ring.Probe.tid_words ring) in
  check_words "ring" cursors;
  check_headers "ring" cursors;
  let shard = Shard.create ~shards:2 ~num_threads:2 () in
  Shard.enqueue shard ~tid:0 1;
  ignore (Shard.dequeue shard ~tid:1);
  let probes =
    per_tid
      [ "last enq shard"; "last deq shard"; "last enq batch calls";
        "last deq batch calls" ]
      (Shard.tid_words shard)
  in
  check_words "shard" probes;
  check_headers "shard" probes;
  let pool =
    Pool.create ~num_threads:2 ~fresh:(fun () -> ref 0) ~reset:ignore ()
  in
  Pool.release pool ~tid:0 (Pool.alloc pool ~tid:1);
  check_words "pool"
    (per_tid
       [ "free"; "free_len"; "fresh_len"; "ring"; "stamps"; "q_head";
         "quarantine_len" ]
       (Pool.slot_words pool));
  let hazard =
    Hazard.create ~nil:(ref 0) ~num_threads:2 ~slots_per_thread:2
      ~free:(fun ~tid:_ _ -> ())
      ()
  in
  check_words "hazard"
    (per_tid
       [ "slots"; "retired"; "retired_count"; "freed_total"; "retired_total";
         "hazard slot 0"; "hazard slot 1" ]
       (Hazard.tid_words hazard));
  let sched = Sched.create ~num_workers:2 () in
  let counters =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun w ws ->
              List.mapi
                (fun k c -> (Printf.sprintf "counter %d of worker %d" k w, w, c))
                ws)
            (Sched.tid_words sched)))
  in
  let outstanding =
    List.map (fun c -> ("outstanding", -1, (c, 0))) (Sched.hot_cells sched)
  in
  check_words "sched" (outstanding @ counters);
  check_headers "sched" counters

(* ------------------------ embed / first ------------------------- *)

(* A record that is its own cell: [c], an embedded cell of any plane,
   in field 0, and plain fields after it that no access through [first]
   may touch. *)
type 'e self_cell = {
  mutable c : 'e;
  tag : int;
  mutable name : string;
  mutable more : int list;
}

(* A record whose cell holds a record of its own type, such as a list
   node whose [next] is itself. *)
type knot = { mutable k : knot A.embedded; ktag : int }

let check_fields r =
  Alcotest.(check int) "field 1 kept" 7 r.tag;
  Alcotest.(check string) "field 2 kept" "seven" r.name;
  Alcotest.(check (list int)) "field 3 kept" [ 7; 8 ] r.more

let test_first_ops () =
  let r = { c = A.embed 10; tag = 7; name = "seven"; more = [ 7; 8 ] } in
  let cell = A.first r in
  Alcotest.(check int) "get" 10 (A.get cell);
  A.set cell 20;
  Alcotest.(check int) "set" 20 (A.get (A.first r));
  Alcotest.(check bool) "cas ok" true (A.compare_and_set cell 20 30);
  Alcotest.(check bool) "cas stale fails" false (A.compare_and_set cell 20 40);
  Alcotest.(check int) "exchange returns old" 30 (A.exchange cell 5);
  Alcotest.(check int) "faa returns old" 5 (A.fetch_and_add cell 2);
  Alcotest.(check int) "faa applied" 7 (A.get cell);
  check_fields r;
  (* The cyclic constructor: field 0 holds the record itself. *)
  let knot = A.embed_cyclic (fun k -> { k; ktag = 7 }) in
  Alcotest.(check bool) "cyclic: the cell holds its record" true
    (A.get (A.first knot) == knot);
  Alcotest.(check int) "cyclic: field 1 kept" 7 knot.ktag

(* A young value written into a promoted record through [first] must
   be seen by the minor collection (the write barrier's remembered
   set), and must survive the major collector and compaction. *)
let test_first_gc () =
  let young i = [ Sys.opaque_identity i; i + 1 ] in
  let r = { c = A.embed (young 0); tag = 7; name = "seven"; more = [ 7; 8 ] } in
  Gc.full_major ();
  let cell = A.first r in
  A.set cell (young 1);
  Gc.minor ();
  (* Reuse the minor heap, so a value the collection missed is gone. *)
  ignore (Sys.opaque_identity (List.init 10_000 young));
  Alcotest.(check (list int)) "set survives a minor GC" [ 1; 2 ] (A.get cell);
  Gc.full_major ();
  let seen = A.get cell in
  Alcotest.(check bool) "cas of a young value" true
    (A.compare_and_set cell seen (young 2));
  Gc.minor ();
  Gc.full_major ();
  Gc.compact ();
  Alcotest.(check (list int)) "cas survives full_major and compact" [ 2; 3 ]
    (A.get (A.first r));
  Alcotest.(check (list int)) "exchange returns the old value" [ 2; 3 ]
    (A.exchange (A.first r) (young 3));
  Gc.full_major ();
  Gc.compact ();
  Alcotest.(check (list int)) "exchange survives full_major and compact"
    [ 3; 4 ] (A.get (A.first r));
  check_fields r

module SA = Wfq_sim.Sim_atomic

type sim_knot = { mutable sc : sim_knot SA.embedded; stag : int }

(* The shared accesses [f] announces to the scheduler, in order. *)
let accesses f =
  let log = ref [] in
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type b) (e : b Effect.t) ->
          match e with
          | Wfq_sim.Scheduler.Yield_access a ->
              Some
                (fun (k : (b, _) Effect.Deep.continuation) ->
                  log := a :: !log;
                  Effect.Deep.continue k ())
          | _ -> None);
    };
  List.rev !log

let test_first_sim () =
  let r = { c = SA.embed 1; tag = 7; name = "seven"; more = [ 7; 8 ] } in
  let loc = SA.loc_id (SA.first r) in
  Alcotest.(check int) "loc_id stable across [first] calls" loc
    (SA.loc_id (SA.first r));
  let log =
    accesses (fun () ->
        ignore (SA.get (SA.first r));
        SA.set (SA.first r) 2;
        ignore (SA.compare_and_set (SA.first r) 2 3);
        ignore (SA.compare_and_set (SA.first r) 2 4);
        ignore (SA.exchange (SA.first r) 5);
        ignore (SA.fetch_and_add (SA.first r) 1))
  in
  let module S = Wfq_sim.Scheduler in
  Alcotest.(check (list string))
    "one step per access, each at the cell's location"
    (List.map
       (fun kind -> Format.asprintf "%a" S.pp_access { S.loc; kind })
       [ S.Read; S.Write; S.Rmw; S.Rmw; S.Rmw; S.Rmw ])
    (List.map (Format.asprintf "%a" S.pp_access) log);
  Alcotest.(check int) "value" 6 (SA.peek (SA.first r));
  check_fields r;
  (* Building a record, cyclic or not, is no step. *)
  let log =
    accesses (fun () ->
        ignore { c = SA.embed 0; tag = 0; name = ""; more = [] };
        ignore (SA.embed_cyclic (fun sc -> { sc; stag = 0 })))
  in
  Alcotest.(check int) "construction takes no step" 0 (List.length log);
  let cyc = SA.embed_cyclic (fun sc -> { sc; stag = 7 }) in
  Alcotest.(check bool) "cyclic: the cell holds its record" true
    (SA.peek (SA.first cyc) == cyc)

module CA = Wfq_primitives.Counted_atomic.Make (A)

type counted_knot = { mutable cc : counted_knot CA.embedded; ctag : int }

let test_first_counted () =
  let ops cell =
    CA.reset ();
    ignore (CA.get cell);
    CA.set cell 2;
    ignore (CA.compare_and_set cell 2 3);
    ignore (CA.compare_and_set cell 2 4);
    ignore (CA.exchange cell 5);
    ignore (CA.fetch_and_add cell 1);
    CA.snapshot ()
  in
  let of_make = ops (CA.make 1) in
  CA.reset ();
  let r = { c = CA.embed 1; tag = 7; name = "seven"; more = [ 7; 8 ] } in
  ignore (CA.embed_cyclic (fun cc -> { cc; ctag = 0 }));
  Alcotest.(check int) "construction is not counted" 0
    (Wfq_primitives.Counted_atomic.total (CA.snapshot ()));
  let of_first = ops (CA.first r) in
  Alcotest.(check string) "counted as a [make] cell"
    (Format.asprintf "%a" Wfq_primitives.Counted_atomic.pp of_make)
    (Format.asprintf "%a" Wfq_primitives.Counted_atomic.pp of_first);
  Alcotest.(check int) "value" 6 (CA.get (CA.first r));
  check_fields r

(* ------------------------- int fields --------------------------- *)

(* A record with an embedded int in field 2, between plain fields that
   no int-field access may touch. *)
type 'e int_field = {
  mutable f0 : string;
  f1 : int;
  mutable w : 'e;
  mutable f3 : int list;
}

let w_field = 2

let check_int_field_others r =
  Alcotest.(check string) "field 0 kept" "zero" r.f0;
  Alcotest.(check int) "field 1 kept" 1 r.f1;
  Alcotest.(check (list int)) "field 3 kept" [ 3; 4 ] r.f3

let test_int_field_ops () =
  let r = { f0 = "zero"; f1 = 1; w = A.embed 10; f3 = [ 3; 4 ] } in
  Alcotest.(check int) "get" 10 (A.get_int_field r w_field);
  A.set_int_field r w_field 20;
  Alcotest.(check int) "set" 20 (A.get_int_field r w_field);
  Alcotest.(check bool) "cas ok" true (A.cas_int_field r w_field 20 30);
  Alcotest.(check bool) "cas stale fails" false
    (A.cas_int_field r w_field 20 40);
  Alcotest.(check int) "stale cas stores nothing" 30
    (A.get_int_field r w_field);
  (* Epoch-tagged claim words span the whole int range. *)
  List.iter
    (fun v ->
      A.set_int_field r w_field v;
      Alcotest.(check int) "extreme value" v (A.get_int_field r w_field))
    [ -1; min_int; max_int ];
  check_int_field_others r;
  (* Two domains racing CAS increments lose none of them. *)
  let n = 10_000 in
  A.set_int_field r w_field 0;
  let incr () =
    for _ = 1 to n do
      let rec go () =
        let v = A.get_int_field r w_field in
        if not (A.cas_int_field r w_field v (v + 1)) then go ()
      in
      go ()
    done
  in
  let d = Domain.spawn incr in
  incr ();
  Domain.join d;
  Alcotest.(check int) "no lost CAS increment" (2 * n)
    (A.get_int_field r w_field);
  check_int_field_others r

(* The field is written in place, so a promoted record and a compacted
   heap keep the value and every other field. *)
let test_int_field_gc () =
  let r = { f0 = "zero"; f1 = 1; w = A.embed 5; f3 = [ 3; 4 ] } in
  Gc.full_major ();
  Alcotest.(check int) "survives full_major" 5 (A.get_int_field r w_field);
  A.set_int_field r w_field 6;
  Alcotest.(check bool) "cas on a promoted record" true
    (A.cas_int_field r w_field 6 7);
  Gc.full_major ();
  Gc.compact ();
  Alcotest.(check int) "survives full_major and compact" 7
    (A.get_int_field r w_field);
  check_int_field_others r

let test_int_field_sim () =
  let before = SA.make 0 in
  let r = { f0 = "zero"; f1 = 1; w = SA.embed 1; f3 = [ 3; 4 ] } in
  let log =
    accesses (fun () ->
        ignore (SA.get_int_field r w_field);
        SA.set_int_field r w_field 2;
        ignore (SA.cas_int_field r w_field 2 3);
        ignore (SA.cas_int_field r w_field 2 4))
  in
  (* [embed] allocates the field's cell like [make]: the next location. *)
  let loc = SA.loc_id before + 1 in
  let module S = Wfq_sim.Scheduler in
  Alcotest.(check (list string))
    "one step per access, each at the field's location"
    (List.map
       (fun kind -> Format.asprintf "%a" S.pp_access { S.loc; kind })
       [ S.Read; S.Write; S.Rmw; S.Rmw ])
    (List.map (Format.asprintf "%a" S.pp_access) log);
  let log = accesses (fun () -> ignore { r with w = SA.embed 0 }) in
  Alcotest.(check int) "construction takes no step" 0 (List.length log);
  check_int_field_others r

let test_int_field_counted () =
  let snapshot f =
    CA.reset ();
    f ();
    Format.asprintf "%a" Wfq_primitives.Counted_atomic.pp (CA.snapshot ())
  in
  let cell = CA.make 1 in
  let of_make =
    snapshot (fun () ->
        ignore (CA.get cell);
        CA.set cell 2;
        ignore (CA.compare_and_set cell 2 3);
        ignore (CA.compare_and_set cell 2 4))
  in
  let r = { f0 = "zero"; f1 = 1; w = CA.embed 1; f3 = [ 3; 4 ] } in
  let of_field =
    snapshot (fun () ->
        ignore (CA.get_int_field r w_field);
        CA.set_int_field r w_field 2;
        ignore (CA.cas_int_field r w_field 2 3);
        ignore (CA.cas_int_field r w_field 2 4))
  in
  Alcotest.(check string) "counted as a [make] cell" of_make of_field;
  Alcotest.(check int) "value" 3 (CA.get_int_field r w_field);
  check_int_field_others r

(* The plain accessors read and write the field's value on every
   plane, and are no shared-memory operation on any: no simulator
   step, no counted access. *)
let test_int_field_plain () =
  let r = { f0 = "zero"; f1 = 1; w = A.embed 10; f3 = [ 3; 4 ] } in
  Alcotest.(check int) "real: peek" 10 (A.peek_int_field r w_field);
  A.init_int_field r w_field 11;
  Alcotest.(check int) "real: init seen by an atomic read" 11
    (A.get_int_field r w_field);
  A.set_int_field r w_field max_int;
  Alcotest.(check int) "real: peek sees an atomic write" max_int
    (A.peek_int_field r w_field);
  check_int_field_others r;
  let r = { f0 = "zero"; f1 = 1; w = SA.embed 20; f3 = [ 3; 4 ] } in
  let log =
    accesses (fun () ->
        Alcotest.(check int) "sim: peek" 20 (SA.peek_int_field r w_field);
        SA.init_int_field r w_field 21)
  in
  Alcotest.(check int) "sim: no step" 0 (List.length log);
  let seen = ref 0 in
  let log = accesses (fun () -> seen := SA.get_int_field r w_field) in
  Alcotest.(check int) "sim: init seen by an atomic read" 21 !seen;
  Alcotest.(check int) "sim: the atomic read is one step" 1
    (List.length log);
  check_int_field_others r;
  let r = { f0 = "zero"; f1 = 1; w = CA.embed 30; f3 = [ 3; 4 ] } in
  CA.reset ();
  Alcotest.(check int) "counted: peek" 30 (CA.peek_int_field r w_field);
  CA.init_int_field r w_field 31;
  Alcotest.(check int) "counted: not counted" 0
    (Wfq_primitives.Counted_atomic.total (CA.snapshot ()));
  Alcotest.(check int) "counted: init" 31 (CA.get_int_field r w_field);
  check_int_field_others r

(* ------------------------- Real_atomic -------------------------- *)

let test_real_atomic_physical_cas () =
  (* Reference CAS is physical: a structurally equal but distinct record
     must NOT match — the property the KP descriptors depend on. *)
  let mk () = ref 1 in
  let a = mk () and b = mk () in
  let cell = A.make a in
  Alcotest.(check bool) "distinct but equal value fails" false
    (A.compare_and_set cell b a);
  Alcotest.(check bool) "same box succeeds" true (A.compare_and_set cell a b);
  Alcotest.(check bool) "now holds b" true (A.get cell == b)

let test_real_atomic_exchange () =
  let cell = A.make "x" in
  Alcotest.(check string) "old returned" "x" (A.exchange cell "y");
  Alcotest.(check string) "new stored" "y" (A.get cell)

let test_real_atomic_parallel_faa () =
  (* fetch_and_add from several domains: total must be exact. *)
  let cell = A.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              ignore (A.fetch_and_add cell 1)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" 40_000 (A.get cell)

let () =
  Alcotest.run "primitives"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_rng_deterministic;
          Alcotest.test_case "seeds independent" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split_for per thread" `Quick test_rng_split_for;
          Alcotest.test_case "below in range" `Quick test_rng_below_range;
          Alcotest.test_case "bool is fair" `Quick test_rng_bool_balanced;
          Alcotest.test_case "float in [0,1)" `Quick test_rng_float_range;
          Alcotest.test_case "below rejects 0" `Quick test_rng_below_invalid;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "exponential growth and reset" `Quick
            test_backoff_growth;
          Alcotest.test_case "full cap/growth schedule" `Quick
            test_backoff_schedule;
          Alcotest.test_case "argument validation" `Quick
            test_backoff_validation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev/min/max" `Quick
            test_stats_mean_stddev;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "nearest-rank pins (n=1, n=100, p=99.9)" `Quick
            test_stats_nearest_rank_pins;
          Alcotest.test_case "range and NaN validation" `Quick
            test_stats_percentile_validation;
          Alcotest.test_case "in-place percentiles" `Quick
            test_stats_in_place;
          Alcotest.test_case "empty input rejected" `Quick test_stats_empty;
          QCheck_alcotest.to_alcotest stats_mean_bounds;
        ] );
      ( "padded",
        [
          Alcotest.test_case "all operations" `Quick test_padded_ops;
          Alcotest.test_case "a cache line apart" `Quick test_padded_apart;
          Alcotest.test_case "hot queue cells a cache line apart" `Quick
            test_hot_cells_apart;
          Alcotest.test_case "per-tid plain words a cache line apart"
            `Quick test_tid_words_apart;
        ] );
      ( "embed/first",
        [
          Alcotest.test_case "every operation, other fields kept" `Quick
            test_first_ops;
          Alcotest.test_case "young value in a promoted record survives GC"
            `Quick test_first_gc;
          Alcotest.test_case "simulator: one step per access, one location"
            `Quick test_first_sim;
          Alcotest.test_case "counted like a make cell" `Quick
            test_first_counted;
        ] );
      ( "int field",
        [
          Alcotest.test_case "load, store and CAS; other fields kept" `Quick
            test_int_field_ops;
          Alcotest.test_case "value survives full_major and compact" `Quick
            test_int_field_gc;
          Alcotest.test_case "simulator: one step per access, one location"
            `Quick test_int_field_sim;
          Alcotest.test_case "counted like a make cell" `Quick
            test_int_field_counted;
          Alcotest.test_case "plain read and write: no step, not counted"
            `Quick test_int_field_plain;
        ] );
      ( "real_atomic",
        [
          Alcotest.test_case "CAS is physical equality" `Quick
            test_real_atomic_physical_cas;
          Alcotest.test_case "exchange" `Quick test_real_atomic_exchange;
          Alcotest.test_case "parallel fetch_and_add" `Quick
            test_real_atomic_parallel_faa;
        ] );
    ]
