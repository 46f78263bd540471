(** Benchmark suites as data. A suite names its output file, its title,
    its parts and the guards its numbers must pass. One driver ({!run})
    runs every suite, and one validator ({!validate} and {!guard})
    checks every file a suite writes.

    Scaling: the paper runs 1,000,000 iterations per thread over 1..16
    threads on 8-core machines, ten repetitions per point. {!quick}
    keeps the same shapes at container-friendly cost; {!paper} restores
    the paper's parameters. *)

module Json = Wfq_benchmark.Json
module Qi = Wfq_core.Queue_intf
module Bks = Wfq_core.Backends
module OL = Open_loop

type scale = {
  threads : int list;
  iters : int;
  runs : int;
  sizes : int list;
  batch : int option;
}

let quick =
  {
    threads = [ 1; 2; 4; 8; 16 ];
    iters = 10_000;
    runs = 3;
    sizes = [ 1; 10; 100; 1_000; 10_000; 100_000 ];
    batch = None;
  }

let paper =
  {
    threads = List.init 16 (fun i -> i + 1);
    iters = 1_000_000;
    runs = 10;
    sizes = [ 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 ];
    batch = None;
  }

type bench = {
  series : Report.series list;
  meta : (string * string) list;
  members : (string * Json.t) list;
}

let empty = { series = []; meta = []; members = [] }

(* A part's x axis: the comma list recorded under a meta key, or a fixed
   list of points. *)
type axis = Meta of string | Fixed of float list

type part = {
  heading : string;
  axis : axis;
  batch : bool;  (** runs only with a batch size *)
  labels : (string * string) list -> string list;  (** given the meta *)
  run : scale -> bench;
}

type t = {
  name : string;
  doc : string;
  file : string option;
  title : string;
  threads : int list option;
  info : (string * string) list;
  parts : part list;
  guards : (bench -> string list) list;
}

let field l =
  match String.index_opt l ':' with Some i -> String.sub l 0 i | None -> ""

let ints l = String.concat "," (List.map string_of_int l)

let floats s =
  String.split_on_char ',' s
  |> List.filter (( <> ) "")
  |> List.map float_of_string

let takes_batch t = List.exists (fun p -> p.batch) t.parts

let batched meta =
  match List.assoc_opt "batch" meta with
  | None | Some "none" -> false
  | _ -> true

let part_labels meta p =
  if p.batch && not (batched meta) then [] else p.labels meta

let labels t meta = List.concat_map (part_labels meta) t.parts

(* ------------------------------------------------------------------ *)
(* Parts                                                               *)
(* ------------------------------------------------------------------ *)

type row = { row : string; go : scale -> threads:int -> Workload.run_result }

let label prefix key row =
  match String.concat "-" (List.filter (( <> ) "") [ prefix; key ]) with
  | "" -> row
  | p -> p ^ ":" ^ row

(* A sweep runs every row at every thread count and projects each row's
   runs through each [(key, projection)], labelling the series
   [<prefix>-<key>:<row>]. Repetitions of all rows are interleaved in
   rotating order instead of completing one row before starting the
   next: sequential completion biases later rows, because heap and
   allocator state accumulated by earlier measurements (major-heap
   growth, domain bookkeeping) inflates later ones by more than the
   differences under study. Rotation puts every row in every position of
   the round equally often. Points are per-row medians rather than
   means: on small hosts the dominant noise is multiplicative
   interference spikes (scheduler, co-tenants), which a mean smears over
   whichever row they happened to hit. *)
let sweep ?(batch = false) ?(prefix = "") heading projections rows =
  let labels _ =
    List.concat_map
      (fun (key, _) -> List.map (fun r -> label prefix key r.row) rows)
      projections
  in
  let run scale =
    let rows = Array.of_list rows in
    let k = Array.length rows in
    let per_threads =
      List.map
        (fun threads ->
          let samples = Array.make k [] in
          for run = 0 to scale.runs - 1 do
            for j = 0 to k - 1 do
              let i = (run + j) mod k in
              samples.(i) <- rows.(i).go scale ~threads :: samples.(i)
            done
          done;
          (float_of_int threads, samples))
        scale.threads
    in
    let project (key, f) i r =
      {
        Report.label = label prefix key r.row;
        points =
          List.map
            (fun (x, samples) ->
              (x, Wfq_primitives.Stats.median (List.map f samples.(i))))
            per_threads;
      }
    in
    let series p = Array.to_list (Array.mapi (project p) rows) in
    { empty with series = List.concat_map series projections }
  in
  { heading; axis = Meta "threads"; batch; labels; run }

let custom ?(axis = Fixed []) heading labels run =
  { heading; axis; batch = false; labels; run }

let rows workload =
  List.map (fun impl ->
      {
        row = Impls.name impl;
        go = (fun s ~threads -> workload impl ~threads ~iters:s.iters);
      })

let pairs = rows (fun i ~threads ~iters -> Workload.pairs i ~threads ~iters ())
let p_enq = rows (fun i ~threads ~iters -> Workload.p_enq i ~threads ~iters ())

let relaxed =
  rows (fun i ~threads ~iters -> Workload.pairs_relaxed i ~threads ~iters ())

(* The batch workload needs at least one full round per thread. *)
let batch_rows =
  List.map
    (fun impl ->
      {
        row = Impls.batch_name impl;
        go =
          (fun s ~threads ->
            let batch = Option.get s.batch in
            Workload.pairs_batch impl ~threads ~iters:(max s.iters batch)
              ~batch ());
      })
    Impls.batch_series

let seconds = ("", fun r -> r.Workload.seconds)

let minor_gcs key =
  (key, fun r -> float_of_int r.Workload.gc.Workload.minor_collections)

let profile key f = (key, fun r -> f (Space.profile_of_result r))
let with_gc = [ seconds; minor_gcs "minor-gcs" ]

let batch_part =
  sweep ~batch:true ~prefix:"batch" "Batch pairs: per-item vs native" with_gc
    batch_rows

let paper_rows = Impls.[ lf; wf_base; wf_opt12 ]

let fig7 ?prefix p =
  sweep ?prefix "Figure 7: enqueue-dequeue pairs" p (pairs paper_rows)

let fig8 ?prefix p = sweep ?prefix "Figure 8: 50% enqueues" p (p_enq paper_rows)

let fig9 ?prefix p =
  sweep ?prefix "Figure 9: impact of the optimizations" p
    (pairs Impls.[ wf_base; wf_opt12; wf_opt1; wf_opt2 ])

(* Figure 10: live-space overhead of the wait-free queues relative to
   the lock-free one, as a function of the initial queue size. *)
let fig10 prefix =
  let rows =
    Impls.[ ("base WF / LF", wf_base); ("opt WF (1+2) / LF", wf_opt12) ]
  in
  let ratio impl size =
    float_of_int (Space.footprint impl ~size)
    /. float_of_int (Space.footprint Impls.lf ~size)
  in
  let line s (n, impl) =
    {
      Report.label = label prefix "" n;
      points = List.map (fun z -> (float_of_int z, ratio impl z)) s.sizes;
    }
  in
  custom ~axis:(Meta "sizes") "Figure 10: live-words ratio (WF / LF)"
    (fun _ -> List.map (fun (n, _) -> label prefix "" n) rows)
    (fun s -> { empty with series = List.map (line s) rows })

(* ------------------------------------------------------------------ *)
(* Certified step bounds (polylog crossover)                           *)
(* ------------------------------------------------------------------ *)

(* The certification scenario is one active enq+deq fiber among p
   registered threads — deterministic, so DPOR certifies it from a
   single schedule, and it isolates exactly the structural
   p-dependence the paper's bounds are about: the base KP queue scans
   all p state slots per operation (phase by scan, help-all) even with
   nobody else running, so its certified bound is Theta(p) (measured:
   43 + 4p), while the polylog tree only grows by one level per
   doubling of p (one +~71-step propagate stage), i.e. Theta(log p)
   with large constants. The table runs p up to 128, past their
   crossover. kp-opt12 and fps appear as flat reference rows: their
   optimizations amortize the helping scan off the solo path (the
   adversarial O(p) cost remains, but needs p concurrently pending
   ops, which no tractable exhaustive exploration reaches — the
   contended p=2 certificates live in wfq_check's litmus library and
   test_polylog instead). *)
module Ck = Wfq_sim.Check

let certified_bound b p =
  let scripts = [ `Enq 1; `Deq ] :: List.init (p - 1) (fun _ -> []) in
  match
    Ck.certify ~mode:Ck.Dpor ~max_schedules:10_000 ~bound:1_000_000
      ~queue:(Ck.backend b) ~scripts ()
  with
  | Ok c -> float_of_int c.Ck.observed_bound
  | Error msg ->
      failwith (Printf.sprintf "certify %s at p=%d: %s" (Bks.id b) p msg)

let cert_ps = [ 2; 4; 8; 16; 32; 64; 128 ]

(* The paper's base configuration is where the Theta(p) scans live; it
   is not in the registry (its help-all slow path has million-trace
   DPOR scenarios that would sink every registry-driven battery). *)
let cert_rows =
  List.map
    (fun b -> (Bks.id b, certified_bound b))
    (Bks.make ~id:"kp-base" ~label:"base WF" (Kp Bks.kp_base)
    :: List.map Bks.find [ "kp-opt12"; "fps-pooled"; "polylog" ])

let cert_part =
  let line (id, bound) =
    {
      Report.label = "cert_steps:" ^ id;
      points = List.map (fun p -> (float_of_int p, bound p)) cert_ps;
    }
  in
  custom
    ~axis:(Fixed (List.map float_of_int cert_ps))
    "Certified max steps/fiber vs p (one active enq+deq fiber among p \
     registered threads, DPOR-exhaustive)"
    (fun _ -> List.map (fun (id, _) -> "cert_steps:" ^ id) cert_rows)
    (fun _ -> { empty with series = List.map line cert_rows })

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

let canonical_minor_heap_words = 8 * 1024 * 1024

(* One table per label prefix, x values down the rows. *)
let print ~csv p (series : Report.series list) =
  let x_label = match p.axis with Meta k -> k | Fixed _ -> "x" in
  let fields =
    List.fold_left
      (fun acc (s : Report.series) ->
        if List.mem (field s.label) acc then acc else acc @ [ field s.label ])
      [] series
  in
  List.iter
    (fun f ->
      let title = if f = "" then p.heading else p.heading ^ " - " ^ f in
      let group = List.filter (fun s -> field s.Report.label = f) series in
      Report.print_table ~title ~x_label group;
      if csv then Report.print_csv ~title group)
    fields

let to_json t b =
  let pair (x, y) = Json.Arr [ Json.Num x; Json.Num y ] in
  let series (s : Report.series) =
    Json.Obj
      [
        ("label", Json.Str s.label);
        ("points", Json.Arr (List.map pair s.points));
      ]
  in
  Json.Obj
    ([
       ("title", Json.Str t.title);
       ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) b.meta));
       ("series", Json.Arr (List.map series b.series));
     ]
    @ b.members)

let run ?(csv = false) ?(json = false) (scale : scale) t =
  let minor_words = (Gc.get ()).Gc.minor_heap_size in
  if minor_words < canonical_minor_heap_words then
    Printf.eprintf
      "note: minor heap is %d words; the canonical bench environment is \
       OCAMLRUNPARAM='s=8M' (see EXPERIMENTS.md).\n%!"
      minor_words;
  let outs =
    List.map
      (fun p ->
        if p.batch && scale.batch = None then empty
        else
          let b = p.run scale in
          print ~csv p b.series;
          b)
      t.parts
  in
  let uses k = List.exists (fun p -> p.axis = Meta k) t.parts in
  let scale_meta =
    (if uses "threads" then
       [
         ("threads", ints scale.threads);
         ("iters", string_of_int scale.iters);
         ("runs", string_of_int scale.runs);
         ("aggregation", "median, interleaved run order");
       ]
     else [])
    @ (if uses "sizes" then [ ("sizes", ints scale.sizes) ] else [])
    @
    if takes_batch t then
      [ ("batch", Option.fold ~none:"none" ~some:string_of_int scale.batch) ]
    else []
  in
  let all f = List.concat_map f outs in
  let b =
    {
      series = all (fun b -> b.series);
      meta =
        scale_meta @ t.info
        @ all (fun b -> b.meta)
        @ [ ("minor_heap_words", string_of_int minor_words) ];
      members = all (fun b -> b.members);
    }
  in
  (match t.file with
  | Some path when json ->
      Json.write_file path (to_json t b);
      print_endline ("wrote " ^ path)
  | _ -> ());
  b

(* ------------------------------------------------------------------ *)
(* The validator                                                       *)
(* ------------------------------------------------------------------ *)

let of_json j =
  let point p =
    match Json.to_list p with
    | [ x; y ] -> (Json.to_num x, Json.to_num y)
    | _ -> raise (Json.Parse_error "a point is not [x, y]")
  in
  let series s =
    {
      Report.label = Json.to_str (Json.member "label" s);
      points = List.map point (Json.to_list (Json.member "points" s));
    }
  in
  let value = function Json.Str s -> s | v -> Json.to_string v in
  let own k = List.mem k [ "title"; "meta"; "series" ] in
  {
    series = List.map series (Json.to_list (Json.member "series" j));
    meta =
      List.map
        (fun (k, v) -> (k, value v))
        (Json.to_assoc (Json.member "meta" j));
    members = List.filter (fun (k, _) -> not (own k)) (Json.to_assoc j);
  }

let validate t b =
  let expected =
    List.concat_map
      (fun p -> List.map (fun l -> (l, p.axis)) (part_labels b.meta p))
      t.parts
  in
  let got = List.map (fun (s : Report.series) -> s.label) b.series in
  let repeated l = List.length (List.filter (( = ) l) got) > 1 in
  let check (s : Report.series) =
    let xs = List.map fst s.points in
    match List.assoc_opt s.label expected with
    | None -> [ "unexpected series " ^ s.label ]
    | Some _ when xs = [] -> [ "empty series " ^ s.label ]
    | Some (Fixed want) when xs = want -> []
    | Some (Meta k) when Option.map floats (List.assoc_opt k b.meta) = Some xs
      ->
        []
    | Some a ->
        [
          Printf.sprintf "%s: x axis %s is not the %s" s.label
            (String.concat "," (List.map (Printf.sprintf "%g") xs))
            (match a with Meta k -> "meta's " ^ k | Fixed _ -> "fixed axis");
        ]
  in
  List.filter_map
    (fun (l, _) ->
      if List.mem l got then None else Some ("missing series " ^ l))
    expected
  @ List.map
      (( ^ ) "duplicate series ")
      (List.sort_uniq compare (List.filter repeated got))
  @ List.concat_map check b.series

let guard t b =
  List.concat_map
    (fun g -> try g b with e -> [ Printexc.to_string e ])
    t.guards

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let points b l =
  (List.find (fun (s : Report.series) -> s.label = l) b.series).Report.points

(* A message for each point of the [fields] series whose y is not [ok]. *)
let every fields ok msg b =
  List.concat_map
    (fun (s : Report.series) ->
      if not (List.mem (field s.label) fields) then []
      else
        List.filter_map
          (fun (x, y) -> if ok y then None else Some (msg s.label x y))
          s.points)
    b.series

let positive fields =
  every fields (fun y -> y > 0.0) (Printf.sprintf "%s at %g: %g")

(* With segment pools on, WF fps's words/op must be strictly below its
   unpooled build's, or recycling has regressed. *)
let pooled_below b =
  let pooled = points b "words_per_op:WF fps pooled" in
  List.filter_map
    (fun (x, w) ->
      let pw = List.assoc x pooled in
      if pw < w then None
      else
        Some
          (Printf.sprintf
             "WF fps pooled allocates %.2f words/op at %g threads, unpooled \
              %.2f"
             pw x w))
    (points b "words_per_op:WF fps")

(* Unpooled opt WF (1+2) allocates 25.5 words/op on one domain (22 per
   enqueue: the 4-word node and two 9-word descriptors; 29 per dequeue:
   three descriptors and the returned [Some]) and at most 26.9 at any
   width. The limit is that maximum plus a word, rounded up. The pool's
   link and stamp back in every node and descriptor would put it at 32,
   and a self-referential [let rec] per record, which costs a second
   copy of it, at over 50, so 28 or more at any width means one of them
   has come back. (An [enq_tid] field or a [deq_tid] cell back in the
   node adds 0.5 or 1 word/op, inside the limit; [test_op_profile]'s
   exact pins catch those.) *)
let kp_words_limit = 28.0

let kp_words b =
  List.filter_map
    (fun (x, w) ->
      if w < kp_words_limit then None
      else
        Some
          (Printf.sprintf
             "opt WF (1+2) allocates %.2f words/op at %g threads (limit %g)" w
             x kp_words_limit))
    (points b "words_per_op:opt WF (1+2)")

(* One descriptor publication covering a whole 64-element batch must
   amortize to at least a 2x gain over the per-item fast path on the
   same element volume. Enforced at 1 domain: on a small host the
   multi-domain points measure preemption, not amortization. *)
let batch_halves b =
  let at_1 l = List.assoc_opt 1.0 (points b l) in
  if not (batched b.meta) then []
  else
    match (at_1 "batch:WF fps per-item", at_1 "batch:WF fps batch") with
    | Some base, Some native when base >= 2.0 *. native -> []
    | Some base, Some native ->
        [
          Printf.sprintf "batch speedup %.2fx < 2x at 1 domain"
            (base /. native);
        ]
    | _ -> [ "batch series have no 1-domain point" ]

(* The ring's steady state allocates no nodes: what it allocates per
   operation is its ABA-proofing floor, exact on one domain (3.512
   words/op at 2,000 iterations, 3.500 at 100,000) and independent of
   the width, so growth or width-dependence is a protocol change.
   Contended widths retry, which adds up to 0.17 on a 2-vCPU host. *)
let ring_flat b =
  let ring = points b "words_per_op:WF ring" in
  let ys = List.map snd ring in
  let spread =
    List.fold_left max neg_infinity ys -. List.fold_left min infinity ys
  in
  let x0, solo = List.hd (List.sort compare ring) in
  (if spread < 0.2 then []
   else
     [
       Printf.sprintf "ring words/op spread %.3f across widths (limit 0.2)"
         spread;
     ])
  @
  if solo <= 3.52 then []
  else
    [
      Printf.sprintf "ring allocates %.3f words/op on %g domain(s) (limit 3.52)"
        solo x0;
    ]

(* The polylog queue's certified per-operation bound must grow strictly
   slower from the smallest to the largest p than the base KP queue's
   Theta(p) helping scan. *)
let polylog_slower b =
  let growth id =
    let ys = List.map snd (points b ("cert_steps:" ^ id)) in
    List.nth ys (List.length ys - 1) -. List.hd ys
  in
  let poly = growth "polylog" and kp = growth "kp-base" in
  if poly < kp then []
  else
    [
      Printf.sprintf
        "polylog's certified bound grows %+.0f steps, kp-base's %+.0f (must \
         grow strictly slower)"
        poly kp;
    ]

(* ------------------------------------------------------------------ *)
(* The scale-driven suites                                             *)
(* ------------------------------------------------------------------ *)

let suite ?file ?threads ?(info = []) ?(guards = []) name title doc parts =
  { name; doc; file; title; threads; info; parts; guards }

let wide = [ 1; 2; 4; 8 ]

let table =
  [
    suite "fig7" "Figure 7" "Enqueue-dequeue pairs benchmark (paper Fig. 7)."
      [ fig7 [ seconds ] ];
    suite "fig8" "Figure 8" "50% enqueues benchmark (paper Fig. 8)."
      [ fig8 [ seconds ] ];
    suite "fig9" "Figure 9" "Optimization ablation (paper Fig. 9)."
      [ fig9 [ seconds ] ];
    suite "fig10" "Figure 10" "Live-space overhead (paper Fig. 10)."
      [ fig10 "" ];
    suite "figures" ~file:"BENCH_figures.json"
      ~info:
        [
          ( "workloads",
            "fig7/fig9 pairs; fig8 p_enq; fig10 live-space ratio; batch: \
             series are the batch pairs workload (docs/BATCHING.md)" );
          ("x", "threads for fig7-9 and batch labels; queue size for fig10");
          ( "y",
            "seconds for fig7-9 and batch; live-words ratio for fig10; \
             *-minor-gcs series are minor collections per run" );
        ]
      ~guards:[ batch_halves ] "Paper figures 7-10 (combined)"
      "Every paper figure (7-10) in one run, and the batch-native \
       decomposition with --batch K."
      [
        fig7 ~prefix:"fig7" with_gc;
        fig8 ~prefix:"fig8" with_gc;
        fig9 ~prefix:"fig9" with_gc;
        fig10 "fig10";
        batch_part;
      ];
    suite "shard" ~file:"BENCH_shard.json" ~threads:wide
      ~info:[ ("workload", "pairs_relaxed"); ("y", "seconds") ]
      "Shard scaling: enqueue-dequeue pairs (relaxed)"
      "Shard-count scaling of the sharded front-end vs opt WF (1+2)."
      [ sweep "Shard scaling" [ seconds ] (relaxed Impls.shard_series) ];
    suite "fps" ~file:"BENCH_fps.json" ~threads:wide
      ~info:
        [
          ("workload", "pairs; batch: series are the batch pairs workload");
          ("y", "seconds; minor-gcs: series are collections per run");
        ]
      "Fast-path/slow-path: enqueue-dequeue pairs"
      "Fast-path/slow-path queue vs LF / base WF / opt WF (1+2), with the \
       max_failures sweep and, with --batch K, the batch decomposition."
      [
        sweep "Fast-path/slow-path" with_gc (pairs Impls.fps_bench_series);
        batch_part;
      ];
    suite "alloc" ~file:"BENCH_alloc.json" ~threads:wide
      ~info:
        [
          ("workload", "pairs");
          ( "y",
            "per series-label prefix: words_per_op, promoted_per_op \
             (words/operation); minor_gcs, major_gcs (collections/run)" );
        ]
      ~guards:[ pooled_below; kp_words ]
      "Allocation decomposition: enqueue-dequeue pairs"
      "Words/op, promoted words/op and collections of LF, opt WF (1+2) \
       and WF fps, and of WF fps's segment-pooled build."
      [
        sweep "Allocation"
          Space.
            [
              profile "words_per_op" (fun p -> p.words_per_op);
              profile "promoted_per_op" (fun p -> p.promoted_per_op);
              profile "minor_gcs" (fun p -> float_of_int p.minor_collections);
              profile "major_gcs" (fun p -> float_of_int p.major_collections);
            ]
          (pairs Impls.alloc_series);
      ];
    suite "ring" ~file:"BENCH_ring.json" ~threads:wide
      ~info:
        [
          ("workload", "pairs");
          ( "y",
            "per series-label prefix: time (seconds), words_per_op \
             (words/operation), minor_gcs (collections/run)" );
        ]
      ~guards:[ ring_flat ] "Bounded ring vs pooled linked queues (pairs)"
      "Bounded ring vs opt WF (1+2) and WF fps pooled: time, words/op and \
       minor collections."
      [
        sweep "Ring"
          [
            ("time", snd seconds);
            profile "words_per_op" (fun p -> p.Space.words_per_op);
            minor_gcs "minor_gcs";
          ]
          (pairs Impls.ring_series);
      ];
    suite "polylog" ~file:"BENCH_polylog.json" ~threads:wide
      ~info:
        [
          ("workload", "pairs; cert_steps: series are certified bounds");
          ( "cert_scenario",
            "one active enq+deq fiber among p registered threads (structural \
             per-op p-dependence; contended p=2 certificates live in \
             wfq_check dpor --queue polylog)" );
          ("cert_mode", "Dpor, exhaustive (deterministic scenario)");
          ( "y",
            "seconds; minor-gcs: collections per run; cert_steps: max \
             certified steps/fiber vs p" );
        ]
      ~guards:[ polylog_slower ] "Polylog crossover: enqueue-dequeue pairs"
      "Helping-cost crossover: the polylog queue vs opt WF (1+2) and WF fps \
       pooled, and the certified step bound vs p up to p=128."
      [
        sweep "Polylog crossover" with_gc (pairs Impls.polylog_series);
        cert_part;
      ];
  ]

(* ------------------------------------------------------------------ *)
(* Suites with their own configuration                                 *)
(* ------------------------------------------------------------------ *)

(* [<field>:<id>] for every field and id, field-major. *)
let grid fields ids =
  List.concat_map (fun f -> List.map (fun id -> f ^ ":" ^ id) ids) fields

let sched (sc : Sched_bench.scale) =
  let run _ =
    let lines = Sched_bench.service ~scale:sc () in
    { empty with series = Sched_bench.series lines }
  in
  let fields =
    [ "throughput"; "fiber_p50_ns"; "fiber_p99_ns"; "steals"; "steal_attempts" ]
  in
  suite "sched" ~file:"BENCH_sched.json"
    ~info:
      [
        ("workload", "request fan-out; subfibers yield once + cpu burn");
        ("domains", ints sc.domains);
        ("requests", string_of_int sc.requests);
        ("fanout", string_of_int sc.fanout);
        ("work", string_of_int sc.work);
        ("runs", string_of_int sc.runs);
        ("aggregation", "median over runs, per field");
        ("x", "worker domains");
        ( "y",
          "per series-label prefix: throughput (requests/s), fiber_p50_ns / \
           fiber_p99_ns (spawn-to-completion), steals (tasks stolen per \
           run)" );
      ]
    ~guards:[ positive [ "throughput"; "fiber_p50_ns"; "fiber_p99_ns" ] ]
    "Scheduler service scenario: request fan-out"
    "Request fan-out on the fiber scheduler over the kp_opt12 / fps_pooled \
     / shard_rr2 / ring run-queues."
    [
      custom ~axis:(Meta "domains") "Scheduler service scenario"
        (fun _ -> grid fields (List.map fst Sched_bench.backends))
        run;
    ]

(* The meta's [id=knee; ...] list, a knee being a load or "none". *)
let knees meta =
  Option.value ~default:"" (List.assoc_opt "knee" meta)
  |> String.split_on_char ';'
  |> List.filter_map (fun e ->
         match String.split_on_char '=' (String.trim e) with
         | [ id; k ] -> Some (id, float_of_string_opt k)
         | _ -> None)

(* A backend whose sojourn p99 quadruples by this load is a regression
   even on a noisy shared runner: the floor sits below the second rate
   CI sweeps, so scheduling jitter alone cannot trip it. *)
let knee_floor = 8000.0

let knee_above_floor b =
  List.filter_map
    (function
      | id, Some k when k < knee_floor ->
          Some
            (Printf.sprintf
               "knee regression: %s saturates at %.0f events/s (floor %.0f)" id
               k knee_floor)
      | _ -> None)
    (knees b.meta)

let percentiles_ordered b =
  let ordered (id, _) side =
    let p q = points b (Printf.sprintf "%s_%s:%s" side q id) in
    List.concat
      (List.map2
         (fun (x, p50) ((_, p99), (_, p999)) ->
           if p50 <= p99 && p99 <= p999 then []
           else
             [
               Printf.sprintf "%s:%s at %g: %g/%g/%g" side id x p50 p99 p999;
             ])
         (p "p50")
         (List.combine (p "p99") (p "p999")))
  in
  List.concat_map
    (fun k -> ordered k "enq" @ ordered k "sojourn")
    (knees b.meta)

let open_loop_fields =
  OL.
    [
      ("enq_p50", fun r -> r.enq.p50);
      ("enq_p99", fun r -> r.enq.p99);
      ("enq_p999", fun r -> r.enq.p999);
      ("sojourn_p50", fun r -> r.sojourn.p50);
      ("sojourn_p99", fun r -> r.sojourn.p99);
      ("sojourn_p999", fun r -> r.sojourn.p999);
      ("achieved_rate", fun r -> r.achieved_rate);
    ]

let open_loop ~(config : OL.config) ~rates ~knee_mult backends =
  let rates = List.sort_uniq compare rates in
  let sweep (module B : Qi.BACKEND) =
    let impl = Impls.(unbatched (of_backend (module B))) in
    let pts =
      List.map (fun rate -> (rate, OL.run { config with rate } impl)) rates
    in
    let sojourn_p99 = List.map (fun (x, r) -> (x, r.OL.sojourn.OL.p99)) pts in
    let line (name, f) =
      {
        Report.label = name ^ ":" ^ B.id;
        points = List.map (fun (x, r) -> (x, f r)) pts;
      }
    in
    let knee = OL.knee ~mult:knee_mult sojourn_p99 in
    (List.map line open_loop_fields, (B.id, knee))
  in
  let run _ =
    let results = List.map sweep backends in
    let knee = Option.fold ~none:"none" ~some:(Printf.sprintf "%.0f") in
    let knees = List.map (fun (_, (id, k)) -> id ^ "=" ^ knee k) results in
    Printf.printf
      "\nsaturation knees (sojourn p99 > %gx the lowest load's): %s\n"
      knee_mult (String.concat "; " knees);
    {
      series = List.concat_map fst results;
      meta = [ ("knee", String.concat "; " knees) ];
      members = [];
    }
  in
  suite "latency-openloop" ~file:"BENCH_latency_openloop.json"
    ~info:
      [
        ("workload", "open-loop arrivals; latency from intended send time");
        ("pattern", Arrivals.pattern_name config.pattern);
        ("rates", String.concat "," (List.map string_of_float rates));
        ("events", string_of_int config.events);
        ("producers", string_of_int config.producers);
        ("consumers", string_of_int config.consumers);
        ("skew", string_of_float config.skew);
        ("seed", string_of_int config.seed);
        ( "stall",
          match config.stall with
          | None -> "none"
          | Some s ->
              Printf.sprintf "victim 0, %d ns after %d dequeues"
                s.OL.duration_ns s.OL.after );
        ("knee_mult", string_of_float knee_mult);
        ("x", "offered load, events/s");
        ( "y",
          "per series-label prefix: enq_* (enqueue completion - intended \
           send, ns), sojourn_* (dequeue completion - intended send, ns), \
           achieved_rate (events/s)" );
      ]
    ~guards:
      [
        positive (List.map fst open_loop_fields);
        percentiles_ordered;
        knee_above_floor;
      ]
    "Open-loop latency vs offered load"
    "Open-loop latency at fixed offered loads, measured from the intended \
     send time (docs/LATENCY.md), and each backend's sojourn-p99 knee."
    [
      custom ~axis:(Meta "rates") "Open-loop latency"
        (fun meta ->
          grid (List.map fst open_loop_fields) (List.map fst (knees meta)))
        run;
    ]

let overhead_within_budget b =
  let budget = float_of_string (List.assoc "overhead_budget" b.meta) in
  every [ "overhead_ratio" ]
    (fun r -> r <= budget)
    (fun l _ r ->
      Printf.sprintf "%s: instrumentation overhead ratio %.4f exceeds budget %g"
        l r budget)
    b

let headline_metrics b =
  let metrics =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), m))
      (Json.to_list (List.assoc "metrics" b.members))
  in
  let total n = Json.to_num (Json.member "total" (List.assoc n metrics)) in
  let steals = List.init 4 (Printf.sprintf "shard_rr4.shard%d.steals") in
  let named =
    [ "kp_opt12.phase_lag"; "fps_slow.slow_entries"; "fps_pooled.nodes.reused";
      "registry.acquisitions" ]
    @ steals
  in
  match List.filter (fun n -> not (List.mem_assoc n metrics)) named with
  | _ :: _ as missing -> List.map (( ^ ) "missing metric ") missing
  | [] ->
      (if total "fps_slow.slow_entries" > 0.0 then []
       else [ "slow-path metrics empty" ])
      @
      if List.exists (fun n -> total n > 0.0) steals then []
      else [ "no shard steals recorded" ]

let overhead_fields =
  Obsv_bench.
    [
      ("overhead_ratio", fun o -> o.ratio);
      ("disabled_ns_per_op", fun o -> o.disabled_ns_per_op);
      ("enabled_ns_per_op", fun o -> o.enabled_ns_per_op);
    ]

let stats ~threads ~iters ~runs =
  let module OB = Obsv_bench in
  let run _ =
    let reg, lines = OB.collect ~threads ~iters () in
    Wfq_obsv.Metrics.dump reg stdout;
    List.iter
      (fun l ->
        Printf.printf "%-12s %d domains  %9d ops  %8.3f s\n" l.OB.queue
          l.OB.threads l.OB.ops l.OB.seconds)
      lines;
    let overheads = OB.measure_overhead ~iters ~runs () in
    let line (name, f) =
      List.map
        (fun o ->
          {
            Report.label = name ^ ":" ^ o.OB.oh_queue;
            points = [ (1.0, f o) ];
          })
        overheads
    in
    let metrics = Json.of_string (Wfq_obsv.Metrics.to_json reg) in
    {
      series = List.concat_map line overhead_fields;
      meta = [];
      members = [ ("metrics", Json.member "metrics" metrics) ];
    }
  in
  suite "stats" ~file:"BENCH_stats.json"
    ~info:
      [
        ("threads", string_of_int threads);
        ("iters", string_of_int iters);
        ("runs", string_of_int runs);
        ("workload", "pairs (shard_rr4: relaxed)");
        ("latency_unit", "ns (bechamel monotonic clock)");
        ("overhead_budget", Printf.sprintf "%g" OB.overhead_budget);
        ("x", "overhead series: 1, the one domain the chunk pairs run on");
      ]
    ~guards:[ overhead_within_budget; headline_metrics ]
    "Observability snapshot: instrumented pairs runs"
    "The metric registry of instrumented pairs runs, and the \
     instrumentation overhead against its 2% budget."
    [
      custom ~axis:(Fixed [ 1.0 ]) "Instrumentation overhead (one domain)"
        (fun _ -> grid (List.map fst overhead_fields) OB.overhead_queues)
        run;
    ]

let known =
  table
  @ [
      sched Sched_bench.default;
      open_loop ~config:OL.default_config ~rates:[] ~knee_mult:4.0 [];
      stats ~threads:4 ~iters:20_000 ~runs:50;
    ]

let find path =
  List.find_opt (fun t -> t.file = Some (Filename.basename path)) known

let check path =
  match find path with
  | None -> [ "no suite writes " ^ Filename.basename path ]
  | Some t -> (
      try
        let b = of_json (Json.read_file path) in
        match validate t b with [] -> guard t b | v -> v
      with Json.Parse_error m | Sys_error m | Failure m ->
        [ "cannot read: " ^ m ])
