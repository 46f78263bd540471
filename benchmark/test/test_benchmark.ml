(* Self-tests of wfq_benchmark: BENCHMARK.json is what [describe]
   prints, a smoke run of every workload prints exactly its metric
   names, a lossy queue fails the run, and [compare] gives the verdicts
   its rule promises. Run as [test_benchmark.exe
   PATH/wfq_benchmark.exe PATH/BENCHMARK.json PATH/README.md]. *)

open Wfq_benchmark

let exe = ref ""
let benchmark_json = ref ""
let readme = ref ""

(* Runs the benchmark executable; returns its exit code and stdout. *)
let run args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process !exe (Array.of_list (!exe :: args)) Unix.stdin wr devnull
  in
  Unix.close wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> (n, out)
  | _ -> Alcotest.fail "benchmark killed"

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
let last_json out = Json.of_string (List.nth (lines out) (List.length (lines out) - 1))

let names key =
  Json.read_file !benchmark_json
  |> Json.member key |> Json.to_list
  |> List.map (fun m -> Json.to_str (Json.member "name" m))
  |> List.sort compare

let num j k = Json.to_num (Json.member k j)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_dir "wfq_benchmark" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_describe () =
  let code, out = run [ "describe" ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string)
    "BENCHMARK.json is the output of describe"
    (In_channel.with_open_bin !benchmark_json In_channel.input_all)
    out

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + n <= m && (matches i 0 || at (i + 1)) in
  at 0

let test_readme () =
  let code, out = run [ "describe"; "--table" ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "README.md holds the output of describe --table" true
    (contains ~sub:out (In_channel.with_open_bin !readme In_channel.input_all))

let test_smoke () =
  with_temp_dir @@ fun dir ->
  let code, out = run [ "run"; "--smoke"; "--seed"; "3"; "--out"; dir ] in
  Alcotest.(check int) "exit" 0 code;
  let rows =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ metric; workload; value; _unit ] ->
            ignore (float_of_string value);
            Some (workload, metric)
        | _ -> None)
      (lines out)
  in
  List.iter
    (fun w ->
      Alcotest.(check (list string))
        (w ^ ": printed names are BENCHMARK.json's end_to_end")
        (names "end_to_end")
        (List.sort compare (List.filter_map (fun (w', m) -> if w = w' then Some m else None) rows)))
    Spec.workload_names;
  let j = last_json out in
  Alcotest.(check bool) "correct" true (Json.member "correct" j = Json.Bool true);
  Alcotest.(check (float 0.)) "failed" 0. (num j "failed");
  let results = Json.read_file (Filename.concat dir "results.json") in
  Alcotest.(check (float 0.)) "nproc in the host block"
    (float_of_int (Domain.recommended_domain_count ()))
    (num (Json.member "host" results) "nproc");
  Alcotest.(check bool) "results.tsv" true
    (Sys.file_exists (Filename.concat dir "results.tsv"))

let test_traced () =
  let code, out = run [ "run"; "--smoke"; "--workload"; "fanout"; "--trace"; "1" ] in
  Alcotest.(check int) "exit" 0 code;
  let keys = List.map fst (Json.to_assoc (Json.member "metrics" (last_json out))) in
  Alcotest.(check (list string))
    "metrics are BENCHMARK.json's per_layer" (names "per_layer")
    (List.sort compare keys)

let test_lossy () =
  let code, out =
    run [ "run"; "--smoke"; "--workload"; "pairs"; "--inject-loss"; "1000" ]
  in
  Alcotest.(check int) "exit" 1 code;
  let j = last_json out in
  Alcotest.(check bool) "not correct" true (Json.member "correct" j = Json.Bool false);
  Alcotest.(check bool) "failed > 0" true (num j "failed" > 0.)

(* --- compare on synthetic sets ----------------------------------------- *)

let host nproc = Json.Obj [ ("nproc", Json.Num nproc); ("ocaml", Json.Str "5.1.1") ]

(* A set of runs of one metric on one workload, one value per run, in
   [dir]. *)
let make_set ?(nproc = 2.) dir metric values =
  List.iteri
    (fun i v ->
      let sub = Filename.concat dir (Printf.sprintf "run%02d" i) in
      Sys.mkdir sub 0o755;
      Json.write_file (Filename.concat sub "results.json")
        (Json.Obj
           [
             ("host", host nproc);
             ( "workloads",
               Json.Arr
                 [
                   Json.Obj
                     [
                       ("name", Json.Str "pairs");
                       ("attempted", Json.Num 1000.);
                       ("failed", Json.Num 0.);
                       ( "metrics",
                         Json.Obj [ (metric, Json.Obj [ ("value", Json.Num v) ]) ] );
                     ];
                 ] );
           ]))
    values

let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.; 101.; 99.; 100.; 100.2 ]

let verdict metric a b =
  with_temp_dir @@ fun da ->
  with_temp_dir @@ fun db ->
  make_set da metric a;
  make_set db metric b;
  match Compare.compare_sets (Compare.load_set da) (Compare.load_set db) with
  | [ row ] -> Compare.verdict_string row.verdict
  | rows -> Alcotest.failf "%d rows" (List.length rows)

let test_compare () =
  let m = "latency_p50_us.ring" in
  let bound = Option.get (Option.get (Spec.find_metric m)).bound in
  Alcotest.(check string) "identical" "no worse" (verdict m base base);
  Alcotest.(check string) "shifted by twice the bound" "regressed"
    (verdict m base (List.map (fun x -> x *. (1. +. (2. *. bound))) base));
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (verdict m base (List.mapi (fun i x -> if i mod 2 = 0 then x *. 0.5 else x *. 1.5) base));
  Alcotest.(check string) "all pairs won by a wide margin" "improved"
    (verdict m base (List.map (fun x -> x *. 0.5) base));
  Alcotest.(check string) "setup_s spread wider than the bound" "unresolved"
    (verdict "setup_s" base (List.mapi (fun i x -> if i mod 2 = 0 then x *. 0.5 else x *. 1.5) base))

let test_compare_hosts () =
  with_temp_dir @@ fun a ->
  with_temp_dir @@ fun b ->
  make_set a "latency_p50_us.ring" base;
  make_set ~nproc:4. b "latency_p50_us.ring" base;
  Alcotest.(check int) "refuses different hosts" 2 (Compare.main a b)

let () =
  exe := Sys.argv.(1);
  benchmark_json := Sys.argv.(2);
  readme := Sys.argv.(3);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "wfq-benchmark"
    [
      ( "run",
        [
          Alcotest.test_case "describe is BENCHMARK.json" `Quick test_describe;
          Alcotest.test_case "README.md has the tables" `Quick test_readme;
          Alcotest.test_case "smoke run of every workload" `Quick test_smoke;
          Alcotest.test_case "traced run reports per_layer" `Quick test_traced;
          Alcotest.test_case "a lossy queue fails the run" `Quick test_lossy;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare;
          Alcotest.test_case "host blocks" `Quick test_compare_hosts;
        ] );
    ]
