(* [wfq_benchmark compare A B]: two sets of runs, A the base and B the
   change, judged metric by metric and workload by workload against the
   bounds in {!Spec}.

   - improved: B wins at least 9 in 10 of the (A_i, B_i) pairs, ties
     counting for neither, and the medians differ by more than A's
     interquartile range;
   - unresolved: either set's interquartile range is wider than the
     bound (as a share of its median), unless every run of B reads
     better than every run of A;
   - regressed: B's median is worse than A's by more than the bound;
   - no worse: otherwise.

   Runs are compared only when their host blocks agree on everything
   but the git revision. *)

type verdict = Improved | No_worse | Regressed | Unresolved

let verdict_string = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the "exclusive" method). Needs at least two values. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let ld = Array.length d in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.)
    [ 1; 2; 3 ]

type row = {
  workload : string;
  metric : string;
  a : float list;
  b : float list;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let judge ~better ~bound ~workload ~metric a b =
  let qa = quartiles a and qb = quartiles b in
  let med q = List.nth q 1 and iqr q = List.nth q 2 -. List.nth q 0 in
  let ma = med qa and mb = med qb in
  let is_better x y =
    match better with Spec.Higher -> x > y | Spec.Lower -> x < y
  in
  let pairs = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.combine (first a) (first b)
    |> List.filter (fun (x, y) -> is_better y x)
    |> List.length
  in
  let spread q = if med q = 0. then 0. else iqr q /. Float.abs (med q) in
  let worse_by =
    if ma = 0. then 0.
    else
      match better with
      | Spec.Higher -> (ma -. mb) /. Float.abs ma
      | Spec.Lower -> (mb -. ma) /. Float.abs ma
  in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> is_better y x) a) b
  in
  let verdict =
    if
      10 * wins >= 9 * pairs
      && is_better mb ma
      && Float.abs (mb -. ma) > iqr qa
    then Improved
    else if Float.max (spread qa) (spread qb) > bound && not all_better then
      Unresolved
    else if worse_by > bound then Regressed
    else No_worse
  in
  { workload; metric; a; b; wins; pairs; verdict }

(* --- loading runs --------------------------------------------------------- *)

type run = {
  host : Json.t;
  values : ((string * string) * float) list;  (** (workload, metric) *)
  failed : (string * (int * int)) list;  (** workload -> failed, attempted *)
}

let load_run path =
  let j = Json.read_file path in
  let workloads = Json.to_list (Json.member "workloads" j) in
  let name w = Json.to_str (Json.member "name" w) in
  {
    host = Json.member "host" j;
    values =
      List.concat_map
        (fun w ->
          List.map
            (fun (m, v) -> ((name w, m), Json.to_num (Json.member "value" v)))
            (Json.to_assoc (Json.member "metrics" w)))
        workloads;
    failed =
      List.map
        (fun w ->
          let n k = int_of_float (Json.to_num (Json.member k w)) in
          (name w, (n "failed", n "attempted")))
        workloads;
  }

(* A set is a directory holding results.json, or directories that do,
   taken in name order. *)
let load_set dir =
  let direct = Filename.concat dir "results.json" in
  if Sys.file_exists direct then [ load_run direct ]
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun sub ->
           let f = Filename.concat (Filename.concat dir sub) "results.json" in
           if Sys.file_exists f then Some (load_run f) else None)

let comparable_host h =
  match h with
  | Json.Obj l -> Json.Obj (List.filter (fun (k, _) -> k <> "git_rev") l)
  | j -> j

let compare_sets (a : run list) (b : run list) =
  let keys =
    List.concat_map (fun r -> List.map fst r.values) (a @ b)
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun ((workload, metric) as key) ->
      match Spec.find_metric metric with
      | Some { Spec.bound = Some bound; better; _ } ->
          let vals runs = List.filter_map (fun r -> List.assoc_opt key r.values) runs in
          let va = vals a and vb = vals b in
          if List.length va < 2 || List.length vb < 2 then None
          else Some (judge ~better ~bound ~workload ~metric va vb)
      | _ -> None)
    keys

(* failed_frac: any increase is a regression. *)
let failed_rows a b =
  let frac runs w =
    let f, n =
      List.fold_left
        (fun (f, n) r ->
          match List.assoc_opt w r.failed with
          | Some (f', n') -> (f + f', n + n')
          | None -> (f, n))
        (0, 0) runs
    in
    if n = 0 then 0. else float_of_int f /. float_of_int n
  in
  List.concat_map (fun r -> List.map fst r.failed) (a @ b)
  |> List.sort_uniq compare
  |> List.map (fun w -> (w, frac a w, frac b w))

(* Median [first quartile, third quartile] and the interquartile range
   as a share of the median. *)
let print_row r =
  let q l =
    match quartiles l with
    | [ q1; q2; q3 ] ->
        Printf.sprintf "%.4g [%.4g, %.4g] %4.1f%%" q2 q1 q3
          (if q2 = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs q2)
    | _ -> "-"
  in
  Printf.printf "%-8s %-26s A %-32s B %-32s won %2d/%d  %s\n" r.workload r.metric
    (q r.a) (q r.b) r.wins r.pairs (verdict_string r.verdict)

(* Exit code: 0 when nothing regressed or is unresolved, 1 otherwise, 2
   when the sets cannot be compared. *)
let main dir_a dir_b =
  match (load_set dir_a, load_set dir_b) with
  | exception (Json.Parse_error e | Sys_error e) ->
      prerr_endline ("compare: cannot read the runs: " ^ e);
      2
  | a, b when List.length a < 2 || List.length b < 2 ->
      prerr_endline "compare: each set needs at least two runs";
      2
  | a, b ->
      let hosts =
        List.sort_uniq compare (List.map (fun r -> comparable_host r.host) (a @ b))
      in
      if List.length hosts > 1 then begin
        prerr_endline "compare: the runs' host blocks differ; refusing to compare:";
        List.iter (fun h -> prerr_endline ("  " ^ Json.to_string h)) hosts;
        2
      end
      else begin
        Printf.printf "A: %d runs from %s\nB: %d runs from %s\n" (List.length a) dir_a
          (List.length b) dir_b;
        let rows = compare_sets a b in
        List.iter print_row rows;
        let bad_failed =
          List.filter_map
            (fun (w, fa, fb) ->
              Printf.printf "%-8s %-26s A %-32s B %-32s         %s\n" w "failed_frac"
                (Json.number fa) (Json.number fb)
                (if fb > fa then "regressed" else "no worse");
              if fb > fa then Some w else None)
            (failed_rows a b)
        in
        if
          bad_failed = []
          && List.for_all (fun r -> r.verdict = No_worse || r.verdict = Improved) rows
        then 0
        else 1
      end
