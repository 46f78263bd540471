(* The parent side of [wfq_benchmark run]: one child process per round
   of each (workload, configuration) cell, one at a time, so no more
   than two domains are ever live and every round has its own heap peak,
   GC state and warm-up. The rounds cycle through the configurations,
   starting each cycle one configuration later. A configuration's
   metric is the median over its rounds.

   Untraced rounds give the end-to-end metrics. With tracing on, each
   untraced round is followed by a traced one of the same configuration,
   which gives the per-layer metrics; the difference between the two is
   the tracing overhead. *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;  (** measured time per workload, split over its rounds *)
  trace : bool;
  out : string option;
  smoke : bool;  (** 2 rounds of 25 ms, short warm-up and backlog: self-tests *)
  inject_loss : int;
}

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- host ------------------------------------------------------------- *)

(* The revision of the repository the benchmark runs from, if it is a
   git checkout; git is not asked about directories above it. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let rev = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when rev <> "" -> rev
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

let host () =
  let nproc = Domain.recommended_domain_count () in
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int nproc));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ( "ocamlrunparam",
        Json.Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"") );
      ("minor_heap_words", Json.Num (float_of_int (Gc.get ()).minor_heap_size));
      ("domains", Json.Num (float_of_int Spec.domains));
      ("oversubscribed", Json.Bool (Spec.domains > nproc));
    ]

(* --- cells ------------------------------------------------------------ *)

let rounds o = if o.smoke then 2 else Spec.rounds

let cell_args o ~workload ~config ~round ~trace ~spans =
  let measure_ns =
    if o.smoke then 25_000_000
    else
      int_of_float
        (o.seconds *. 1e9 /. float_of_int (List.length Spec.configs * rounds o))
  in
  let warmup_ns =
    if o.smoke then 10_000_000 else int_of_float (Spec.warmup_s *. 1e9)
  in
  [
    "--workload"; workload;
    "--config"; config;
    "--seed"; string_of_int o.seed;
    "--round"; string_of_int round;
    "--warmup-ns"; string_of_int warmup_ns;
    "--measure-ns"; string_of_int measure_ns;
    "--backlog"; string_of_int (if o.smoke then 10_000 else Spec.backlog);
    "--trace"; (if trace then "1" else "0");
    "--inject-loss"; string_of_int o.inject_loss;
  ]
  @ match spans with Some f -> [ "--spans"; f ] | None -> []

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | l :: _ -> l
  | [] -> ""

(* Runs one round in a child process of this executable and waits for
   it; the child's last line of output is the round's JSON. *)
let spawn_cell args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "cell" :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let output = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> (
      try Ok (Json.of_string (last_line output))
      with Json.Parse_error e -> Error ("unreadable cell output: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "cell exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "cell killed by signal %d" n)

(* --- one workload ------------------------------------------------------ *)

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (Spec.metric * float) list;
  layer : (Spec.metric * float) list;
  rounds : (string * Json.t list) list;  (** per configuration, untraced *)
  spans : (string * Json.t) list;  (** per configuration, first traced round *)
}

let cell_metric j name =
  match Json.member name (Json.member "metrics" j) with
  | Json.Num x -> Some x
  | _ -> None

let run_workload o workload =
  let errors = ref [] and attempted = ref 0 and failed = ref 0 in
  (* (config, traced) -> round results, most recent first *)
  let results = Hashtbl.create 16 in
  let run_cell config ~round ~trace =
    let spans =
      match o.out with
      | Some dir when trace && round = 0 ->
          Some (Filename.concat dir (Printf.sprintf "trace-%s-%s.json" workload config))
      | _ -> None
    in
    let j =
      match spawn_cell (cell_args o ~workload ~config ~round ~trace ~spans) with
      | Ok j ->
          attempted := !attempted + int_of_float (Json.to_num (Json.member "attempted" j));
          failed := !failed + int_of_float (Json.to_num (Json.member "failed" j));
          List.iter
            (fun e -> errors := Printf.sprintf "%s: %s" config (Json.to_str e) :: !errors)
            (Json.to_list (Json.member "errors" j));
          j
      | Error e ->
          incr failed;
          errors := Printf.sprintf "%s: %s" config e :: !errors;
          Json.Null
    in
    let key = (config, trace) in
    Hashtbl.replace results key (j :: Option.value (Hashtbl.find_opt results key) ~default:[])
  in
  let configs = Array.of_list Spec.config_ids in
  let n = Array.length configs in
  for round = 0 to rounds o - 1 do
    for i = 0 to n - 1 do
      let config = configs.((i + round) mod n) in
      run_cell config ~round ~trace:false;
      if o.trace then run_cell config ~round ~trace:true
    done
  done;
  let rounds_of config ~trace =
    List.rev (Option.value (Hashtbl.find_opt results (config, trace)) ~default:[])
  in
  (* The median over a configuration's rounds; [None] if a round lacks
     the metric. *)
  let over_rounds config ~trace base =
    let vs = List.map (fun j -> cell_metric j base) (rounds_of config ~trace) in
    if vs = [] || List.mem None vs then None
    else Some (median (List.filter_map Fun.id vs))
  in
  let overhead () =
    let base = "latency_p50_us" in
    let loss c =
      match (over_rounds c ~trace:false base, over_rounds c ~trace:true base) with
      | Some u, Some t when u > 0. -> Some ((t /. u) -. 1.)
      | _ -> None
    in
    match List.filter_map loss Spec.config_ids with
    | [] -> None
    | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))
  in
  let value (m : Spec.metric) =
    match m.config with
    | Some c -> over_rounds c ~trace:(not (Spec.untraced m)) m.base
    | None when m == Spec.overhead -> overhead ()
    | None ->
        (* setup_s: the sum over the configurations *)
        List.fold_left
          (fun acc c ->
            match (acc, over_rounds c ~trace:false m.base) with
            | Some a, Some x -> Some (a +. x)
            | _ -> None)
          (Some 0.) Spec.config_ids
  in
  let collect ms =
    List.filter_map
      (fun (m : Spec.metric) ->
        if Spec.applies workload m then Option.map (fun v -> (m, v)) (value m) else None)
      ms
  in
  let e2e = collect Spec.end_to_end in
  let layer = if o.trace then collect Spec.per_layer else [] in
  let complete =
    List.length e2e = List.length Spec.end_to_end
    && ((not o.trace)
       || List.length layer = List.length (List.filter (Spec.applies workload) Spec.per_layer))
    && List.for_all (fun (_, v) -> Float.is_finite v) (e2e @ layer)
  in
  {
    workload;
    correct = !failed = 0 && complete;
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    e2e;
    layer;
    rounds =
      List.map
        (fun c -> (c, List.map (Json.member "metrics") (rounds_of c ~trace:false)))
        Spec.config_ids;
    spans =
      List.filter_map
        (fun c ->
          match rounds_of c ~trace:true with
          | j :: _ -> Some (c, Json.member "spans" j)
          | [] -> None)
        Spec.config_ids;
  }

(* --- output ------------------------------------------------------------ *)

let metric_json rows =
  Json.Obj
    (List.map
       (fun ((m : Spec.metric), v) ->
         (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]))
       rows)

let result_json r =
  Json.Obj
    [
      ("name", Json.Str r.workload);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
      ("metrics", metric_json r.e2e);
      ("per_layer", metric_json r.layer);
      ("rounds", Json.Obj (List.map (fun (c, l) -> (c, Json.Arr l)) r.rounds));
      ("spans", Json.Obj r.spans);
    ]

let write_outputs o dir results =
  Json.write_file (Filename.concat dir "results.json")
    (Json.Obj
       [
         ("benchmark", Json.Str "wfq_benchmark");
         ("host", host ());
         ("seed", Json.Num (float_of_int o.seed));
         ("seconds", Json.Num o.seconds);
         ("trace", Json.Bool o.trace);
         ("workloads", Json.Arr (List.map result_json results));
       ]);
  Out_channel.with_open_bin (Filename.concat dir "results.tsv") (fun oc ->
      output_string oc "workload\tmetric\tvalue\tunit\n";
      List.iter
        (fun r ->
          List.iter
            (fun ((m : Spec.metric), v) ->
              Printf.fprintf oc "%s\t%s\t%s\t%s\n" r.workload m.name (Json.number v)
                m.unit)
            (r.e2e @ r.layer))
        results)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Prints [metric workload value unit] rows, then, as the last line, one
   JSON object: the end-to-end metrics of an untraced run, or the
   per-layer metrics every traced run reports, keyed by name for a
   single workload and by [workload/name] for several. Returns whether
   every workload ran correctly. *)
let main o =
  Option.iter mkdir_p o.out;
  let results =
    List.map
      (fun w ->
        let r = run_workload o w in
        List.iter
          (fun ((m : Spec.metric), v) ->
            Printf.printf "%s %s %s %s\n%!" m.name w (Json.number v) m.unit)
          (r.e2e @ r.layer);
        List.iter (fun e -> Printf.eprintf "%s: %s\n%!" w e) r.errors;
        r)
      o.workloads
  in
  Option.iter (fun dir -> write_outputs o dir results) o.out;
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun ((m : Spec.metric), v) ->
            if o.trace && m.only <> None then None
            else
              Some
                ( (if single then m.name else r.workload ^ "/" ^ m.name),
                  Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ] ))
          (if o.trace then r.layer else r.e2e))
      results
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let correct = List.for_all (fun r -> r.correct) results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (max 1 (sum (fun r -> r.attempted)))));
            ("failed", Json.Num (float_of_int (sum (fun r -> r.failed))));
            ("metrics", Json.Obj metrics);
          ]));
  correct
