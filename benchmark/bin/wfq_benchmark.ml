(* wfq_benchmark: the repository's benchmark command. See
   benchmark/README.md. *)

open Wfq_benchmark

let usage =
  {|usage:
  wfq_benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                    [--out DIR] [--smoke] [--inject-loss N]
  wfq_benchmark describe [--table]
  wfq_benchmark compare DIR_A DIR_B
|}

let die msg =
  prerr_endline ("wfq_benchmark: " ^ msg);
  prerr_string usage;
  exit 2

let flags = [ "--smoke"; "--table" ]

let parse ~allowed args =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest when List.mem f flags && List.mem f allowed -> go ((f, "") :: acc) rest
    | k :: v :: rest when List.mem k allowed -> go ((k, v) :: acc) rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go [] args

let get opts k ~default conv =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( try conv v with _ -> die (Printf.sprintf "bad value %S for %s" v k))

let non_negative_int v =
  let n = int_of_string v in
  if n < 0 then failwith "negative" else n

let bool01 = function "0" -> false | "1" -> true | _ -> failwith "not 0 or 1"

let run args =
  let opts =
    parse
      ~allowed:
        [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--smoke"; "--inject-loss" ]
      args
  in
  let workloads =
    match List.filter_map (fun (k, v) -> if k = "--workload" then Some v else None) opts with
    | [] -> Spec.workload_names
    | ws ->
        List.iter
          (fun w -> if not (List.mem w Spec.workload_names) then die ("unknown workload " ^ w))
          ws;
        ws
  in
  let seconds =
    get opts "--seconds" ~default:(float_of_int Spec.run_seconds) (fun v ->
        let s = float_of_string v in
        if s > 0. then s else failwith "not positive")
  in
  let o =
    {
      Run.workloads;
      seed = get opts "--seed" ~default:42 non_negative_int;
      seconds;
      trace = get opts "--trace" ~default:false bool01;
      out = List.assoc_opt "--out" opts;
      smoke = List.mem_assoc "--smoke" opts;
      inject_loss = get opts "--inject-loss" ~default:0 non_negative_int;
    }
  in
  exit (if Run.main o then 0 else 1)

let cell args =
  let opts =
    parse
      ~allowed:
        [
          "--workload"; "--config"; "--seed"; "--round"; "--warmup-ns"; "--measure-ns";
          "--backlog"; "--trace"; "--spans"; "--inject-loss";
        ]
      args
  in
  let int k = get opts k ~default:0 non_negative_int in
  let p =
    {
      Cell.workload = get opts "--workload" ~default:"" Fun.id;
      config = get opts "--config" ~default:(List.hd Spec.configs) Spec.find_config;
      seed = int "--seed";
      round = int "--round";
      warmup_ns = int "--warmup-ns";
      measure_ns = max 1 (int "--measure-ns");
      backlog = int "--backlog";
      trace = get opts "--trace" ~default:false bool01;
      spans_file = List.assoc_opt "--spans" opts;
      inject_loss = int "--inject-loss";
    }
  in
  print_endline (Json.to_string (Cell.run p))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "cell" :: args -> cell args
  | "describe" :: args ->
      let opts = parse ~allowed:[ "--table" ] args in
      if List.mem_assoc "--table" opts then print_string (Spec.table ())
      else print_string (Json.to_string_pretty (Spec.benchmark_json ()))
  | [ "compare"; a; b ] -> exit (Compare.main a b)
  | _ -> die "expected a subcommand"
