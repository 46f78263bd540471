(* Shared by wfq_bench, wfq_check and wfq_soak. *)

open Cmdliner

(* [Arg.enum alts], except that a value is only an exact name of
   [alts]. Cmdliner 1.3 resolves any unique prefix, so [--queue ri]
   would soak the ring; here anything else is a usage error (exit 124)
   before anything runs. *)
let enum alts =
  let parse s =
    match List.assoc_opt s alts with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected one of %s" s
                (String.concat ", "
                   (List.map (fun (n, _) -> Printf.sprintf "'%s'" n) alts))))
  in
  let print ppf v =
    match List.find_opt (fun (_, v') -> v' = v) alts with
    | Some (n, _) -> Format.pp_print_string ppf n
    | None -> invalid_arg "Cli.enum: value not listed"
  in
  Arg.conv (parse, print)

(* [Cmd.eval] on [Cmd.group ?default info cmds], except that a
   subcommand runs only under its exact name. Cmdliner 1.3 resolves any
   unique prefix, so [wfq_bench all] would run the [alloc] sweep; here a
   first argument that is not an option and names no subcommand is a
   usage error (exit 124) before anything runs. *)
let eval_group ?default info cmds =
  let group = Cmd.group ?default info cmds in
  let names = List.sort compare (List.map Cmd.name cmds) in
  match Array.to_list Sys.argv with
  | _ :: arg :: _
    when arg <> "" && arg.[0] <> '-' && not (List.mem arg names) ->
      let exe = Cmd.name group in
      Printf.eprintf
        "%s: unknown command '%s', must be one of %s.\n\
         Usage: %s [COMMAND] …\n\
         Try '%s --help' for more information.\n"
        exe arg
        (String.concat ", " (List.map (Printf.sprintf "'%s'") names))
        exe exe;
      Cmd.Exit.cli_error
  | _ -> Cmd.eval group
