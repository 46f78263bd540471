(** Counterexample shrinking: delta-debug a failing scheduler decision
    trace down to a minimal forced replay.

    A failure reported by {!Explore} or {!Dpor} arrives as the full list
    of enabled-list indices of the failing run — often hundreds of
    entries, almost all of which are the default choice. Shrinking
    exploits two facts: replay is deterministic ({!Scheduler.run}
    [~forced] reproduces the run bit-for-bit), and after the forced
    prefix runs out the scheduler continues with a deterministic
    strategy (First_enabled, i.e. choice 0). So any trailing zeros are
    free to drop, any segment whose removal still fails is gone for
    good, and any nonzero entry that can be zeroed moves the schedule
    closer to the default — leaving only the handful of forced switches
    that actually constitute the bug.

    The candidate evaluations tolerate [Invalid_argument] (an edited
    prefix can force an out-of-range index) by treating the candidate as
    non-failing. *)

module S = Scheduler

type step = {
  s_index : int;  (** decision number within the run *)
  s_fiber : int;  (** fiber id resumed at this decision *)
  s_access : S.access option;  (** the shared access the slice performed *)
}

type t = {
  forced : int list;  (** the minimal failing replay prefix *)
  message : string;  (** failure message of the shrunk schedule *)
  attempts : int;  (** candidate replays evaluated while shrinking *)
  original_length : int;  (** length of the trace before shrinking *)
  steps : step list;
      (** every decision of the shrunk run, for pretty-printing; the
          first [List.length forced] are the forced ones *)
}

let classify (result : S.result) check =
  match (result.S.error, result.S.outcome) with
  | Some e, _ -> Some ("exception: " ^ Printexc.to_string e)
  | None, S.Step_limit_hit -> Some "step limit hit (starvation or livelock)"
  | None, S.Only_stalled_left ->
      Some "stalled fibers left (unexpected in exploration)"
  | None, S.Aborted -> Some "run aborted (unexpected outside exploration)"
  | None, S.All_finished -> (
      match check result with Ok () -> None | Error msg -> Some msg)

let drop_trailing_zeros l =
  List.rev (List.rev l |> List.to_seq |> Seq.drop_while (( = ) 0)
            |> List.of_seq)

(* Remove the half-open slice [i, i+k) from [l]. *)
let remove_slice l i k =
  List.filteri (fun j _ -> j < i || j >= i + k) l

let shrink ?(max_attempts = 5_000) ?(step_limit = 100_000) ~make ~forced () =
  let attempts = ref 0 in
  let run candidate =
    let fibers, check = make () in
    match S.run ~step_limit ~forced:candidate fibers with
    | exception Invalid_argument _ -> None
    | result -> classify result check
  in
  let fails candidate =
    if !attempts >= max_attempts then None
    else begin
      incr attempts;
      run candidate
    end
  in
  (match run forced with
  | None -> invalid_arg "Shrink.shrink: the given schedule does not fail"
  | Some _ -> ());
  let best = ref (drop_trailing_zeros forced) in
  let try_candidate c =
    match fails c with
    | Some _ ->
        best := drop_trailing_zeros c;
        true
    | None -> false
  in
  (* ddmin-style segment removal: halving chunk sizes, rescanning at
     each size until no chunk of that size can be removed. *)
  let rec chunk_pass k =
    if k >= 1 then begin
      let changed = ref true in
      while !changed do
        changed := false;
        let i = ref 0 in
        while !i + k <= List.length !best do
          if try_candidate (remove_slice !best !i k) then changed := true
          else i := !i + k
        done
      done;
      if k > 1 then chunk_pass (k / 2)
    end
  in
  chunk_pass (max 1 (List.length !best / 2));
  (* zeroing pass, last entry first: each success turns one forced
     switch back into the default choice. *)
  let rec zero_pass i =
    if i >= 0 then begin
      let cur = !best in
      if i < List.length cur && List.nth cur i <> 0 then
        ignore
          (try_candidate (List.mapi (fun j v -> if j = i then 0 else v) cur));
      zero_pass (i - 1)
    end
  in
  zero_pass (List.length !best - 1);
  chunk_pass 1;
  (* Final instrumented replay of the minimal schedule. *)
  let fibers, check = make () in
  let result = S.run ~step_limit ~forced:!best fibers in
  let message =
    match classify result check with
    | Some msg -> msg
    | None ->
        (* cannot happen: [best] only ever holds failing schedules *)
        assert false
  in
  {
    forced = !best;
    message;
    attempts = !attempts;
    original_length = List.length forced;
    steps =
      List.mapi
        (fun i (d : S.decision) ->
          { s_index = i; s_fiber = d.S.d_chosen; s_access = d.S.d_access })
        result.S.decisions;
  }

(* Sim_atomic's location ids count every cell the process has made, so
   the printed trace renumbers them in order of first appearance: the
   same schedule prints the same text whatever ran before it. *)
let pp ppf t =
  let forced_len = List.length t.forced in
  Format.fprintf ppf
    "@[<v>schedule shrunk to %d forced decision%s (from %d; %d replays):@,"
    forced_len
    (if forced_len = 1 then "" else "s")
    t.original_length t.attempts;
  let locs = Hashtbl.create 16 in
  let renumber (a : S.access) =
    if not (Hashtbl.mem locs a.loc) then
      Hashtbl.add locs a.loc (Hashtbl.length locs);
    { a with loc = Hashtbl.find locs a.loc }
  in
  List.iteri
    (fun i s ->
      if i < forced_len then
        Format.fprintf ppf "  [%3d] fiber %d  %a@," s.s_index s.s_fiber
          (Format.pp_print_option
             ~none:(fun ppf () -> Format.pp_print_string ppf "-")
             S.pp_access)
          (Option.map renumber s.s_access))
    t.steps;
  let rest = List.length t.steps - forced_len in
  if rest > 0 then
    Format.fprintf ppf "  ... %d further deterministic steps to the failure@,"
      rest;
  Format.fprintf ppf "  failure: %s@]" t.message
