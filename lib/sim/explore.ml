(** Systematic exploration of thread interleavings.

    Stateless model checking in the style of CHESS: the program under
    test is re-executed from scratch once per schedule, identified by the
    sequence of scheduler decisions recorded by {!Scheduler}; depth-first
    backtracking enumerates alternatives by bumping the deepest decision
    with an unexplored sibling and replaying the prefix via
    [Scheduler.run ~forced].

    Two modes:

    - {!exhaustive}: every interleaving. Exact but exponential in the
      total number of shared accesses — only for tiny programs (e.g. two
      fibers racing on a counter, or single short queue operations).
    - {!preemption_bounded}: every schedule with at most [budget]
      preemptions (context switches at points where the running fiber
      could have continued). Polynomial for fixed budget, and in practice
      almost all interleaving bugs manifest within 2-3 preemptions
      (Musuvathi & Qadeer, CHESS). This is what makes model-checking the
      Kogan-Petrank operations tractable: a single operation performs
      dozens of shared accesses, far beyond exhaustive reach.

    Plus {!fuzz}: seeded-random schedules for large configurations. *)

type report = {
  schedules : int;  (** number of complete schedules executed *)
  exhausted : bool;  (** false when [max_schedules] stopped the search *)
  failure : (int list * string) option;
      (** first failing schedule (as a [forced] replay prefix) and its
          message *)
}

type mode = Exhaustive | Preemption_bounded of int

(* Canonical enumeration order of the alternatives at one decision:
   default choice first. The default must match the strategy used for
   the unforced continuation, so that a recorded trace entry can be
   located inside this order. *)
let order ~mode ~n ~cur =
  let default =
    match mode with
    | Exhaustive -> 0
    | Preemption_bounded _ -> if cur >= 0 then cur else 0
  in
  default :: List.filter (fun j -> j <> default) (List.init n Fun.id)

let cost ~mode ~cur j =
  match mode with
  | Exhaustive -> 0
  | Preemption_bounded _ -> if cur < 0 || j = cur then 0 else 1

let strategy_of = function
  | Exhaustive -> Scheduler.First_enabled
  | Preemption_bounded _ -> Scheduler.Nonpreemptive

(* Deepest decision with an affordable unexplored sibling; returns the
   new forced prefix. [trace] is (n, idx, cur) in execution order. *)
let next_prefix ~mode ~budget trace =
  let entries = Array.of_list trace in
  let costs =
    Array.map (fun (_, idx, cur) -> cost ~mode ~cur idx) entries
  in
  let spent_before = Array.make (Array.length entries + 1) 0 in
  Array.iteri
    (fun i c -> spent_before.(i + 1) <- spent_before.(i) + c)
    costs;
  let rec scan p =
    if p < 0 then None
    else begin
      let n, idx, cur = entries.(p) in
      let ord = order ~mode ~n ~cur in
      let rec after = function
        | [] -> []
        | j :: rest -> if j = idx then rest else after rest
      in
      let viable =
        List.filter
          (fun j -> spent_before.(p) + cost ~mode ~cur j <= budget)
          (after ord)
      in
      match viable with
      | j :: _ ->
          let prefix =
            List.init p (fun i ->
                let _, chosen, _ = entries.(i) in
                chosen)
          in
          Some (prefix @ [ j ])
      | [] -> scan (p - 1)
    end
  in
  scan (Array.length entries - 1)

let classify (result : Scheduler.result) check =
  match (result.error, result.outcome) with
  | Some e, _ -> Some ("exception: " ^ Printexc.to_string e)
  | None, Scheduler.Step_limit_hit ->
      Some "step limit hit (starvation or livelock)"
  | None, Scheduler.Only_stalled_left ->
      Some "stalled fibers left (unexpected in exploration)"
  | None, Scheduler.Aborted ->
      Some "run aborted (unexpected outside guided exploration)"
  | None, Scheduler.All_finished -> (
      match check result with Ok () -> None | Error msg -> Some msg)

let explore ~mode ?(max_schedules = 200_000) ?(step_limit = 100_000)
    ~(make :
     unit ->
     (unit -> unit) array * (Scheduler.result -> (unit, string) result)) () =
  let budget =
    match mode with Exhaustive -> max_int | Preemption_bounded b -> b
  in
  let strategy = strategy_of mode in
  let rec go forced count =
    if count >= max_schedules then
      { schedules = count; exhausted = false; failure = None }
    else begin
      let fibers, check = make () in
      let result = Scheduler.run ~strategy ~step_limit ~forced fibers in
      match classify result check with
      | Some msg ->
          {
            schedules = count + 1;
            exhausted = false;
            failure =
              Some (List.map (fun (_, i, _) -> i) result.trace, msg);
          }
      | None -> (
          match next_prefix ~mode ~budget result.trace with
          | None ->
              { schedules = count + 1; exhausted = true; failure = None }
          | Some forced' -> go forced' (count + 1))
    end
  in
  go [] 0

let exhaustive ?max_schedules ?step_limit ~make () =
  explore ~mode:Exhaustive ?max_schedules ?step_limit ~make ()

let preemption_bounded ~budget ?max_schedules ?step_limit ~make () =
  explore ~mode:(Preemption_bounded budget) ?max_schedules ?step_limit ~make
    ()

(** PCT fuzzing: [count] runs under {!Scheduler.Pct} with varying seeds.
    [change_points] selects the targeted bug depth minus one;
    [expected_length] should over-approximate the run's step count (it
    is re-estimated from the first run when omitted). *)
let pct ?(seed0 = 0) ?(count = 1000) ?(change_points = 2)
    ?expected_length ?(step_limit = 1_000_000) ~make () =
  let expected_length =
    match expected_length with
    | Some k -> k
    | None ->
        (* Calibration run under the deterministic strategy. *)
        let fibers, _ = make () in
        let r = Scheduler.run ~step_limit fibers in
        max 1 r.Scheduler.total_steps
  in
  let rec go i =
    if i >= count then { schedules = count; exhausted = true; failure = None }
    else begin
      let fibers, check = make () in
      let result =
        Scheduler.run
          ~strategy:
            (Scheduler.Pct
               { seed = seed0 + i; change_points; expected_length })
          ~step_limit fibers
      in
      match classify result check with
      | Some msg ->
          {
            schedules = i + 1;
            exhausted = false;
            failure =
              Some
                ( List.map (fun (_, j, _) -> j) result.trace,
                  Printf.sprintf "%s (pct seed %d)" msg (seed0 + i) );
          }
      | None -> go (i + 1)
    end
  in
  go 0

(** Randomized schedule fuzzing: [count] runs with seeds
    [seed0 .. seed0+count-1], each checked like {!explore}. Complements
    systematic exploration for configurations too large to enumerate. *)
let fuzz ?(seed0 = 0) ?(count = 1000) ?(step_limit = 1_000_000) ~make () =
  let rec go i =
    if i >= count then
      { schedules = count; exhausted = true; failure = None }
    else begin
      let fibers, check = make () in
      let result =
        Scheduler.run
          ~strategy:(Scheduler.Random_seeded (seed0 + i))
          ~step_limit fibers
      in
      match classify result check with
      | Some msg ->
          {
            schedules = i + 1;
            exhausted = false;
            failure =
              Some
                ( List.map (fun (_, j, _) -> j) result.trace,
                  Printf.sprintf "%s (seed %d)" msg (seed0 + i) );
          }
      | None -> go (i + 1)
    end
  in
  go 0
