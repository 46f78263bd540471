(** Deterministic concurrency simulator.

    The host for this reproduction has a single core, so genuinely
    parallel interleavings are scarce; worse, real schedulers rarely
    produce the adversarial interleavings that concurrency proofs are
    about. This scheduler runs N {e fibers} (effect-handler coroutines)
    in one OCaml domain and context-switches them at every shared-memory
    access: {!Sim_atomic} performs the {!Yield} effect before each
    operation, handing control back here. Because the algorithms are
    functors over [ATOMIC], the exact code benchmarked on real domains is
    the code explored here.

    Supported controls:
    - {e strategies}: first-enabled (deterministic), round-robin, seeded
      random, each optionally preceded by a forced replay prefix (used by
      {!Explore} for exhaustive enumeration);
    - {e stall injection}: a fiber can be frozen after a given number of
      steps, modelling a thread preempted for arbitrarily long — the
      scenario wait-freedom is about;
    - {e step limits}: a bounded run that does not finish indicates
      starvation or deadlock, which is itself an observable outcome for
      tests (e.g. a blocked lock-based queue).

    Single-domain use only; a run is not reentrant. *)

type access_kind = Read | Write | Rmw

type access = { loc : int; kind : access_kind }
(* [loc] is the cell identity ({!Sim_atomic} allocates them from a
   counter); ids are only meaningful within one execution. *)

let pp_access_kind ppf = function
  | Read -> Format.pp_print_string ppf "R"
  | Write -> Format.pp_print_string ppf "W"
  | Rmw -> Format.pp_print_string ppf "U"

let pp_access ppf a = Format.fprintf ppf "%a#%d" pp_access_kind a.kind a.loc

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Yield_access : access -> unit Effect.t

(* Performed by Sim_atomic before every shared access; also usable
   directly by test fibers to add schedule points. *)
let yield () = Effect.perform Yield
let yield_access a = Effect.perform (Yield_access a)

exception Abort_run
(* Raised by a [Guided] callback to cut the current execution short
   (e.g. DPOR sleep-set pruning); the run finishes with {!Aborted}
   after cleanly unwinding every paused fiber. *)

type guided_ctx = {
  g_step : int;  (** scheduling decisions taken so far (0-based index) *)
  g_enabled : (int * access option) list;
      (** enabled fibers in ascending id order: (fiber id, the shared
          access it will perform when resumed next, or [None] when its
          next slice performs none — first slice or final return) *)
  g_cur : int;
      (** index of the previously-running fiber within [g_enabled], or
          -1 if it is not enabled *)
}

type strategy =
  | First_enabled  (** always pick the lowest-id enabled fiber *)
  | Round_robin  (** rotate over enabled fibers *)
  | Random_seeded of int  (** uniform choice from a SplitMix64 stream *)
  | Nonpreemptive
      (** keep running the current fiber while it stays enabled; switch
          (to the lowest-id enabled fiber) only when it finishes or
          stalls — the zero-preemption baseline of CHESS-style
          preemption-bounded exploration *)
  | Pct of { seed : int; change_points : int; expected_length : int }
      (** probabilistic concurrency testing (Burckhardt et al., ASPLOS
          2010): fibers get random distinct priorities and the
          highest-priority enabled fiber always runs; at [change_points]
          step indices drawn uniformly from [1, expected_length] the
          running fiber's priority drops below everyone's. Hits any bug
          of preemption depth d = change_points+1 with probability at
          least 1/(n * k^(d-1)). *)
  | Guided of (guided_ctx -> int)
      (** the callback picks the enabled-list index to run at every
          decision, seeing each enabled fiber's pending shared access —
          the hook {!Dpor} drives exploration through. It may raise
          {!Abort_run} to end the run with {!Aborted}. *)

type resume_state =
  | Fresh of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Finished

type fiber = {
  id : int;
  mutable resume : resume_state;
  mutable steps : int;
  mutable stalled : bool;
  mutable next_access : access option;
      (* the shared access this paused fiber will perform when resumed,
         as reported by the Yield_access it paused on *)
}

type outcome =
  | All_finished
  | Step_limit_hit
      (** the run exceeded its step budget: starvation/deadlock signal *)
  | Only_stalled_left
      (** every non-stalled fiber finished while stalled ones remain *)
  | Aborted
      (** a [Guided] callback raised {!Abort_run} (sleep-set pruning) *)

type decision = {
  d_enabled : (int * access option) list;
      (** the enabled fibers at this decision, ascending id order, each
          with the shared access its next slice performs (if any) *)
  d_chosen : int;  (** fiber id that was resumed *)
  d_index : int;  (** index of the chosen fiber within [d_enabled] *)
  d_access : access option;  (** the access the chosen slice performed *)
}

type result = {
  outcome : outcome;
  steps : int array;  (** per-fiber step counts *)
  total_steps : int;
  trace : (int * int * int) list;
      (** per scheduling decision, in execution order: (number of enabled
          fibers, index of the chosen one within the enabled list, index
          of the previously-running fiber within the enabled list, or -1
          if it is not enabled). Replaying the chosen indices through
          [forced] reproduces the run; the third component lets
          {!Explore} count preemptions. *)
  decisions : decision list;
      (** the same decisions with fiber ids and access metadata — what
          {!Dpor} analyses and {!Shrink} pretty-prints *)
  error : exn option;  (** first exception raised inside a fiber *)
}

exception Fiber_aborted
(* Used to unwind fibers abandoned at the end of a run (stalled or over
   the step limit), so their continuations are discontinued cleanly. *)

type t = {
  fibers : fiber array;
  strategy : strategy;
  step_limit : int;
  stall_after : int array; (* -1 = never stall *)
  resume_stalled : bool;
  mutable forced : int list; (* replay prefix: enabled-list indices *)
  mutable trace_rev : (int * int * int) list;
  mutable decisions_rev : decision list;
  mutable last_run : int; (* fiber id of the last resumed fiber, or -1 *)
  mutable total_steps : int;
  mutable rr_cursor : int;
  rng : Wfq_primitives.Rng.t;
  pct_priorities : int array; (* higher runs first; empty unless Pct *)
  pct_changes : (int, unit) Hashtbl.t; (* step indices triggering drops *)
  mutable pct_next_low : int;
  mutable error : exn option;
}

let start_fiber t fiber thunk =
  Effect.Deep.match_with thunk ()
    {
      retc = (fun () -> fiber.resume <- Finished);
      exnc =
        (fun e ->
          fiber.resume <- Finished;
          match e with
          | Fiber_aborted -> ()
          | e -> if t.error = None then t.error <- Some e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  fiber.next_access <- None;
                  fiber.resume <- Paused k)
          | Yield_access acc ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  fiber.next_access <- Some acc;
                  fiber.resume <- Paused k)
          | _ -> None);
    }

let resume_fiber t (fiber : fiber) =
  fiber.steps <- fiber.steps + 1;
  t.total_steps <- t.total_steps + 1;
  (* If the slice runs to completion without yielding again, no stale
     pending access must survive. *)
  fiber.next_access <- None;
  match fiber.resume with
  | Fresh thunk -> start_fiber t fiber thunk
  | Paused k ->
      fiber.resume <- Paused k;
      Effect.Deep.continue k ()
  | Finished -> assert false

let is_finished (f : fiber) = match f.resume with Finished -> true | _ -> false

let enabled_fibers t =
  Array.to_list t.fibers
  |> List.filter (fun f -> (not (is_finished f)) && not f.stalled)

let apply_stalls t =
  Array.iter
    (fun (f : fiber) ->
      let threshold = t.stall_after.(f.id) in
      if threshold >= 0 && f.steps >= threshold then f.stalled <- true)
    t.fibers

let index_of_fiber enabled id =
  let rec go i = function
    | [] -> -1
    | (f : fiber) :: rest -> if f.id = id then i else go (i + 1) rest
  in
  go 0 enabled

let choose t enabled =
  let n = List.length enabled in
  let cur = index_of_fiber enabled t.last_run in
  let enabled_acc =
    List.map (fun (f : fiber) -> (f.id, f.next_access)) enabled
  in
  let idx =
    match t.forced with
    | i :: rest ->
        t.forced <- rest;
        if i >= n then
          invalid_arg "Scheduler: forced choice out of range (bad replay?)";
        i
    | [] -> (
        match t.strategy with
        | First_enabled -> 0
        | Nonpreemptive -> if cur >= 0 then cur else 0
        | Round_robin ->
            let i = t.rr_cursor mod n in
            t.rr_cursor <- t.rr_cursor + 1;
            i
        | Random_seeded _ -> Wfq_primitives.Rng.below t.rng n
        | Pct _ ->
            (* Priority drop at a change point applies to the fiber that
               just ran, before picking the next one. *)
            if Hashtbl.mem t.pct_changes t.total_steps && t.last_run >= 0
            then begin
              t.pct_priorities.(t.last_run) <- t.pct_next_low;
              t.pct_next_low <- t.pct_next_low - 1
            end;
            let best = ref 0 and best_prio = ref min_int in
            List.iteri
              (fun i (f : fiber) ->
                if t.pct_priorities.(f.id) > !best_prio then begin
                  best := i;
                  best_prio := t.pct_priorities.(f.id)
                end)
              enabled;
            !best
        | Guided g ->
            let i =
              g { g_step = t.total_steps; g_enabled = enabled_acc; g_cur = cur }
            in
            if i < 0 || i >= n then
              invalid_arg "Scheduler: guided choice out of range";
            i)
  in
  t.trace_rev <- (n, idx, cur) :: t.trace_rev;
  let f = List.nth enabled idx in
  t.decisions_rev <-
    {
      d_enabled = enabled_acc;
      d_chosen = f.id;
      d_index = idx;
      d_access = f.next_access;
    }
    :: t.decisions_rev;
  t.last_run <- f.id;
  f

let cleanup t =
  (* Discontinue abandoned fibers so their stacks unwind. *)
  Array.iter
    (fun (f : fiber) ->
      match f.resume with
      | Paused k ->
          f.stalled <- false;
          (try Effect.Deep.discontinue k Fiber_aborted with Fiber_aborted -> ())
      | Fresh _ | Finished -> ())
    t.fibers

let finish t outcome =
  cleanup t;
  {
    outcome;
    steps = Array.map (fun (f : fiber) -> f.steps) t.fibers;
    total_steps = t.total_steps;
    trace = List.rev t.trace_rev;
    decisions = List.rev t.decisions_rev;
    error = t.error;
  }

let rec loop t =
  if t.total_steps >= t.step_limit then finish t Step_limit_hit
  else begin
    apply_stalls t;
    match enabled_fibers t with
    | [] ->
        let unfinished = Array.exists (fun f -> not (is_finished f)) t.fibers
        in
        if not unfinished then finish t All_finished
        else if
          t.resume_stalled
          && Array.exists (fun f -> f.stalled && not (is_finished f)) t.fibers
        then begin
          (* Model the stalled threads eventually waking up (after the
             arbitrarily long preemption): clear stalls and continue. *)
          Array.iter
            (fun f ->
              f.stalled <- false;
              (* make the stall one-shot *)
              t.stall_after.(f.id) <- -1)
            t.fibers;
          loop t
        end
        else finish t Only_stalled_left
    | enabled -> (
        match choose t enabled with
        | exception Abort_run -> finish t Aborted
        | fiber ->
            resume_fiber t fiber;
            loop t)
  end

(** Run [f] with {!Yield} handled as a no-op: lets test code call
    simulator-instantiated observers (which perform yields) outside a
    scheduled run, e.g. to inspect a queue after all fibers finished. *)
let ignore_yields f =
  Effect.Deep.match_with f ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | Yield_access _ ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let run ?(strategy = First_enabled) ?(step_limit = 1_000_000)
    ?(stalls = []) ?(resume_stalled = false) ?(forced = []) thunks =
  let n = Array.length thunks in
  if n = 0 then invalid_arg "Scheduler.run: no fibers";
  let stall_after = Array.make n (-1) in
  List.iter
    (fun (id, after) ->
      if id < 0 || id >= n then invalid_arg "Scheduler.run: bad stall id";
      stall_after.(id) <- after)
    stalls;
  let seed =
    match strategy with
    | Random_seeded s -> s
    | Pct { seed; _ } -> seed
    | First_enabled | Round_robin | Nonpreemptive | Guided _ -> 0
  in
  let t =
    {
      fibers =
        Array.init n (fun id ->
            {
              id;
              resume = Fresh thunks.(id);
              steps = 0;
              stalled = false;
              next_access = None;
            });
      strategy;
      step_limit;
      stall_after;
      resume_stalled;
      forced;
      trace_rev = [];
      decisions_rev = [];
      last_run = -1;
      total_steps = 0;
      rr_cursor = 0;
      rng = Wfq_primitives.Rng.create ~seed;
      pct_priorities = Array.make n 0;
      pct_changes = Hashtbl.create 8;
      pct_next_low = -1;
      error = None;
    }
  in
  (match strategy with
  | Pct { change_points; expected_length; _ } ->
      (* Random distinct initial priorities: a Fisher-Yates shuffle of
         1..n driven by the seeded stream. *)
      let perm = Array.init n (fun i -> i + 1) in
      for i = n - 1 downto 1 do
        let j = Wfq_primitives.Rng.below t.rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      Array.blit perm 0 t.pct_priorities 0 n;
      for _ = 1 to change_points do
        Hashtbl.replace t.pct_changes
          (1 + Wfq_primitives.Rng.below t.rng (max 1 expected_length))
          ()
      done
  | First_enabled | Round_robin | Random_seeded _ | Nonpreemptive | Guided _ ->
      ());
  loop t
