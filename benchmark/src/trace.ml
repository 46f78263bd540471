(* Spans recorded by the benchmark around its calls into each layer, in
   the traced run only.

   Every call feeds a per-name duration histogram (the summaries). One
   span tree in 64, chosen by hashing the tree id so that every domain
   samples the same trees, is also kept whole in preallocated arrays,
   capped per domain; those trees give self times and the Chrome
   trace-event file. A layer's self time is its span's duration minus
   the time its child spans cover. *)

let names =
  [|
    "core.enq";
    "core.deq";
    "core.deq_empty";
    "gen.wait";
    "event";
    "request";
    "sched.spawn_many";
    "sched.await";
    "sched.yield";
  |]

let core_enq = 0
let core_deq = 1
let core_deq_empty = 2
let gen_wait = 3
let event = 4
let request = 5
let sched_spawn = 6
let sched_await = 7
let sched_yield = 8
let no_parent = -1
let max_spans_per_cell = 100_000

type t = {
  domain : int;
  durations : Hist.t array;
  total_ns : int array;
  s_name : int array;
  s_parent : int array;
  s_id : int array;
  s_start : int array;
  s_stop : int array;
  mutable len : int;
}

let create ~domain ~capacity =
  let arr () = Array.make capacity 0 in
  {
    domain;
    durations = Array.map (fun _ -> Hist.create ()) names;
    total_ns = Array.make (Array.length names) 0;
    s_name = arr ();
    s_parent = arr ();
    s_id = arr ();
    s_start = arr ();
    s_stop = arr ();
    len = 0;
  }

let sampled id = (id * 0x9E3779B97F4A7C1) lsr 20 land 63 = 0

(* A call counted in the summaries only, never kept in a tree. *)
let record t name d =
  Hist.add t.durations.(name) d;
  t.total_ns.(name) <- t.total_ns.(name) + d

let span t name ~parent ~id t0 t1 =
  record t name (t1 - t0);
  if t.len < Array.length t.s_name && sampled id then begin
    let i = t.len in
    t.s_name.(i) <- name;
    t.s_parent.(i) <- parent;
    t.s_id.(i) <- id;
    t.s_start.(i) <- t0;
    t.s_stop.(i) <- t1;
    t.len <- i + 1
  end

let durations ts name = Hist.merge (List.map (fun t -> t.durations.(name)) ts)
let total_ns ts name = List.fold_left (fun acc t -> acc + t.total_ns.(name)) 0 ts

(* Self time of each sampled root span: its duration minus the union of
   its children's intervals, clipped to its own. *)
let self_times ts =
  let children = Hashtbl.create 1024 and roots = ref [] in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        let s = (t.s_name.(i), t.s_start.(i), t.s_stop.(i)) in
        if t.s_parent.(i) = no_parent then roots := (t.s_id.(i), s) :: !roots
        else Hashtbl.add children t.s_id.(i) s
      done)
    ts;
  let per_name = Array.map (fun _ -> Hist.create ()) names in
  List.iter
    (fun (id, (name, r0, r1)) ->
      let kids =
        Hashtbl.find_all children id
        |> List.map (fun (_, a, b) -> (max a r0, min b r1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, r0) kids
      in
      if kids <> [] then Hist.add per_name.(name) (r1 - r0 - covered))
    !roots;
  per_name

let summary ts =
  let self = self_times ts in
  Json.Obj
    (Array.to_list names
    |> List.mapi (fun i name -> (i, name))
    |> List.filter_map (fun (i, name) ->
           let h = durations ts i in
           if Hist.count h = 0 then None
           else
             let fields =
               [
                 ("count", Json.Num (float_of_int (Hist.count h)));
                 ("p50_ns", Json.Num (Hist.quantile h 0.5));
                 ("p99_ns", Json.Num (Hist.quantile h 0.99));
                 ("total_ns", Json.Num (float_of_int (total_ns ts i)));
               ]
               @
               if Hist.count self.(i) = 0 then []
               else [ ("self_p50_ns", Json.Num (Hist.quantile self.(i) 0.5)) ]
             in
             Some (name, Json.Obj fields)))

(* Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
   event per sampled span, times in microseconds from the first span. *)
let write_chrome path ts =
  let origin =
    List.fold_left
      (fun acc t -> if t.len > 0 then min acc t.s_start.(0) else acc)
      max_int ts
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
      let first = ref true in
      List.iter
        (fun t ->
          for i = 0 to t.len - 1 do
            if not !first then output_string oc ",\n";
            first := false;
            let parent =
              if t.s_parent.(i) = no_parent then "" else names.(t.s_parent.(i))
            in
            Printf.fprintf oc
              "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
               \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": \
               \"%s\"}}"
              names.(t.s_name.(i))
              t.domain
              (float_of_int (t.s_start.(i) - origin) /. 1e3)
              (float_of_int (t.s_stop.(i) - t.s_start.(i)) /. 1e3)
              t.s_id.(i) parent
          done)
        ts;
      output_string oc "]}\n")
