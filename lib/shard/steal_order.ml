(* Single-lap ring sweep order. The arithmetic is deliberately the
   branch-and-subtract form rather than [mod]: both arguments are
   already reduced, so one comparison replaces a division in code that
   runs once per visited queue on the dequeue path. *)

let check ~n ~start =
  if n <= 0 then invalid_arg "Steal_order: n must be positive";
  if start < 0 || start >= n then invalid_arg "Steal_order: start"

let visit ~n ~start i =
  check ~n ~start;
  if i < 0 || i >= n then invalid_arg "Steal_order: position";
  let s = start + i in
  if s >= n then s - n else s

let order ~n ~start =
  check ~n ~start;
  List.init n (fun i -> visit ~n ~start i)
