(* A round's two domains run on two different CPUs. Left to the kernel,
   one round in eight or so kept both on one vCPU for most of its
   window, taking turns: a pairs round then timed uncontended pairs,
   and a handoff round waited a time slice for each event. *)

(* [pin i] binds the calling domain to the [i]-th CPU the process may
   run on; false when there is no such CPU or the kernel refuses, and
   the domain then stays where it is allowed to be. *)
external pin : int -> bool = "wfq_benchmark_pin" [@@noalloc]

(* A new domain starts with its parent's affinity. [spawn_second f]
   runs [f] with the caller bound to the second CPU, so that a domain
   spawned in [f] starts there, then binds the caller to the first. *)
let spawn_second f =
  ignore (pin 1);
  Fun.protect ~finally:(fun () -> ignore (pin 0)) f
