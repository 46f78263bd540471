(** Coarse-grained baseline: [Stdlib.Queue] under a single mutex, shared
    by the test executables of this directory. *)

type 'a t = { q : 'a Queue.t; lock : Mutex.t }

let name = "mutex"
let create ~num_threads:_ () = { q = Queue.create (); lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let enqueue t ~tid:_ value = with_lock t (fun () -> Queue.push value t.q)
let dequeue t ~tid:_ = with_lock t (fun () -> Queue.take_opt t.q)
let is_empty t = with_lock t (fun () -> Queue.is_empty t.q)
let length t = with_lock t (fun () -> Queue.length t.q)
let to_list t = with_lock t (fun () -> List.of_seq (Queue.to_seq t.q))
