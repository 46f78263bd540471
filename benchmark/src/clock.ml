(* CLOCK_MONOTONIC in nanoseconds through bechamel's Monotonic_clock stub,
   the clock the repository's own harness uses. Binding the stub here
   rather than calling [Monotonic_clock.now] keeps the int64 unboxed, so
   a clock read never allocates, even where the call is not inlined. *)
external now_int64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_int64 ())
