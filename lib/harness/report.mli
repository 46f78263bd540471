(** Plain-text rendering of benchmark series: one table per paper
    figure (x values down the rows, one column per series), plus CSV for
    machine consumption. *)

type series = { label : string; points : (float * float) list }

val print_table : title:string -> x_label:string -> series list -> unit

val print_csv : title:string -> series list -> unit
