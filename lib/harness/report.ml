(** Plain-text rendering of benchmark results: one table per paper
    figure, x values down the rows and one column per series, mirroring
    the data behind the paper's line plots. *)

type series = { label : string; points : (float * float) list }

let find_y s x =
  List.assoc_opt x s.points

let print_table ~title ~x_label series =
  Printf.printf "\n== %s ==\n" title;
  let xs =
    List.concat_map (fun s -> List.map fst s.points) series
    |> List.sort_uniq compare
  in
  let col_width =
    List.fold_left (fun acc s -> max acc (String.length s.label)) 10 series
    + 2
  in
  Printf.printf "%-12s" x_label;
  List.iter (fun s -> Printf.printf "%*s" col_width s.label) series;
  print_newline ();
  List.iter
    (fun x ->
      Printf.printf "%-12g" x;
      List.iter
        (fun s ->
          match find_y s x with
          | Some y -> Printf.printf "%*.4f" col_width y
          | None -> Printf.printf "%*s" col_width "-")
        series;
      print_newline ())
    xs;
  flush stdout

let print_csv ~title series =
  Printf.printf "\n# csv: %s\n" title;
  Printf.printf "x,%s\n" (String.concat "," (List.map (fun s -> s.label) series));
  let xs =
    List.concat_map (fun s -> List.map fst s.points) series
    |> List.sort_uniq compare
  in
  List.iter
    (fun x ->
      let cells =
        List.map
          (fun s ->
            match find_y s x with
            | Some y -> Printf.sprintf "%.6f" y
            | None -> "")
          series
      in
      Printf.printf "%g,%s\n" x (String.concat "," cells))
    xs;
  flush stdout
