let csv_string cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~path ~header ~rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," (List.map csv_string header));
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," (List.map csv_string row));
          output_char oc '\n')
        rows)

let table_to_string ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> if String.length cell > width.(i) then width.(i) <- String.length cell))
    all;
  let buf = Buffer.create 256 in
  let add_row r =
    List.iteri (fun i cell -> Buffer.add_string buf (Printf.sprintf "%-*s  " width.(i) cell)) r;
    Buffer.add_char buf '\n'
  in
  add_row header;
  add_row (List.init (List.length header) (fun i -> String.make width.(i) '-'));
  List.iter add_row rows;
  Buffer.contents buf

let table ~header ~rows = print_string (table_to_string ~header ~rows)

let series ~title ~xlabel ~ylabel points =
  Printf.printf "\n%s\n" title;
  let ymax = List.fold_left (fun acc (_, y) -> Float.max acc y) 1.0 points in
  Printf.printf "  %12s  %12s\n" xlabel ylabel;
  List.iter
    (fun (x, y) ->
      let bar = int_of_float (40.0 *. y /. ymax) in
      Printf.printf "  %12g  %12.2f  %s\n" x y (String.make (max 0 bar) '#'))
    points

let slope points =
  (* least squares y = a x + b over the given points *)
  match points with
  | [] | [ _ ] -> 0.0
  | _ ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-9 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom

let positive points = List.filter (fun (x, y) -> x > 0.0 && y > 0.0) points

let fit_exponent points = slope (List.map (fun (x, y) -> (log x, log y)) (positive points))

type growth = Flat | Logarithmic | Sqrt | Linear | Superlinear

let pp_growth ppf g =
  Fmt.string ppf
    (match g with
    | Flat -> "O(1)"
    | Logarithmic -> "~log"
    | Sqrt -> "~sqrt"
    | Linear -> "~linear"
    | Superlinear -> "superlinear")

let classify points =
  let e = fit_exponent points in
  if e < 0.12 then Flat
  else if e < 0.33 then Logarithmic
  else if e < 0.72 then Sqrt
  else if e < 1.3 then Linear
  else Superlinear

type classification = { pm1 : bool; pm2a : bool; pm2b : bool; pm3a : bool; pm3b : bool }

let adaptivity_name c =
  if c.pm2b then "super-adaptive"
  else if c.pm2a then "adaptive"
  else if c.pm1 then "semi-adaptive"
  else "non-adaptive"

let boundedness_name c = if c.pm3b then "well-bounded" else if c.pm3a then "bounded" else "unbounded"

let classify_lock ~failure_free_vs_n ~rmr_vs_f ~limited_vs_n ~arbitrary_vs_n =
  let pm1 = classify failure_free_vs_n = Flat in
  let f_growth = classify rmr_vs_f in
  (* PM2a: the limited-failure cost must be O(g(F)) for a monotone function
     of F alone — so besides at-most-linear growth in F (GR §4.1's O(F) is
     still "adaptive"), the cost at a fixed small F must not scale with n
     (that is what separates semi-adaptive locks, whose first failure sends
     them to an O(h(n)) core, from adaptive ones).  PM2b: o(F). *)
  let f_only = classify limited_vs_n = Flat in
  let pm2a = pm1 && f_only && f_growth <> Superlinear in
  let pm2b = pm2a && (f_growth = Flat || f_growth = Logarithmic || f_growth = Sqrt) in
  let n_growth = classify arbitrary_vs_n in
  let pm3a = n_growth <> Superlinear in
  (* PM3b (o(log n)): flat or very slowly growing curves qualify.  Over
     n in [4, 64] the measured binary tournament (a true Theta(log n) lock)
     fits an exponent of ~0.4 while the sub-logarithmic locks fit ~0.2-0.26,
     so 0.3 cleanly separates the two regimes (see EXPERIMENTS.md). *)
  let pm3b = pm3a && (n_growth = Flat || fit_exponent arbitrary_vs_n < 0.3) in
  { pm1; pm2a; pm2b; pm3a; pm3b }
