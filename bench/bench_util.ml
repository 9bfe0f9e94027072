(* Shared machinery for the benchmark harness: bechamel wrappers, table
   printing, and the correlation statistics used by Figure 6. *)

let bechamel_ns ?(quota = 0.5) tests =
  (* tests: (name, thunk) list -> (name, estimated ns/run) list via OLS *)
  let open Bechamel in
  let elts = List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" elts in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let raws = Benchmark.all cfg [ instance ] grouped in
  List.filter_map
    (fun (name, _) ->
      match Hashtbl.find_opt raws name with
      | None -> None
      | Some raw ->
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:(Measure.label instance)
              ~predictors:[| Measure.run |] raw.Benchmark.lr
          in
          (match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Some (name, est)
          | _ -> None))
    tests

(* ------------------------------------------------------------------ *)
(* Table printing                                                      *)
(* ------------------------------------------------------------------ *)

let print_table ~title ~headers rows =
  Printf.printf "\n### %s\n\n" title;
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) headers;
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row)
    rows;
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%s%-*s" (if i = 0 then "| " else " | ") widths.(i) cell)
      cells;
    print_string " |\n"
  in
  print_row headers;
  List.iteri (fun i _ -> Printf.printf "%s%s" (if i = 0 then "|" else "|") (String.make (widths.(i) + 2) '-')) headers;
  print_string "|\n";
  List.iter print_row rows

let fmt_seconds s =
  if s >= 100.0 then Printf.sprintf "%.0f" s
  else if s >= 1.0 then Printf.sprintf "%.1f" s
  else Printf.sprintf "%.2f" s

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let pearson xs ys =
  let mx = mean xs and my = mean ys in
  let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy))
    xs;
  if !vx = 0.0 || !vy = 0.0 then 0.0 else !cov /. sqrt (!vx *. !vy)

let ranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) order;
  let r = Array.make n 0.0 in
  Array.iteri (fun rank idx -> r.(idx) <- float_of_int rank) order;
  r

let spearman xs ys = pearson (ranks xs) (ranks ys)

(* popcount-based rotation count under power-of-two keys only: a rotation by
   [a] costs one application per set bit, taking the cheaper direction *)
let pow2_rotation_count ~slots amount =
  let popcount x =
    let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
    loop x 0
  in
  let a = ((amount mod slots) + slots) mod slots in
  if a = 0 then 0 else Stdlib.min (popcount a) (popcount (slots - a))

