(* Tests for outcome export to CSV. *)

let outcome ?(id = 0) ?(user = 0) ?(submit = 0.0) ~wait () =
  let job = Helpers.job ~id ~submit ~nodes:4 ~runtime:600.0 ~user () in
  Metrics.Outcome.v ~job ~start:(submit +. wait)

(* The lines [Export.to_csv] writes for [outcomes]. *)
let csv_lines outcomes =
  let path = Filename.temp_file "export" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Metrics.Export.to_csv path outcomes;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

let test_csv_row () =
  match csv_lines [ outcome ~id:3 ~user:7 ~wait:120.0 () ] with
  | [ _; row ] ->
      Alcotest.(check string) "row" "3,7,4,0,120,720,600,600,120,1.2000" row
  | lines -> Alcotest.failf "expected header and one row, got %d lines"
               (List.length lines)

let test_csv_file () =
  let lines =
    csv_lines
      [ outcome ~id:1 ~submit:50.0 ~wait:0.0 (); outcome ~id:0 ~wait:10.0 () ]
  in
  Alcotest.(check string) "header"
    "id,user,nodes,submit,start,finish,runtime,requested,wait,bounded_slowdown"
    (List.nth lines 0);
  (* submit order: job 0 (t=0) before job 1 (t=50) *)
  Alcotest.(check bool) "sorted by submit" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '0')

let suite =
  [
    Alcotest.test_case "csv row" `Quick test_csv_row;
    Alcotest.test_case "csv file" `Quick test_csv_file;
  ]
