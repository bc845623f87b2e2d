(* Exit-code contract of the analysing subcommands:

     unknown analysis        exit 2, stderr names it
     MJ syntax error         exit 1
     analysis out of time    exit 3

   except that the per-strategy tables of [compare] and [taint] print a
   strategy that runs out of time as a "-" row and exit 0.  The timeout
   cases run [gen cyclic] under 2obj+H with a zero budget: the budget
   polls the clock every 4096 worklist ticks, so a tiny program would
   finish before noticing.

   usage: check_exits POINTSTO SAMPLE.mj BAD.mj CYCLIC.mj *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      incr failures)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

(* Run [prog args], returning its exit code, stdout and stderr. *)
let run prog args =
  let out = Filename.temp_file "exits" ".out"
  and err = Filename.temp_file "exits" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let res = (code, read out, read err) in
  Sys.remove out;
  Sys.remove err;
  res

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A table row whose cells after the label are all "-". *)
let has_dash_row ~label out =
  List.exists
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | l :: (_ :: _ as cells) -> l = label && List.for_all (( = ) "-") cells
      | _ -> false)
    (String.split_on_char '\n' out)

let () =
  let pointsto, sample, bad, cyclic =
    match Sys.argv with
    | [| _; p; s; b; c |] -> (p, s, b, c)
    | _ ->
      prerr_endline "usage: check_exits POINTSTO SAMPLE BAD CYCLIC";
      exit 2
  in
  let expect ?stderr_has ?dash_row code args =
    let got, out, err = run pointsto args in
    let shown = String.concat " " args in
    if got <> code then
      fail "%s: exit %d, expected %d\nstderr: %s" shown got code err;
    Option.iter
      (fun sub ->
        if not (contains ~sub err) then
          fail "%s: stderr lacks %S\nstderr: %s" shown sub err)
      stderr_has;
    Option.iter
      (fun label ->
        if not (has_dash_row ~label out) then
          fail "%s: no \"-\" row for %s\nstdout: %s" shown label out)
      dash_row
  in
  (* Every subcommand that solves one strategy picked with [-a]. *)
  let single =
    [
      [ "analyze" ]; [ "query"; "--method"; "Main.main/0"; "--var"; "a" ];
      [ "why"; "--method"; "Main.main/0"; "--var"; "a" ]; [ "casts" ];
      [ "callgraph" ]; [ "stats" ]; [ "profile" ]; [ "exceptions" ];
      [ "metrics" ]; [ "heapmap" ]; [ "check" ]; [ "taint" ];
      [ "profile"; "--datalog" ]; [ "metrics"; "--datalog" ];
      [ "heapmap"; "--datalog" ];
    ]
  in
  let unknown = "unknown analysis \"nope\"" in
  List.iter
    (fun sub ->
      expect 2 ~stderr_has:unknown (sub @ [ sample; "-a"; "nope" ]);
      expect 1 (sub @ [ bad; "-a"; "insens" ]);
      expect 3 (sub @ [ cyclic; "-a"; "2obj+H"; "--timeout"; "0" ]))
    single;
  expect 2 ~stderr_has:unknown [ "compare"; sample; "--analyses"; "nope" ];
  expect 1 [ "compare"; bad ];
  expect 0 ~dash_row:"2obj+H"
    [ "compare"; cyclic; "--analyses"; "2obj+H"; "--timeout"; "0" ];
  (* [taint] without [-a] is the per-strategy table. *)
  expect 1 [ "taint"; bad ];
  expect 0 ~dash_row:"insens" [ "taint"; cyclic; "--timeout"; "0" ];
  if !failures > 0 then exit 1
