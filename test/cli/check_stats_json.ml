(* Schema check for `pointsto analyze --stats-json`: the emitted file
   must be valid JSON carrying the documented keys with the documented
   types.  Time-valued fields vary run to run, so only presence and type
   are checked here — value determinism is covered by test_obs. *)

module Json = Pta_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ -> fail "usage: check_stats_json FILE"
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json =
    match Json.of_string contents with
    | Ok json -> json
    | Error msg -> fail "%s: not valid JSON: %s" path msg
  in
  let get name =
    match Json.member name json with
    | Some v -> v
    | None -> fail "%s: key %S missing" path name
  in
  let check name kind decode =
    match decode (get name) with
    | Some _ -> ()
    | None -> fail "%s: key %S is not %s" path name kind
  in
  check "analysis" "a string" Json.to_str;
  check "wall_time_s" "a number" Json.to_float;
  List.iter
    (fun name -> check name "an integer" Json.to_int)
    [
      "iterations"; "n_nodes"; "n_edges"; "n_ctxs"; "n_hctxs"; "n_hobjs";
      "sensitive_vpt_size"; "triggers"; "delta_total"; "max_delta";
    ];
  (match Json.to_obj (get "phases") with
  | None -> fail "%s: key \"phases\" is not an object" path
  | Some phases ->
    (* --stats-json implies a live registry, so the census runs and
       reports its own cost next to the solver's phases. *)
    List.iter
      (fun name ->
        if not (List.mem_assoc name phases) then
          fail "%s: phases lacks a %S entry" path name)
      [ "setup"; "fixpoint"; "census" ];
    List.iter
      (fun (name, v) ->
        match Json.to_float v with
        | Some _ -> ()
        | None -> fail "%s: phase %S is not a number" path name)
      phases);
  (* --stats-json implies a live metric registry, so the document must
     carry the GC profile, the metrics export, and the build stamp. *)
  (match Json.to_obj (get "memory") with
  | None -> fail "%s: key \"memory\" is not an object" path
  | Some fields ->
    List.iter
      (fun name ->
        match Option.bind (List.assoc_opt name fields) Json.to_float with
        | Some _ -> ()
        | None -> fail "%s: memory.%s missing or not a number" path name)
      [
        "minor_allocated_words"; "major_allocated_words"; "peak_heap_words";
        "major_collections";
      ]);
  (match Json.to_obj (get "metrics") with
  | None -> fail "%s: key \"metrics\" is not an object" path
  | Some families ->
    List.iter
      (fun name ->
        if not (List.mem_assoc name families) then
          fail "%s: metrics lacks the %S family" path name)
      [
        "pta_gc_peak_heap_words"; "pta_solver_nodes"; "pta_solver_pts_size";
        (* cycle-elimination counters: registered eagerly, so present
           (zero-valued) even when the program is too small to trigger a
           collapse *)
        "pta_solver_sccs_collapsed_total"; "pta_solver_nodes_unified_total";
        "pta_solver_redundant_visits_avoided_total";
        (* parallel-drain telemetry: likewise eager, zero-valued on a
           sequential (jobs=1) run *)
        "pta_solver_steals_total"; "pta_solver_mailbox_deltas_total";
        "pta_solver_domain_iterations_total"; "pta_solver_domains";
      ]);
  (match Json.to_obj (get "pointsto") with
  | None -> fail "%s: key \"pointsto\" is not an object" path
  | Some stamp ->
    List.iter
      (fun name ->
        match Option.bind (List.assoc_opt name stamp) Json.to_str with
        | Some _ -> ()
        | None -> fail "%s: pointsto.%s missing or not a string" path name)
      [ "version"; "commit"; "ocaml"; "profile" ]);
  print_endline "stats JSON schema ok"
