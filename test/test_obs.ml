(** Tests for the pta_obs observability layer and its integration with
    the solver: counter determinism, observational transparency of the
    null observer, budget cancellation, and stats JSON round-tripping. *)

module Solver = Pta_solver.Solver
module Budget = Pta_obs.Budget
module Observer = Pta_obs.Observer
module Recorder = Pta_obs.Recorder
module Run_stats = Pta_obs.Run_stats
module Json = Pta_obs.Json
module Driver = Pta_driver.Driver
module Metrics = Pta_clients.Metrics

let tiny_program () =
  Pta_workloads.Workloads.program
    (Option.get (Pta_workloads.Profile.by_name "tiny"))

let collect_run ?(analysis = "S-2obj+H") program =
  match Driver.run ~collect_stats:true program ~analysis with
  | Ok r -> Option.get r.Driver.stats
  | Error e -> Alcotest.failf "driver error: %a" Driver.pp_error e

(* Every non-time field of two identical runs must agree: the solver is
   deterministic, and the recorder must observe it faithfully. *)
let counters_deterministic_test () =
  let program = tiny_program () in
  let s1 = collect_run program and s2 = collect_run program in
  let check name f = Alcotest.(check int) name (f s1) (f s2) in
  check "iterations" (fun s -> s.Run_stats.iterations);
  check "n_nodes" (fun s -> s.Run_stats.n_nodes);
  check "n_edges" (fun s -> s.Run_stats.n_edges);
  check "n_ctxs" (fun s -> s.Run_stats.n_ctxs);
  check "n_hctxs" (fun s -> s.Run_stats.n_hctxs);
  check "n_hobjs" (fun s -> s.Run_stats.n_hobjs);
  check "sensitive_vpt_size" (fun s -> s.Run_stats.sensitive_vpt_size);
  check "triggers" (fun s -> s.Run_stats.triggers);
  check "delta_total" (fun s -> s.Run_stats.delta_total);
  check "max_delta" (fun s -> s.Run_stats.max_delta);
  Alcotest.(check (list string))
    "same phases"
    (List.map fst s1.Run_stats.phases)
    (List.map fst s2.Run_stats.phases)

(* Installing an observer must not change what the solver computes: the
   metric bundle with a live recorder must be identical to the one from
   a bare run (null observer). *)
let observer_transparent_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let bare = Metrics.compute (Solver.solve program (factory program)) in
  let recorder = Recorder.create () in
  let config = Solver.Config.make ~observer:(Recorder.observer recorder) () in
  let observed =
    Metrics.compute (Solver.solve ~config program (factory program))
  in
  Alcotest.(check bool) "identical metric bundles" true (bare = observed);
  Alcotest.(check bool) "recorder saw the run" true (Recorder.nodes recorder > 0)

(* Cancelling the budget from an observer hook must abort the solve
   within one worklist iteration, with a populated abort payload. *)
let budget_cancellation_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let budget = Budget.unlimited () in
  let iterations = ref 0 in
  let cancel_at = 10 in
  let observer =
    Observer.make
      ~on_iteration:(fun () ->
        incr iterations;
        if !iterations = cancel_at then Budget.cancel budget)
      ()
  in
  let config = { Solver.Config.default with budget; observer } in
  match Solver.solve ~config program (factory program) with
  | _ -> Alcotest.fail "expected Solver.Timeout"
  | exception Solver.Timeout abort ->
    (* The tick right after the cancelling hook raises, so no further
       iteration hook runs: the abort happens within one iteration. *)
    Alcotest.(check int) "within one iteration" cancel_at !iterations;
    Alcotest.(check int) "payload iterations" cancel_at abort.Budget.iterations;
    Alcotest.(check bool) "payload nodes" true (abort.Budget.nodes > 0);
    Alcotest.(check bool) "payload elapsed" true (abort.Budget.elapsed_s >= 0.)

let stats_roundtrip_test () =
  let program = tiny_program () in
  let stats = collect_run program in
  let json = Json.to_string (Run_stats.to_json stats) in
  match Json.of_string json with
  | Error msg -> Alcotest.failf "stats JSON does not parse: %s" msg
  | Ok parsed -> (
    match Run_stats.of_json parsed with
    | Error msg -> Alcotest.failf "stats JSON does not decode: %s" msg
    | Ok back ->
      Alcotest.(check string) "analysis" stats.Run_stats.analysis back.Run_stats.analysis;
      Alcotest.(check int) "iterations" stats.Run_stats.iterations back.Run_stats.iterations;
      Alcotest.(check int) "n_nodes" stats.Run_stats.n_nodes back.Run_stats.n_nodes;
      Alcotest.(check int) "n_edges" stats.Run_stats.n_edges back.Run_stats.n_edges;
      Alcotest.(check int) "n_ctxs" stats.Run_stats.n_ctxs back.Run_stats.n_ctxs;
      Alcotest.(check int) "n_hobjs" stats.Run_stats.n_hobjs back.Run_stats.n_hobjs;
      Alcotest.(check int)
        "sensitive_vpt_size" stats.Run_stats.sensitive_vpt_size
        back.Run_stats.sensitive_vpt_size;
      Alcotest.(check (float 1e-9))
        "wall_time_s" stats.Run_stats.wall_time_s back.Run_stats.wall_time_s;
      Alcotest.(check int)
        "phase count"
        (List.length stats.Run_stats.phases)
        (List.length back.Run_stats.phases))

(* The JSON printer/parser pair must round-trip structurally, including
   escapes and numeric edge cases. *)
let json_roundtrip_test () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\r \x01 é");
        ("i", Json.Int (-42));
        ("big", Json.Int max_int);
        ("f", Json.Float 0.1);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error msg -> Alcotest.failf "printed JSON does not parse: %s" msg
  | Ok v' -> Alcotest.(check bool) "structurally equal" true (v = v')

(* The datalog engine reports through the same instruments. *)
let refimpl_observed_test () =
  let program =
    Pta_frontend.Frontend.program_of_string ~file:"<t>"
      "class Main { static method main() { var x = new Main; } }"
  in
  let strategy = Pta_context.Strategies.get "insens" program in
  let recorder = Recorder.create () in
  let t = Pta_refimpl.Refimpl.run ~observer:(Recorder.observer recorder) program strategy in
  Alcotest.(check bool)
    "facts observed" true
    (Recorder.nodes recorder >= Pta_refimpl.Refimpl.n_var_points_to t);
  Alcotest.(check bool) "rounds observed" true (Recorder.iterations recorder > 0)

(* ------------------------------------------------------------------ *)
(* Memory: Memstats clamping / codec / exception safety, loop sampling *)
(* ------------------------------------------------------------------ *)

module Memstats = Pta_obs.Memstats
module Census = Pta_obs.Census

let snap_with heap : Memstats.snapshot =
  {
    Memstats.minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_words = heap;
    top_heap_words = heap;
  }

(* A sampled peak can lag (no alarm fired) but never undercut what the
   interval's endpoints saw. *)
let memstats_clamp_test () =
  let before = snap_with 1000 and after = snap_with 500 in
  let d = Memstats.diff ~peak:100 ~before ~after () in
  Alcotest.(check int) "clamped to endpoints" 1000 d.Memstats.peak_heap_words;
  let d = Memstats.diff ~before ~after () in
  Alcotest.(check int) "no sample: endpoints" 1000 d.Memstats.peak_heap_words;
  let d = Memstats.diff ~peak:9999 ~before ~after () in
  Alcotest.(check int) "genuine peak kept" 9999 d.Memstats.peak_heap_words

let memstats_roundtrip_test () =
  let d =
    {
      Memstats.minor_allocated_words = 12345.5;
      promoted_delta_words = 100.;
      major_allocated_words = 600.25;
      minor_collections_delta = 3;
      major_collections_delta = 1;
      compactions_delta = 0;
      heap_words_after = 4096;
      peak_heap_words = 8192;
    }
  in
  match Memstats.of_json (Memstats.to_json d) with
  | Error e -> Alcotest.failf "memstats round-trip: %s" e
  | Ok d' -> Alcotest.(check bool) "identical" true (d = d')

let memstats_tracked_exn_test () =
  Alcotest.check_raises "re-raises" Exit (fun () ->
      ignore (Memstats.tracked (fun () -> raise Exit)));
  (* The alarm must be gone: a fresh tracked call still works. *)
  let x, d = Memstats.tracked (fun () -> 42) in
  Alcotest.(check int) "value" 42 x;
  Alcotest.(check bool) "sane delta" true (d.Memstats.peak_heap_words > 0)

(* A large major-heap allocation that lives only between two major
   collections must be caught by the fixpoint loop's periodic sample:
   the observer plants a ~2M-word block at iteration 3 and drops it a
   few iterations later, and the tracker's peak must include it. *)
let solver_peak_sampling_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let tracker = Memstats.start_tracking () in
  let planted_words = 2_000_000 in
  let planted = ref None in
  let iterations = ref 0 in
  let observer =
    Observer.make
      ~on_iteration:(fun () ->
        incr iterations;
        if !iterations = 3 then
          planted := Some (Bytes.create (planted_words * (Sys.word_size / 8)));
        if !iterations = 8 then begin
          planted := None;
          Gc.compact ()
        end)
      ()
  in
  let config =
    Solver.Config.make ~observer ~mem_tracker:tracker ~mem_sample_every:1 ()
  in
  ignore (Solver.solve ~config program (factory program));
  ignore !planted;
  let d = Memstats.finish tracker in
  Alcotest.(check bool)
    "peak saw the planted block" true
    (d.Memstats.peak_heap_words >= planted_words)

(* ------------------------------------------------------------------ *)
(* Census                                                              *)
(* ------------------------------------------------------------------ *)

let solve_for_census ?(workload = "tiny") ?(analysis = "S-2obj+H") () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name workload))
  in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  Solver.solve program (factory program)

let census_invariants_test () =
  let solver = solve_for_census () in
  let c = Solver.census solver in
  Alcotest.(check bool) "has components" true (c.Census.components <> []);
  List.iter
    (fun (comp : Census.component) ->
      Alcotest.(check bool)
        (comp.Census.comp_name ^ " retained >= 0")
        true
        (comp.Census.retained_words >= 0);
      Alcotest.(check bool)
        (comp.Census.comp_name ^ " retained <= unshared")
        true
        (comp.Census.retained_words <= comp.Census.unshared_words))
    c.Census.components;
  (* The retained figures are one deduplicated walk, bounded by the
     live major heap at walk time. *)
  Alcotest.(check bool)
    "sum retained <= live heap" true
    (Census.total_retained_words c <= c.Census.live_heap_words);
  (* The flagship components must own something on a solved state. *)
  List.iter
    (fun name ->
      match Census.find c name with
      | None -> Alcotest.failf "component %s missing" name
      | Some comp ->
        Alcotest.(check bool) (name ^ " non-empty") true
          (comp.Census.retained_words > 0))
    [ "points-to-sets"; "node-tables"; "context-tables" ];
  match c.Census.set_hist with
  | None -> Alcotest.fail "set histogram missing"
  | Some h -> Alcotest.(check bool) "hist populated" true (Census.hist_total h > 0)

(* Two independent solves must census identically (same components,
   same word counts, same histogram): the walk sees only deterministic
   structure, never addresses or clocks.  [live_heap_words] is
   process-global state and is excluded — the CLI determinism test
   (two fresh processes) covers the full document. *)
let census_deterministic_test () =
  let survey () =
    let c = Solver.census (solve_for_census ()) in
    ( Json.to_string (Census.components_to_json c.Census.components),
      c.Census.set_hist )
  in
  let comps1, hist1 = survey () in
  let comps2, hist2 = survey () in
  Alcotest.(check string) "components byte-identical" comps1 comps2;
  Alcotest.(check bool) "histograms identical" true (hist1 = hist2)

(* The [cyclic] workload funnels many variables through shared copy
   structure, so its Patricia-tree points-to sets must exhibit real
   structural sharing: materializing every set privately (unshared)
   would cost strictly more than what is retained. *)
let census_sharing_test () =
  let solver = solve_for_census ~workload:"cyclic" () in
  let c = Solver.census solver in
  match Census.find c "points-to-sets" with
  | None -> Alcotest.fail "points-to-sets component missing"
  | Some comp ->
    Alcotest.(check bool) "sharing factor > 1" true
      (Census.sharing_factor comp > 1.)

let census_json_roundtrip_test () =
  let c = Solver.census (solve_for_census ()) in
  (match Census.of_json (Census.to_json c) with
  | Error e -> Alcotest.failf "census round-trip: %s" e
  | Ok c' -> Alcotest.(check bool) "identical" true (c = c'));
  (* A histogram the reader must refuse rather than reinterpret. *)
  let with_hist bounds counts =
    match Census.to_json { c with Census.set_hist = None } with
    | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ( "intset_hist",
              Json.Obj [ ("bounds", Json.List bounds); ("counts", Json.List counts) ]
            );
          ])
    | _ -> Alcotest.fail "census JSON is not an object"
  in
  let i n = Json.Int n and str x = Json.String x in
  List.iter
    (fun (label, bounds, counts) ->
      match Census.of_json (with_hist bounds counts) with
      | Ok _ -> Alcotest.failf "accepted a histogram with %s" label
      | Error _ -> ())
    [
      ("mistyped entries", [ i 1; str "x"; i 4 ], [ i 0; str "y"; i 1; i 2 ]);
      ("a mistyped bound", [ i 1; str "x"; i 4 ], [ i 0; i 3; i 1; i 2 ]);
      ("a mistyped count", [ i 1; i 2; i 4 ], [ i 0; i 3; Json.Null; i 2 ]);
      ("repeated bounds", [ i 1; i 2; i 2 ], [ i 0; i 3; i 1; i 2 ]);
      ("decreasing bounds", [ i 4; i 2; i 8 ], [ i 0; i 3; i 1; i 2 ]);
      ("a negative count", [ i 1; i 2; i 4 ], [ i 0; i (-3); i 1; i 2 ]);
      ("too few counts", [ i 1; i 2; i 4 ], [ i 0; i 3; i 1 ]);
    ];
  match Census.of_json (with_hist [ i 1; i 2; i 4 ] [ i 0; i 3; i 1; i 2 ]) with
  | Error e -> Alcotest.failf "rejected a well-formed histogram: %s" e
  | Ok c' ->
    Alcotest.(check bool)
      "well-formed histogram loads" true
      (c'.Census.set_hist
      = Some { Census.h_bounds = [ 1; 2; 4 ]; h_counts = [ 0; 3; 1; 2 ] })

(* Differential census: [Census.survey]'s single walk against a copy of
   the cumulative-prefix algorithm it replaced.  For each component the
   reference walks every root seen so far with [Obj.reachable_words]
   (minus the root array itself) and charges the growth over the
   previous prefix, so a block shared between components lands on the
   earliest one.  The root array is filled through [Array.make] rather
   than [Array.of_list], so a boxed float at the head cannot turn it
   into a flat float array. *)
let reference_retained comps =
  let prefix_words roots =
    let n = List.length roots in
    if n = 0 then 0
    else begin
      let arr = Array.make n (Obj.repr 0) in
      List.iteri (fun i r -> arr.(i) <- r) roots;
      Obj.reachable_words (Obj.repr arr) - (n + 1)
    end
  in
  let _, _, rev =
    List.fold_left
      (fun (prefix, prev, rev) (name, roots) ->
        let prefix = List.rev_append roots prefix in
        let words = prefix_words prefix in
        (prefix, words, (name, words - prev) :: rev))
      ([], 0, []) comps
  in
  List.rev rev

(* A full major collection first, so both walks see the same settled
   graph (OCaml 4 short-circuits forced lazy values while marking). *)
let check_census_against_reference label comps =
  Gc.full_major ();
  let expected = reference_retained comps in
  let got =
    List.map
      (fun (c : Census.component) -> (c.Census.comp_name, c.Census.retained_words))
      (Census.survey comps).Census.components
  in
  Alcotest.(check (list (pair string int))) label expected got

type float_point = { fx : float; fy : float }

(* Every heap shape the walk must account like [Obj.reachable_words]:
   values are built at run time so they live in the heap on every
   runtime, not in static data. *)
let census_synthetic_test () =
  let n = Sys.opaque_identity 7 in
  let shared = List.init n (fun i -> (i, string_of_int i)) in
  let a = ref [ shared ] and b = ref [ shared; List.tl shared ] in
  (* a two-record cycle *)
  let rec_ring = Array.make 1 (Obj.repr 0) in
  let ring = [| Obj.repr rec_ring; Obj.repr (List.init n Fun.id) |] in
  rec_ring.(0) <- Obj.repr ring;
  let env = Array.init n (fun i -> i * i) in
  let closure x = env.(0) + Array.length env + x in
  let rec even k = k = 0 || odd (k - 1) && Array.length env > 0
  and odd k = k <> 0 && even (k - 1) && List.length shared > 0 in
  let point = { fx = float_of_int n; fy = 2.5 } in
  let floats = Array.make n (float_of_int n) in
  let boxed_float = Sys.opaque_identity (float_of_int n +. 0.5) in
  let str = String.make (n * 3) 'x' and bytes = Bytes.create (n * 5) in
  let i64 = Int64.add (Int64.of_int n) 1L in
  let boxed = Some point in
  let unforced = lazy (List.init n Fun.id) in
  let forced = lazy (Array.make n 'c') in
  ignore (Lazy.force forced);
  let r = Obj.repr in
  let comps =
    [
      ("shared-a", [ r a ]);
      ("shared-b", [ r b; r shared ]);
      ("cycle", [ r ring; r rec_ring ]);
      ("closure", [ r closure; r env ]);
      ("infix-odd-first", [ r odd ]);
      ("infix-even", [ r even ]);
      ("empty", []);
      ("floats", [ r point; r floats; r boxed_float ]);
      ("strings", [ r str; r bytes ]);
      ("custom", [ r i64 ]);
      ("lazy", [ r unforced; r forced ]);
      ("immediates", [ r 42; r (); r true; r [] ]);
      ("duplicates", [ r str; r env; r i64; r boxed; r boxed ]);
    ]
  in
  check_census_against_reference "synthetic" comps;
  (* One component, one root: the walk is [Obj.reachable_words]. *)
  List.iter
    (fun (name, root) ->
      Gc.full_major ();
      match (Census.survey [ (name, [ root ]) ]).Census.components with
      | [ c ] ->
        Alcotest.(check int) name (Obj.reachable_words root)
          c.Census.retained_words
      | _ -> Alcotest.fail "one component expected")
    [
      ("list", r shared); ("closure", r closure); ("infix", r odd);
      ("float record", r point); ("float array", r floats);
      ("boxed float", r boxed_float); ("int64", r i64);
      ("lazy", r unforced); ("cycle", r ring);
    ];
  ignore (Sys.opaque_identity (a, b, closure, even, odd))

let census_solver_reference_test () =
  List.iter
    (fun (workload, analysis, jobs) ->
      let program =
        Pta_workloads.Workloads.program
          (Option.get (Pta_workloads.Profile.by_name workload))
      in
      let factory = Option.get (Pta_context.Strategies.by_name analysis) in
      let config = Solver.Config.make ~jobs () in
      let solver = Solver.solve ~config program (factory program) in
      check_census_against_reference
        (Printf.sprintf "%s/%s jobs=%d" workload analysis jobs)
        (Solver.census_roots solver))
    (List.concat_map
       (fun workload ->
         List.map
           (fun analysis -> (workload, analysis, 1))
           [ "insens"; "1call"; "2obj+H"; "S-2obj+H" ]
         @ [ (workload, "S-2obj+H", 2) ])
       [ "tiny"; "cyclic" ])

let census_refimpl_reference_test () =
  let program = tiny_program () in
  let strategy = Pta_context.Strategies.get "S-2obj+H" program in
  let t = Pta_refimpl.Refimpl.run program strategy in
  check_census_against_reference "refimpl tiny/S-2obj+H"
    (Pta_refimpl.Refimpl.census_roots t)

let refimpl_budget_test () =
  let program = tiny_program () in
  let strategy = Pta_context.Strategies.get "S-2obj+H" program in
  let budget = Budget.of_seconds 1e-9 in
  match Pta_refimpl.Refimpl.run ~budget program strategy with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted _ -> ()

let tests =
  [
    Alcotest.test_case "counters deterministic" `Quick counters_deterministic_test;
    Alcotest.test_case "null observer transparent" `Quick observer_transparent_test;
    Alcotest.test_case "budget cancellation" `Quick budget_cancellation_test;
    Alcotest.test_case "stats JSON round-trip" `Quick stats_roundtrip_test;
    Alcotest.test_case "json round-trip" `Quick json_roundtrip_test;
    Alcotest.test_case "refimpl observed" `Quick refimpl_observed_test;
    Alcotest.test_case "refimpl budget" `Quick refimpl_budget_test;
    Alcotest.test_case "memstats peak clamping" `Quick memstats_clamp_test;
    Alcotest.test_case "memstats JSON round-trip" `Quick
      memstats_roundtrip_test;
    Alcotest.test_case "memstats tracked re-raises" `Quick
      memstats_tracked_exn_test;
    Alcotest.test_case "solver loop samples the peak" `Quick
      solver_peak_sampling_test;
    Alcotest.test_case "census invariants" `Quick census_invariants_test;
    Alcotest.test_case "census deterministic" `Quick census_deterministic_test;
    Alcotest.test_case "census set sharing on cyclic" `Quick
      census_sharing_test;
    Alcotest.test_case "census JSON round-trip" `Quick
      census_json_roundtrip_test;
    Alcotest.test_case "census walk matches prefix walks: synthetic" `Quick
      census_synthetic_test;
    Alcotest.test_case "census walk matches prefix walks: solver" `Quick
      census_solver_reference_test;
    Alcotest.test_case "census walk matches prefix walks: refimpl" `Quick
      census_refimpl_reference_test;
  ]
