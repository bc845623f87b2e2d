(* Benchmark harness: regenerates the paper's evaluation.

   - table1:  Table 1 — 10 DaCapo-profile benchmarks x 15 analyses
              (the paper's 12 plus cut-shortcut and adaptive columns),
              4 precision metrics + time + context-sensitive
              var-points-to size, grouped as in the paper.
   - figure3: Figure 3 — per-benchmark ASCII scatter of running time (y)
              against may-fail casts (x) over all analyses.
   - summary: the headline aggregate ratios quoted in the paper's
              abstract/intro/Section 4.
   - micro:   Bechamel micro-benchmarks of the solver's building blocks.

   With no argument, runs table1 + figure3 + summary (sharing analysis
   runs).  PTA_BENCH_TIMEOUT (seconds, default 90) is the per-analysis
   cutoff; timeouts print as "-" like the paper's dashes.  A value that
   is not a positive finite number exits 2.

   Regression-harness mode: `--baseline FILE --compare` re-runs the
   grid (optionally restricted with `--benchmarks a,b,c`), diffs it
   against the committed snapshot, prints a per-cell delta report, and
   exits non-zero if any cell breaches the noise thresholds
   (`--time-tol` / `--heap-tol`, percent).  `--delta-md FILE` writes
   the same report as a Markdown table. *)

module Ir = Pta_ir.Ir
module Metrics = Pta_clients.Metrics
module Profile = Pta_workloads.Profile
module Workloads = Pta_workloads.Workloads
module Strategies = Pta_context.Strategies
module Solver = Pta_solver.Solver
module Table = Pta_report.Table
module Scatter = Pta_report.Scatter
module Driver = Pta_driver.Driver
module Json = Pta_obs.Json
module Run_stats = Pta_obs.Run_stats
module Trace = Pta_obs.Trace
module Snapshot = Pta_report.Bench_snapshot
module Census = Pta_obs.Census
module Registry = Pta_metrics.Registry

let timeout_s =
  match Sys.getenv_opt "PTA_BENCH_TIMEOUT" with
  | None -> 90.
  | Some s -> (
    match float_of_string_opt s with
    | Some t when Float.is_finite t && t > 0. -> t
    | _ ->
      Printf.eprintf
        "PTA_BENCH_TIMEOUT=%S: expected a positive number of seconds\n" s;
      exit 2)

(* The benchmark subset under test; `--benchmarks` narrows it. *)
let selected_profiles = ref Profile.dacapo
let profiles () = !selected_profiles

(* Table-1 column order and the per-group partition used for marking the
   best time (the paper's bold entries; we use a trailing '*'). *)
let analysis_groups =
  [
    [ "1call"; "1call+H" ];
    [ "1obj"; "U-1obj"; "SA-1obj"; "SB-1obj" ];
    [ "2obj+H"; "U-2obj+H"; "S-2obj+H" ];
    [ "2type+H"; "U-2type+H"; "S-2type+H" ];
    [ "CS"; "CS-2obj+H"; "AD-2obj+H" ];
  ]

let analyses = List.concat analysis_groups

(* The analysis subset snapshotted by [current_snapshot] and gated by
   `--compare`; `--analyses` (or the `propbench` command) narrows it.
   Defaults to the Table-1 twelve. *)
let selected_analyses = ref analyses

(* Worklist domain counts measured per cell; `--jobs 1,4` adds parallel
   legs.  Every value beyond 1 re-measures the grid with the parallel
   drain and lands in the snapshot as a (benchmark, analysis, jobs)
   cell of its own, paired with its jobs=1 sibling by the scaling
   check. *)
let selected_jobs = ref [ 1 ]

(* What the tables and table1_stats.json need beyond the snapshot cell:
   the first (instrumented) run's metrics, counters and trace profile,
   or the solver's abort payload. *)
type outcome =
  | Done of Metrics.t * Run_stats.t * Trace.stat list
  | Timed_out of Pta_obs.Budget.abort

let runs : (string * string * int, Snapshot.cell * outcome) Hashtbl.t =
  Hashtbl.create 256

(* A cell's solve-time distribution: every timed run observed into one
   exponential-bucket registry histogram (the shared
   [Registry.time_buckets] ladder). *)
let time_hist times =
  let reg = Registry.create () in
  let h =
    Registry.histogram reg ~buckets:Registry.time_buckets
      ~help:"Per-run wall time of one benchmark cell"
      "pta_bench_cell_time_seconds"
  in
  List.iter (fun t -> if Float.is_finite t then Registry.observe h t) times;
  Snapshot.hist_of_buckets ~sum:(Registry.histogram_sum h)
    (Registry.histogram_buckets h)

let run_one ?(jobs = 1) profile analysis_name =
  let key = (profile.Profile.name, analysis_name, jobs) in
  match Hashtbl.find_opt runs key with
  | Some r -> r
  | None ->
    let program = Workloads.program profile in
    (* Minimum of three timed runs.  The analysis is deterministic, so
       scheduler/VM interference can only ADD time — the minimum is the
       least-noisy estimate of the true cost, and it is what the
       regression gate compares against a committed baseline.  (Metrics
       and counters are collected once, on the first run — the
       recorder's non-time fields are identical across runs.) *)
    (* The first (instrumented) run also carries a small trace sink —
       aggregates are exact regardless of the tiny ring, and they feed
       the per-cell hot-spot summary in table1_stats.json.  Timed runs
       stay untraced. *)
    let run_once ~collect ?trace () =
      Driver.run
        ~config:(Solver.Config.make ~timeout_s ~jobs ?trace ())
        ~collect_stats:collect program ~analysis:analysis_name
    in
    (* Compact before the instrumented run: the peak-heap figure must
       reflect this cell's live set, not heap grown (and never returned)
       by whichever cells happened to run earlier in the process —
       without this, per-cell memory numbers depend on grid order and
       drift 30%+ between a `table1` process and a `--compare` one. *)
    Gc.compact ();
    let trace = Trace.create ~limit:4096 () in
    let cell ~timed_out ~time_s ~iterations ~nodes =
      {
        Snapshot.benchmark = profile.Profile.name;
        analysis = analysis_name;
        timed_out;
        time_s;
        iterations;
        nodes = Some nodes;
        peak_heap_words = None;
        time_hist = None;
        heap_components = [];
        jobs;
        domains = 1;
      }
    in
    let result =
      match run_once ~collect:true ~trace () with
      | Error (Driver.Timed_out { abort; _ }) ->
        ( cell ~timed_out:true ~time_s:abort.Pta_obs.Budget.elapsed_s
            ~iterations:abort.Pta_obs.Budget.iterations
            ~nodes:abort.Pta_obs.Budget.nodes,
          Timed_out abort )
      | Error e -> Driver.report_and_exit e
      | Ok r1 ->
        let time = function
          | Ok (r : Driver.run) -> r.Driver.wall_time_s
          | Error _ -> infinity
        in
        let t2 = time (run_once ~collect:false ()) in
        let t3 = time (run_once ~collect:false ()) in
        (* The census runs after the timed re-runs so its [Gc.full_major]
           cannot perturb them, and before [Metrics.compute]. *)
        let census = Solver.census r1.Driver.solver in
        let stats = Option.get r1.Driver.stats in
        let c =
          cell ~timed_out:false
            ~time_s:(min r1.Driver.wall_time_s (min t2 t3))
            ~iterations:stats.Run_stats.iterations
            ~nodes:stats.Run_stats.n_nodes
        in
        ( {
            c with
            Snapshot.peak_heap_words =
              Option.map
                (fun m -> m.Pta_obs.Memstats.peak_heap_words)
                stats.Run_stats.memory;
            time_hist = Some (time_hist [ r1.Driver.wall_time_s; t2; t3 ]);
            heap_components = census.Census.components;
            (* On a 1-core host or an OCaml 4.x runtime a jobs=4 request
               degrades; the cell records what really ran. *)
            domains = Solver.domains_used r1.Driver.solver;
          },
          Done
            ( Metrics.compute r1.Driver.solver,
              stats,
              Trace.profile trace ) )
    in
    Hashtbl.replace runs key result;
    let shown =
      if jobs = 1 then analysis_name
      else Printf.sprintf "%s@j%d" analysis_name jobs
    in
    (match result with
    | c, Done _ ->
      Printf.eprintf "  [bench] %-10s %-10s %6.2fs\n%!" profile.Profile.name
        shown c.Snapshot.time_s
    | _, Timed_out abort ->
      Printf.eprintf
        "  [bench] %-10s %-10s TIMEOUT (>%.0fs; %.1fs elapsed, %d iterations, \
         %d nodes)\n\
         %!"
        profile.Profile.name shown timeout_s
        abort.Pta_obs.Budget.elapsed_s abort.Pta_obs.Budget.iterations
        abort.Pta_obs.Budget.nodes);
    result

(* A per-cell stats record for table1_stats.json: the Run_stats bundle of
   finished cells, the abort payload of timed-out ones. *)
let trace_summary_json stats =
  Json.List
    (List.filter_map
       (fun (s : Trace.stat) ->
         (* Per-edge-kind solver spans only; phase spans just restate the
            run's overall timings. *)
         if String.equal s.Trace.stat_cat "solver" then
           Some
             (Json.Obj
                [
                  ("name", Json.String s.Trace.stat_name);
                  ("events", Json.Int s.Trace.events);
                  ("delta", Json.Int s.Trace.delta);
                  ("seconds", Json.Float s.Trace.seconds);
                ])
         else None)
       stats)

let cell_stats_json profile_name analysis_name = function
  | _, Done (_, stats, tprofile) -> (
    match Run_stats.to_json stats with
    | Json.Obj fields ->
      Json.Obj
        (("benchmark", Json.String profile_name)
        :: (fields @ [ ("trace", trace_summary_json tprofile) ]))
    | _ -> assert false)
  | _, Timed_out abort -> (
    match Run_stats.timed_out_json ~analysis:analysis_name abort with
    | Json.Obj fields -> Json.Obj (("benchmark", Json.String profile_name) :: fields)
    | _ -> assert false)

(* The snapshot of the current grid, one cell per selected
   (benchmark, analysis, jobs). *)
let current_snapshot () =
  let cells =
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun a ->
            List.map
              (fun jobs -> fst (run_one ~jobs profile a))
              !selected_jobs)
          !selected_analyses)
      (profiles ())
  in
  {
    Snapshot.timeout_s;
    host_cores = Some (Pta_solver.Par.recommended_domains ());
    pointsto = Some (Pta_version.Version.to_json ());
    cells;
  }

let write_snapshot_file path snapshot =
  let oc = open_out path in
  output_string oc (Json.to_string (Snapshot.to_json snapshot));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let fmt_float x = Printf.sprintf "%.2f" x
let fmt_int = string_of_int
let fmt_k n = Printf.sprintf "%.1fK" (float_of_int n /. 1000.)

let table1_block profile =
  let outcomes = List.map (fun a -> (a, run_one profile a)) analyses in
  let program = Workloads.program profile in
  let some_metrics =
    List.find_map
      (function _, (_, Done (m, _, _)) -> Some m | _ -> None)
      outcomes
  in
  let headline =
    match some_metrics with
    | Some m ->
      Printf.sprintf
        "%s  (%d methods, ~%d reachable; v-calls of ~%d, casts of ~%d)"
        profile.Profile.name
        (Ir.Program.n_meths program)
        m.Metrics.reachable_methods m.Metrics.total_vcalls m.Metrics.total_casts
    | None -> profile.Profile.name
  in
  let t = Table.create ~headers:("metric" :: analyses) in
  let metric_row label f =
    Table.add_row t
      (label
      :: List.map
           (fun (_, o) ->
             match o with _, Done (m, _, _) -> f m | _, Timed_out _ -> "-")
           outcomes)
  in
  metric_row "avg objs per var" (fun m -> fmt_float m.Metrics.avg_objs_per_var);
  metric_row "call-graph edges" (fun m -> fmt_int m.Metrics.call_graph_edges);
  metric_row "poly v-calls" (fun m -> fmt_int m.Metrics.poly_vcalls);
  metric_row "may-fail casts" (fun m -> fmt_int m.Metrics.may_fail_casts);
  (* The taint client's precision column: flows beyond the generator's
     ground truth are spurious — hybrids keep the tainted and clean
     pass-through call sites apart where their unhybrid counterparts
     conflate them. *)
  let taint_truth = Pta_workloads.Gen.taint_ground_truth profile in
  metric_row "spurious taint flows" (fun m ->
      fmt_int (m.Metrics.taint_flows - taint_truth));
  Table.add_separator t;
  (* Best (lowest) time within each analysis group is starred, like the
     paper's bold entries. *)
  let best_in_group =
    List.concat_map
      (fun group ->
        let times =
          List.filter_map
            (fun a ->
              match run_one profile a with
              | c, Done _ -> Some (a, c.Snapshot.time_s)
              | _, Timed_out _ -> None)
            group
        in
        match times with
        | [] -> []
        | (a0, s0) :: rest ->
          [
            fst
              (List.fold_left
                 (fun (ba, bs) (a, s) -> if s < bs then (a, s) else (ba, bs))
                 (a0, s0) rest);
          ])
      analysis_groups
  in
  Table.add_row t
    ("elapsed time (s)"
    :: List.map
         (fun (a, o) ->
           match o with
           | c, Done _ ->
             Printf.sprintf "%.2f%s" c.Snapshot.time_s
               (if List.mem a best_in_group then "*" else "")
           | _, Timed_out _ -> "-")
         outcomes);
  metric_row "sensitive var-points-to" (fun m -> fmt_k m.Metrics.sensitive_vpt);
  (headline, Table.render t)

let cmd_table1 () =
  print_endline
    "=== Table 1: precision and performance, all benchmarks x all analyses ===";
  Printf.printf
    "(per-analysis timeout: %.0fs; '-' = timeout, '*' = best time in its \
     analysis group)\n\n"
    timeout_s;
  List.iter
    (fun profile ->
      let headline, rendered = table1_block profile in
      print_endline headline;
      print_endline rendered)
    (profiles ());
  (* Also emit machine-readable CSV next to the textual table. *)
  let rows = ref [] in
  List.iter
    (fun profile ->
      List.iter
        (fun a ->
          match run_one profile a with
          | c, Done (m, _, _) ->
            rows :=
              [
                profile.Profile.name;
                a;
                fmt_float m.Metrics.avg_objs_per_var;
                fmt_int m.Metrics.call_graph_edges;
                fmt_int m.Metrics.poly_vcalls;
                fmt_int m.Metrics.may_fail_casts;
                fmt_int m.Metrics.total_casts;
                fmt_int
                  (m.Metrics.taint_flows
                  - Pta_workloads.Gen.taint_ground_truth profile);
                Printf.sprintf "%.3f" c.Snapshot.time_s;
                fmt_int m.Metrics.sensitive_vpt;
                fmt_int m.Metrics.n_ctxs;
              ]
              :: !rows
          | _, Timed_out _ ->
            rows :=
              [
                profile.Profile.name; a; "-"; "-"; "-"; "-"; "-"; "-"; "-";
                "-"; "-";
              ]
              :: !rows)
        analyses)
    (profiles ());
  let csv =
    Table.csv
      ~headers:
        [
          "benchmark";
          "analysis";
          "avg_objs_per_var";
          "call_graph_edges";
          "poly_vcalls";
          "may_fail_casts";
          "total_casts";
          "spurious_taint_flows";
          "time_s";
          "sensitive_vpt";
          "contexts";
        ]
      (List.rev !rows)
  in
  let oc = open_out "table1.csv" in
  output_string oc csv;
  close_out oc;
  print_endline "[table1.csv written]";
  (* Per-cell counter bundles (or abort payloads) for the same grid. *)
  let stats =
    List.concat_map
      (fun profile ->
        List.map
          (fun a ->
            cell_stats_json profile.Profile.name a (run_one profile a))
          analyses)
      (profiles ())
  in
  let oc = open_out "table1_stats.json" in
  output_string oc (Json.to_string (Json.List stats));
  output_char oc '\n';
  close_out oc;
  print_endline "[table1_stats.json written]";
  (* The committed perf snapshot: just enough per cell to diff run-time
     and memory regressions across revisions (documented in
     EXPERIMENTS.md). *)
  write_snapshot_file "BENCH_table1.json" (current_snapshot ());
  print_endline "[BENCH_table1.json written]\n"

(* ------------------------------------------------------------------ *)
(* Propagation micro-benchmark                                         *)
(* ------------------------------------------------------------------ *)

(* The `cyclic` stress profile — deep copy chains, local copy cycles and
   static mutual-recursion rings — isolates the solver's propagation
   core (online cycle elimination + topological worklist ordering) from
   context-machinery cost.  Snapshotted to BENCH_prop.json so the CI
   perf gate catches regressions in exactly that code path, which the
   DaCapo-profile grid exercises only weakly. *)
let prop_analyses = [ "insens"; "1call"; "1obj"; "S-2obj+H" ]

let select_prop_grid () =
  selected_profiles := [ Option.get (Profile.by_name "cyclic") ];
  selected_analyses := prop_analyses

let print_scaling_section snapshot =
  match Snapshot.scaling_points snapshot with
  | [] -> ()
  | points ->
    let t =
      Table.create
        ~headers:
          [ "benchmark"; "analysis"; "jobs"; "domains"; "seq (s)"; "par (s)";
            "speedup" ]
    in
    List.iter
      (fun (p : Snapshot.scaling_point) ->
        Table.add_row t
          [
            p.Snapshot.s_benchmark;
            p.Snapshot.s_analysis;
            string_of_int p.Snapshot.s_jobs;
            string_of_int p.Snapshot.s_domains;
            Printf.sprintf "%.2f" p.Snapshot.s_seq_time_s;
            Printf.sprintf "%.2f" p.Snapshot.s_time_s;
            Printf.sprintf "%.2fx" p.Snapshot.s_speedup;
          ])
      points;
    print_endline "--- parallel scaling (vs the jobs=1 sibling cells) ---";
    print_string (Table.render t);
    print_newline ()

let cmd_propbench () =
  select_prop_grid ();
  print_endline "=== Propagation micro-benchmark (cyclic profile) ===\n";
  let t =
    Table.create ~headers:[ "analysis"; "jobs"; "time (s)"; "iterations"; "nodes" ]
  in
  List.iter
    (fun profile ->
      List.iter
        (fun a ->
          List.iter
            (fun jobs ->
              match run_one ~jobs profile a with
              | c, Done (_, stats, _) ->
                Table.add_row t
                  [
                    a;
                    string_of_int jobs;
                    Printf.sprintf "%.2f" c.Snapshot.time_s;
                    fmt_int stats.Run_stats.iterations;
                    fmt_int stats.Run_stats.n_nodes;
                  ]
              | _, Timed_out _ ->
                Table.add_row t [ a; string_of_int jobs; "-"; "-"; "-" ])
            !selected_jobs)
        !selected_analyses)
    (profiles ());
  print_string (Table.render t);
  print_newline ();
  let snapshot = current_snapshot () in
  print_scaling_section snapshot;
  write_snapshot_file "BENCH_prop.json" snapshot;
  print_endline "[BENCH_prop.json written]\n"

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let figure3_keys =
  [
    ("1call", 'c');
    ("1call+H", 'C');
    ("1obj", 'o');
    ("U-1obj", 'O');
    ("SA-1obj", 'a');
    ("SB-1obj", 'b');
    ("2obj+H", '2');
    ("U-2obj+H", 'U');
    ("S-2obj+H", 'S');
    ("2type+H", 't');
    ("U-2type+H", 'Y');
    ("S-2type+H", 's');
    ("CS", 'x');
    ("CS-2obj+H", 'X');
    ("AD-2obj+H", 'd');
  ]

let cmd_figure3 () =
  print_endline
    "=== Figure 3: performance (time, y) vs precision (may-fail casts, x) ===";
  print_endline "(lower is better on both axes; timeouts omitted)\n";
  List.iter
    (fun profile ->
      let points =
        List.filter_map
          (fun (a, key) ->
            match run_one profile a with
            | c, Done (m, _, _) ->
              Some
                {
                  Scatter.key;
                  label = a;
                  x = float_of_int m.Metrics.may_fail_casts;
                  y = c.Snapshot.time_s;
                }
            | _, Timed_out _ -> None)
          figure3_keys
      in
      print_endline
        (Scatter.render
           ~title:(Printf.sprintf "--- %s ---" profile.Profile.name)
           ~x_label:"may-fail casts" ~y_label:"time (s)" points))
    (profiles ())

(* ------------------------------------------------------------------ *)
(* Summary: the paper's headline ratios                                *)
(* ------------------------------------------------------------------ *)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Per-benchmark ratios of two analyses' outcomes, over benchmarks where
   both finished. *)
let ratio_over_benchmarks f num den =
  List.filter_map
    (fun profile ->
      match (run_one profile num, run_one profile den) with
      | (c1, Done (m1, _, _)), (c2, Done (m2, _, _)) -> (
        match f (m1, c1.Snapshot.time_s) (m2, c2.Snapshot.time_s) with
        | r when r > 0. && Float.is_finite r -> Some r
        | _ -> None)
      | _ -> None)
    (profiles ())

let time_ratio num den =
  geomean (ratio_over_benchmarks (fun (_, s1) (_, s2) -> s1 /. s2) num den)

let svpt_ratio num den =
  geomean
    (ratio_over_benchmarks
       (fun (m1, _) (m2, _) ->
         float_of_int m1.Metrics.sensitive_vpt
         /. float_of_int m2.Metrics.sensitive_vpt)
       num den)

let casts_delta better worse =
  geomean
    (ratio_over_benchmarks
       (fun (m1, _) (m2, _) ->
         float_of_int m2.Metrics.may_fail_casts
         /. float_of_int (max 1 m1.Metrics.may_fail_casts))
       better worse)

let cmd_summary () =
  print_endline "=== Summary: headline ratios (geometric means over benchmarks) ===\n";
  let line fmt = Printf.printf (fmt ^^ "\n") in
  line "S-2obj+H vs 2obj+H:";
  line "  speedup (time)        : %.2fx   (paper: 1.53x average speedup)"
    (time_ratio "2obj+H" "S-2obj+H");
  line "  sensitive-vpt ratio   : %.2fx smaller" (svpt_ratio "2obj+H" "S-2obj+H");
  line "  may-fail-casts margin : %.2fx fewer  (paper: more precise)"
    (casts_delta "S-2obj+H" "2obj+H");
  line "";
  line "SB-1obj vs 1obj:";
  line "  speedup (time)        : %.2fx   (paper: ~1.12x with higher precision)"
    (time_ratio "1obj" "SB-1obj");
  line "  may-fail-casts margin : %.2fx fewer" (casts_delta "SB-1obj" "1obj");
  line "";
  line "SA-1obj vs 1obj:";
  line
    "  speedup (time)        : %.2fx   (paper: consistently faster, similar \
     precision)"
    (time_ratio "1obj" "SA-1obj");
  line "";
  line "Uniform hybrids (the cost of keeping both contexts everywhere):";
  line
    "  U-1obj    slowdown vs 1obj    : %.2fx   (paper: ~3.9x avg for the naive \
     hybrid)"
    (time_ratio "U-1obj" "1obj");
  line "  U-2obj+H  slowdown vs S-2obj+H: %.2fx   (paper: typically well over 3x)"
    (time_ratio "U-2obj+H" "S-2obj+H");
  line
    "  U-2type+H slowdown vs 2type+H : %.2fx   (paper: often under 2x; the \
     reasonable uniform)"
    (time_ratio "U-2type+H" "2type+H");
  line "";
  line "Call-site sensitivity (reference points):";
  line "  1call+H slowdown vs 1call     : %.2fx   (paper: large cost, little gain)"
    (time_ratio "1call+H" "1call");
  line "  1call+H casts margin vs 1call : %.2fx fewer" (casts_delta "1call+H" "1call");
  line "";
  line "Precision ordering (total may-fail casts across finished benchmarks):";
  List.iter
    (fun a ->
      let total =
        List.fold_left
          (fun acc profile ->
            match run_one profile a with
            | _, Done (m, _, _) -> acc + m.Metrics.may_fail_casts
            | _, Timed_out _ -> acc)
          0 (profiles ())
      in
      line "  %-10s %6d" a total)
    analyses

(* ------------------------------------------------------------------ *)
(* Ablation study: the bad context combinations of Section 3            *)
(* ------------------------------------------------------------------ *)

(* A single solve outside the [run_one] grid (no repeats, no stats),
   for rows the grid's config does not cover: [None] on a timeout. *)
let solve_once ?(field_based = false) program analysis =
  match
    Driver.run
      ~config:(Solver.Config.make ~timeout_s ~field_based ())
      program ~analysis
  with
  | Ok r -> Some (r.Driver.wall_time_s, Metrics.compute r.Driver.solver)
  | Error (Driver.Timed_out _) -> None
  | Error e -> Driver.report_and_exit e

(* The ablation and future-work tables: one block per benchmark, one
   row per subject analysis, then any [extra] rows (label and outcome)
   for the benchmark's program. *)
let print_subject_tables ?(extra = fun _ -> []) ~benchmarks subjects =
  List.iter
    (fun bench_name ->
      let profile = Option.get (Profile.by_name bench_name) in
      let t =
        Table.create
          ~headers:
            [ "analysis"; "avg objs"; "cg edges"; "may-fail casts"; "time (s)";
              "sensitive vpt" ]
      in
      let row label = function
        | Some (secs, m) ->
          Table.add_row t
            [
              label;
              fmt_float m.Metrics.avg_objs_per_var;
              fmt_int m.Metrics.call_graph_edges;
              fmt_int m.Metrics.may_fail_casts;
              Printf.sprintf "%.2f" secs;
              fmt_int m.Metrics.sensitive_vpt;
            ]
        | None -> Table.add_row t [ label; "-"; "-"; "-"; "-"; "-" ]
      in
      List.iter
        (fun a ->
          row a
            (match run_one profile a with
            | c, Done (m, _, _) -> Some (c.Snapshot.time_s, m)
            | _, Timed_out _ -> None))
        subjects;
      List.iter
        (fun (label, outcome) -> row label outcome)
        (extra (Workloads.program profile));
      Printf.printf "--- %s ---\n%s\n" bench_name (Table.render t))
    benchmarks

let cmd_ablation () =
  print_endline "=== Ablation: the context combinations the paper dismisses ===";
  print_endline
    "(X-2obj+IH: call-site heap context; X-2obj+Hrev: inverted heap/hctx
    \ significance; X-freemix: free mixing that can drop the receiver;
    \ 2obj+H/fb: field-based instead of field-sensitive heap)
";
  (* Field-based heap abstraction as a further ablation row. *)
  print_subject_tables
    ~extra:(fun program ->
      [ ("2obj+H/fb", solve_once ~field_based:true program "2obj+H") ])
    ~benchmarks:[ "antlr"; "luindex"; "pmd" ]
    [ "2obj+H"; "S-2obj+H"; "X-2obj+IH"; "X-2obj+Hrev"; "X-freemix" ]

(* ------------------------------------------------------------------ *)
(* Future work (paper Section 6): adaptive context constructors         *)
(* ------------------------------------------------------------------ *)

let cmd_futurework () =
  print_endline "=== Future work: adaptive constructors (paper Section 6) ===";
  print_endline
    "(A-*: MergeStatic/Record inspect the incoming context's form;\n\
    \ AD-*: per-callee depth dispatch on a hotness oracle;\n\
    \ CS-*: cut-shortcut — trivial calls threaded through the caller)\n";
  print_subject_tables
    ~benchmarks:[ "antlr"; "jython"; "lusearch" ]
    [ "2obj+H"; "S-2obj+H"; "A-2obj+H"; "AD-2obj+H"; "CS-2obj+H"; "2type+H";
      "S-2type+H"; "A-2type+H" ]

(* ------------------------------------------------------------------ *)
(* Scaling study (extension): how cost grows with program size          *)
(* ------------------------------------------------------------------ *)

let cmd_scaling () =
  print_endline "=== Scaling: analysis cost vs program size (luindex profile) ===\n";
  let base = Option.get (Profile.by_name "luindex") in
  let t =
    Table.create
      ~headers:
        [ "scale"; "methods"; "1obj time"; "1obj svpt"; "2obj+H time";
          "2obj+H svpt"; "S-2obj+H time"; "S-2obj+H svpt" ]
  in
  List.iter
    (fun factor ->
      let profile =
        { (Profile.scale factor base) with Profile.name = Printf.sprintf "luindex-x%.1f" factor }
      in
      let program = Workloads.program profile in
      let cell name =
        match solve_once program name with
        | Some (secs, m) ->
          (Printf.sprintf "%.2f" secs, fmt_int m.Metrics.sensitive_vpt)
        | None -> ("-", "-")
      in
      let t1, s1 = cell "1obj" in
      let t2, s2 = cell "2obj+H" in
      let t3, s3 = cell "S-2obj+H" in
      Table.add_row t
        [
          Printf.sprintf "%.1fx" factor;
          string_of_int (Ir.Program.n_meths program);
          t1; s1; t2; s2; t3; s3;
        ])
    [ 0.5; 1.0; 1.5; 2.0 ];
  print_string (Table.render t);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let cmd_micro () =
  let open Bechamel in
  let open Toolkit in
  let module Intset = Pta_solver.Intset in
  let random_set seed n =
    let rng = Pta_workloads.Rng.create seed in
    let rec go acc k =
      if k = 0 then acc
      else go (Intset.add (Pta_workloads.Rng.int rng 100_000) acc) (k - 1)
    in
    go Intset.empty n
  in
  let s1 = random_set 1L 10_000 and s2 = random_set 2L 10_000 in
  let s3 = random_set 4L 10_000 in
  let tiny = Option.get (Profile.by_name "tiny") in
  let tiny_program = Workloads.program tiny in
  let mjdk_src = Pta_mjdk.Mjdk.source in
  let tests =
    Test.make_grouped ~name:"hybridpta"
      [
        Test.make ~name:"intset-union-10k"
          (Staged.stage (fun () -> ignore (Intset.union s1 s2)));
        Test.make ~name:"intset-add-1k"
          (Staged.stage (fun () -> ignore (random_set 3L 1_000)));
        (* The solver's delta computation: one fused traversal vs the
           two diffs it replaced. *)
        Test.make ~name:"intset-diff2-10k"
          (Staged.stage (fun () -> ignore (Intset.diff2 s1 s2 s3)));
        Test.make ~name:"parse-mjdk"
          (Staged.stage (fun () ->
               ignore (Pta_frontend.Frontend.parse ~file:"<mjdk>" mjdk_src)));
        (* The default config's observer is null — this measures the
           solver with instrumentation compiled in but switched off. *)
        Test.make ~name:"solver-1obj-tiny"
          (Staged.stage (fun () ->
               ignore (Solver.solve tiny_program (Strategies.get "1obj" tiny_program))));
        (* Same run with a live recorder, to expose the observer tax. *)
        Test.make ~name:"solver-1obj-tiny-recorded"
          (Staged.stage (fun () ->
               let recorder = Pta_obs.Recorder.create () in
               let config =
                 Solver.Config.make
                   ~observer:(Pta_obs.Recorder.observer recorder)
                   ()
               in
               ignore
                 (Solver.solve ~config tiny_program
                    (Strategies.get "1obj" tiny_program))));
        (* Same run with a live trace sink, to expose the tracer tax
           (compare against solver-1obj-tiny: the untraced run must not
           be measurably slower than before the tracer existed). *)
        Test.make ~name:"solver-1obj-tiny-traced"
          (Staged.stage (fun () ->
               let trace = Trace.create ~limit:4096 () in
               let config = Solver.Config.make ~trace () in
               ignore
                 (Solver.solve ~config tiny_program
                    (Strategies.get "1obj" tiny_program))));
        Test.make ~name:"solver-S-2obj+H-tiny"
          (Staged.stage (fun () ->
               ignore
                 (Solver.solve tiny_program
                    (Strategies.get "S-2obj+H" tiny_program))));
        Test.make ~name:"solver-U-2obj+H-tiny"
          (Staged.stage (fun () ->
               ignore
                 (Solver.solve tiny_program
                    (Strategies.get "U-2obj+H" tiny_program))));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  print_endline "=== Micro-benchmarks (Bechamel, monotonic clock) ===\n";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Regression gate: --baseline FILE --compare                          *)
(* ------------------------------------------------------------------ *)

let load_baseline path =
  match
    Snapshot.of_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok t -> t
  | Error e | (exception Sys_error e) ->
    Printf.eprintf "cannot load baseline %s: %s\n" path e;
    exit 2

let cmd_compare ~baseline_file ~time_tol ~heap_tol ~heap_component_tol
    ~min_scaling ~delta_md ~snapshot_out () =
  (* Fail early on an unreadable/unparseable baseline, but do NOT
     retain the parsed document across the measured grid: the cells'
     GC profile is a deterministic function of the process's allocation
     history, and holding a parsed JSON tree live while they run shifts
     their heap figures measurably relative to the `table1` process
     that blessed the baseline.  Parse, drop, measure, re-parse. *)
  ignore (load_baseline baseline_file : Snapshot.t);
  let current = current_snapshot () in
  Option.iter
    (fun path ->
      write_snapshot_file path current;
      Printf.printf "[%s written]\n%!" path)
    snapshot_out;
  let baseline = load_baseline baseline_file in
  (* Gate only over the selected benchmark x analysis subset; the
     current snapshot holds nothing else. *)
  let benchmarks = List.map (fun p -> p.Profile.name) (profiles ()) in
  let selected (c : Snapshot.cell) =
    List.mem c.Snapshot.benchmark benchmarks
    && List.mem c.Snapshot.analysis !selected_analyses
  in
  let baseline =
    {
      baseline with
      Snapshot.cells = List.filter selected baseline.Snapshot.cells;
    }
  in
  let thresholds =
    {
      Snapshot.default_thresholds with
      Snapshot.time_tol_pct = time_tol;
      heap_tol_pct = heap_tol;
      heap_component_tol_pct = heap_component_tol;
    }
  in
  Printf.printf "=== Regression report (vs %s) ===\n%!" baseline_file;
  if baseline.Snapshot.timeout_s <> current.Snapshot.timeout_s then
    Printf.eprintf
      "[bench] warning: baseline timeout %.0fs != current %.0fs; timeout \
       cells may not be comparable\n\
       %!"
      baseline.Snapshot.timeout_s current.Snapshot.timeout_s;
  let report = Snapshot.compare ~thresholds ~baseline ~current () in
  Format.printf "%a%!" Snapshot.pp_report report;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Snapshot.to_markdown report);
      close_out oc;
      Format.printf "[%s written]@." path)
    delta_md;
  (* The scaling gate is self-contained within the current snapshot: it
     pairs each jobs>1 cell with its jobs=1 sibling from the same run,
     so it never compares timings across hosts or commits. *)
  let scaling_failed =
    match min_scaling with
    | None -> false
    | Some min_speedup -> (
      print_scaling_section current;
      match Snapshot.check_scaling ~min_speedup current with
      | Snapshot.Scaling_ok points ->
        List.iter
          (fun pt ->
            Format.printf "scaling OK: %a@." Snapshot.pp_scaling_point pt)
          points;
        false
      | Snapshot.Scaling_skipped reason ->
        Printf.printf "scaling gate skipped: %s\n%!" reason;
        false
      | Snapshot.Scaling_regression points ->
        List.iter
          (fun pt ->
            Format.printf "SCALING REGRESSION (need >= %.2fx): %a@."
              min_speedup Snapshot.pp_scaling_point pt)
          points;
        true)
  in
  if Snapshot.has_regression report || scaling_failed then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: bench \
     [table1|propbench|figure3|summary|ablation|scaling|futurework|micro|all]*\n\
    \       bench --baseline FILE --compare [--time-tol PCT] [--heap-tol PCT]\n\
    \             [--heap-component-tol PCT] [--benchmarks a,b,c]\n\
    \             [--analyses x,y,z] [--jobs 1,4] [--min-scaling X]\n\
    \             [--delta-md FILE] [--snapshot-out FILE]\n";
  exit 2

let () =
  let baseline = ref None in
  let compare_mode = ref false in
  let time_tol = ref Snapshot.default_thresholds.Snapshot.time_tol_pct in
  let heap_tol = ref Snapshot.default_thresholds.Snapshot.heap_tol_pct in
  let heap_component_tol =
    ref Snapshot.default_thresholds.Snapshot.heap_component_tol_pct
  in
  let min_scaling = ref None in
  let delta_md = ref None in
  let snapshot_out = ref None in
  let cmds = ref [] in
  let float_arg v =
    match float_of_string_opt v with Some f -> f | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--compare" :: rest ->
      compare_mode := true;
      parse rest
    | "--time-tol" :: v :: rest ->
      time_tol := float_arg v;
      parse rest
    | "--heap-tol" :: v :: rest ->
      heap_tol := float_arg v;
      parse rest
    | "--heap-component-tol" :: v :: rest ->
      heap_component_tol := float_arg v;
      parse rest
    | "--min-scaling" :: v :: rest ->
      min_scaling := Some (float_arg v);
      parse rest
    | "--jobs" :: v :: rest ->
      selected_jobs :=
        List.map
          (fun n ->
            match int_of_string_opt n with
            | Some j when j >= 1 -> j
            | _ ->
              Printf.eprintf "bad --jobs value %S (want positive ints)\n" n;
              exit 2)
          (String.split_on_char ',' v);
      parse rest
    | "--delta-md" :: v :: rest ->
      delta_md := Some v;
      parse rest
    | "--snapshot-out" :: v :: rest ->
      snapshot_out := Some v;
      parse rest
    | "--benchmarks" :: v :: rest ->
      selected_profiles :=
        List.map
          (fun name ->
            match Profile.by_name name with
            | Some p -> p
            | None ->
              Printf.eprintf "unknown benchmark %S\n" name;
              exit 2)
          (String.split_on_char ',' v);
      parse rest
    | "--analyses" :: v :: rest ->
      selected_analyses :=
        List.map
          (fun name ->
            match Strategies.by_name name with
            | Some _ -> name
            | None ->
              Printf.eprintf "unknown analysis %S\n" name;
              exit 2)
          (String.split_on_char ',' v);
      parse rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
      Printf.eprintf "unknown flag %S\n" flag;
      usage ()
    | cmd :: rest ->
      cmds := cmd :: !cmds;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !compare_mode then begin
    match !baseline with
    | None ->
      Printf.eprintf "--compare requires --baseline FILE\n";
      usage ()
    | Some baseline_file ->
      if !cmds <> [] then usage ();
      cmd_compare ~baseline_file ~time_tol:!time_tol ~heap_tol:!heap_tol
        ~heap_component_tol:!heap_component_tol ~min_scaling:!min_scaling
        ~delta_md:!delta_md ~snapshot_out:!snapshot_out ()
  end
  else begin
    let cmds = if !cmds = [] then [ "all" ] else List.rev !cmds in
    List.iter
      (fun cmd ->
        match cmd with
        | "table1" -> cmd_table1 ()
        | "propbench" -> cmd_propbench ()
        | "figure3" -> cmd_figure3 ()
        | "summary" -> cmd_summary ()
        | "micro" -> cmd_micro ()
        | "ablation" -> cmd_ablation ()
        | "scaling" -> cmd_scaling ()
        | "futurework" -> cmd_futurework ()
        | "all" ->
          cmd_table1 ();
          cmd_figure3 ();
          cmd_summary ();
          cmd_ablation ();
          cmd_futurework ();
          cmd_scaling ();
          cmd_micro ()
        | other ->
          Printf.eprintf
            "unknown command %S (expected table1 | propbench | figure3 | \
             summary | ablation | scaling | futurework | micro | all)\n"
            other;
          exit 2)
      cmds
  end
