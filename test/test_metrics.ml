(** Tests for the pta_metrics registry and the bench snapshot codec:
    exposition determinism, null-registry transparency of the solver,
    histogram bucket semantics, snapshot round-tripping, and the
    regression comparator's verdicts. *)

module Registry = Pta_metrics.Registry
module Snapshot = Pta_report.Bench_snapshot
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Census = Pta_obs.Census
module Json = Pta_obs.Json
module Metrics = Pta_clients.Metrics

let tiny_program () =
  Pta_workloads.Workloads.program
    (Option.get (Pta_workloads.Profile.by_name "tiny"))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* The same sequence of updates must expose byte-identically, whatever
   order families and label sets were registered in. *)
let exposition_deterministic_test () =
  let build order_flipped =
    let r = Registry.create ~labels:[ ("benchmark", "tiny") ] () in
    let reg_counter k =
      Registry.counter r ~help:"Edges walked" ~labels:[ ("kind", k) ]
        "pta_test_edges_total"
    in
    let kinds = [ "move"; "load"; "store" ] in
    let kinds = if order_flipped then List.rev kinds else kinds in
    List.iter (fun k -> Registry.add (reg_counter k) 7) kinds;
    let g = Registry.gauge r ~help:"Nodes" "pta_test_nodes" in
    Registry.set g 42.;
    let h =
      Registry.histogram r ~buckets:(Registry.pow2_buckets 4) "pta_test_sizes"
    in
    List.iter (Registry.observe_int h) [ 1; 2; 3; 9; 100 ];
    Registry.to_openmetrics r
  in
  let a = build false and b = build true in
  Alcotest.(check string) "byte-identical" a b;
  Alcotest.(check bool)
    "terminated by EOF" true
    (String.length a > 6
    && String.equal (String.sub a (String.length a - 6) 6) "# EOF\n")

(* JSON exposition must be deterministic too (it lands in --stats-json
   and bench snapshots). *)
let json_deterministic_test () =
  let build () =
    let r = Registry.create () in
    Registry.incr (Registry.counter r "pta_test_total");
    Registry.set (Registry.gauge r "pta_test_gauge") 3.5;
    Json.to_string (Registry.to_json r)
  in
  Alcotest.(check string) "same JSON" (build ()) (build ())

(* The null registry hands out dummy handles: updates are dead stores,
   exposition is empty, and no family is ever created. *)
let null_registry_test () =
  let r = Registry.null in
  Alcotest.(check bool) "is_null" true (Registry.is_null r);
  let c = Registry.counter r "pta_test_total" in
  Registry.incr c;
  Registry.add c 10;
  let g = Registry.gauge r "pta_test_gauge" in
  Registry.set g 1.;
  let h = Registry.histogram r ~buckets:[ 1.; 2. ] "pta_test_h" in
  Registry.observe h 1.5;
  Alcotest.(check string) "empty exposition" "# EOF\n" (Registry.to_openmetrics r);
  Alcotest.(check bool)
    "live registry is not null" false
    (Registry.is_null (Registry.create ()))

(* Running the solver with a live registry must not change what it
   computes, and the instrumented gauges must agree with the solver's
   own numbers. *)
let solver_transparent_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let bare = Solver.solve program (factory program) in
  let r = Registry.create () in
  let config = Solver.Config.make ~metrics:r () in
  let metered = Solver.solve ~config program (factory program) in
  Alcotest.(check bool)
    "identical metric bundles" true
    (Metrics.compute bare = Metrics.compute metered);
  let gauge name =
    int_of_float (Registry.gauge_value (Registry.gauge r name))
  in
  Alcotest.(check int)
    "nodes gauge matches" (Solver.n_nodes metered) (gauge "pta_solver_nodes");
  Alcotest.(check bool)
    "propagation counters populated" true
    (Registry.counter_value
       (Registry.counter r ~labels:[ ("kind", "move") ]
          "pta_solver_propagated_total")
     > 0)

(* The fixpoint loop must not touch meters when metrics are off: the
   meter bundle is the module-level shared dummy and the worklist-depth
   sampling is skipped, so a null-metered solve allocates exactly as
   much as any other null-metered solve — and strictly less than a
   live-metered one, which registers families and boxes histogram
   samples.  (Regression test for the null path allocating per-solve
   meter records / sampling the depth histogram unconditionally.) *)
let null_metrics_allocation_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
  let strategy = factory program in
  let measure config =
    (* Warm-up run: populates program-side memo tables so the measured
       run's allocation is purely the solver's. *)
    ignore (Solver.solve ~config program strategy);
    let before = Gc.allocated_bytes () in
    ignore (Solver.solve ~config program strategy);
    Gc.allocated_bytes () -. before
  in
  let null_explicit = measure (Solver.Config.make ~metrics:Registry.null ()) in
  let null_default = measure Solver.Config.default in
  let live = measure (Solver.Config.make ~metrics:(Registry.create ()) ()) in
  Alcotest.(check (float 0.))
    "null-metered solves allocate identically" null_explicit null_default;
  Alcotest.(check bool)
    (Printf.sprintf "null (%.0fB) allocates less than live (%.0fB)"
       null_explicit live)
    true
    (null_explicit < live)

(* On a cycle-heavy workload the online cycle elimination must actually
   fire: SCCs collapsed, nodes unified, and stale queue entries dropped
   — and the worklist-depth histogram is fed from the priority queue. *)
let cycle_counters_test () =
  let profile =
    Pta_workloads.Profile.scale 0.2
      (Option.get (Pta_workloads.Profile.by_name "cyclic"))
  in
  let src = Pta_workloads.Workloads.source profile in
  let program = Pta_frontend.Frontend.program_of_string ~file:"cyclic" src in
  let factory = Option.get (Pta_context.Strategies.by_name "insens") in
  let r = Registry.create () in
  let config = Solver.Config.make ~metrics:r () in
  let solver = Solver.solve ~config program (factory program) in
  let c name = Registry.counter_value (Registry.counter r name) in
  Alcotest.(check bool)
    "sccs collapsed" true (c "pta_solver_sccs_collapsed_total" > 0);
  Alcotest.(check bool)
    "nodes unified" true (c "pta_solver_nodes_unified_total" > 0);
  Alcotest.(check bool)
    "redundant visits avoided" true
    (c "pta_solver_redundant_visits_avoided_total" > 0);
  Alcotest.(check bool)
    "more nodes than classes" true
    (c "pta_solver_nodes_unified_total" > c "pta_solver_sccs_collapsed_total");
  let depth =
    Registry.histogram r ~buckets:(Registry.pow2_buckets 18)
      "pta_solver_worklist_depth"
  in
  Alcotest.(check bool)
    "worklist depth sampled" true
    (Registry.histogram_count depth > 0);
  (* Unified members answer queries through their canonical node. *)
  let unified_pair = ref None in
  (try
     for i = 0 to Solver.n_nodes solver - 1 do
       let r = Solver.canonical_node solver i in
       if r <> i then begin
         unified_pair := Some (i, r);
         raise Exit
       end
     done
   with Exit -> ());
  match !unified_pair with
  | None -> Alcotest.fail "no unified node found despite nonzero counters"
  | Some (i, r) ->
    Alcotest.(check bool)
      "unified member shares its representative's points-to set" true
      (Intset.equal
         (Solver.node_points_to solver i)
         (Solver.node_points_to solver r))

(* The Datalog engine's counters: rounds tick, every rule has a fact
   counter, and the per-relation gauges agree with the engine's final
   fact counts — all deterministic across two runs. *)
let datalog_metrics_test () =
  let program = tiny_program () in
  let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
  let run () =
    let r = Registry.create () in
    let (_ : Pta_refimpl.Refimpl.t) =
      Pta_refimpl.Refimpl.run ~metrics:r program (factory program)
    in
    r
  in
  let r = run () in
  Alcotest.(check bool)
    "rounds ticked" true
    (Registry.counter_value (Registry.counter r "pta_datalog_rounds_total") > 0);
  Alcotest.(check bool)
    "vcall rule derived facts" true
    (Registry.counter_value
       (Registry.counter r ~labels:[ ("rule", "vcall") ]
          "pta_datalog_facts_total")
     > 0);
  Alcotest.(check bool)
    "relation gauge populated" true
    (Registry.gauge_value
       (Registry.gauge r ~labels:[ ("relation", "VarPointsTo") ]
          "pta_datalog_relation_facts")
     > 0.);
  Alcotest.(check string)
    "deterministic" (Registry.to_openmetrics r)
    (Registry.to_openmetrics (run ()))

(* le semantics: a value equal to a bucket's upper bound lands in that
   bucket, one past it lands in the next, and values beyond the last
   bound land in the implicit +Inf bucket. *)
let histogram_buckets_test () =
  let r = Registry.create () in
  let h = Registry.histogram r ~buckets:[ 1.; 2.; 4. ] "pta_test_h" in
  List.iter (Registry.observe_int h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Registry.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 15. (Registry.histogram_sum h);
  let text = Registry.to_openmetrics r in
  let expect line =
    Alcotest.(check bool)
      (Printf.sprintf "exposition has %S" line)
      true
      (List.mem line (String.split_on_char '\n' text))
  in
  (* Cumulative: le=1 -> 1, le=2 -> 2, le=4 -> 4, le=+Inf -> 5. *)
  expect "pta_test_h_bucket{le=\"1.0\"} 1";
  expect "pta_test_h_bucket{le=\"2.0\"} 2";
  expect "pta_test_h_bucket{le=\"4.0\"} 4";
  expect "pta_test_h_bucket{le=\"+Inf\"} 5";
  expect "pta_test_h_count 5"

let pow2_buckets_test () =
  Alcotest.(check (list (float 1e-9)))
    "ladder" [ 1.; 2.; 4.; 8. ] (Registry.pow2_buckets 4)

let exp_buckets_test () =
  Alcotest.(check (list (float 1e-9)))
    "geometric ladder"
    [ 0.5; 1.5; 4.5 ]
    (Registry.exp_buckets ~start:0.5 ~factor:3. 3);
  (* the shared time ladder: 1ms doubling, 24 buckets, ~2.3h ceiling *)
  let tb = Registry.time_buckets in
  Alcotest.(check int) "time ladder length" 24 (List.length tb);
  Alcotest.(check (float 1e-12)) "time ladder start" 0.001 (List.hd tb);
  Alcotest.(check bool)
    "strictly increasing" true
    (List.for_all2 (fun a b -> a < b)
       (List.filteri (fun i _ -> i < 23) tb)
       (List.tl tb));
  List.iter
    (fun f ->
      Alcotest.check_raises "invalid args rejected"
        (Invalid_argument
           (Printf.sprintf "Registry.exp_buckets: %s"
              (match f with
              | `Start -> "start must be positive and finite"
              | `Factor -> "factor must be > 1 and finite"
              | `Count -> "count must be >= 1")))
        (fun () ->
          ignore
            (match f with
            | `Start -> Registry.exp_buckets ~start:0. ~factor:2. 3
            | `Factor -> Registry.exp_buckets ~start:1. ~factor:1. 3
            | `Count -> Registry.exp_buckets ~start:1. ~factor:2. 0)))
    [ `Start; `Factor; `Count ]

(* histogram_buckets hands back per-bucket (non-cumulative) counts with
   the +Inf overflow last — the shape the snapshot hist codec stores. *)
let histogram_to_hist_test () =
  let r = Registry.create () in
  let h = Registry.histogram r ~buckets:[ 1.; 2.; 4. ] "pta_test_h" in
  List.iter (Registry.observe_int h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (pair (float 1e-9) int)))
    "per-bucket counts"
    [ (1., 1); (2., 1); (4., 2); (infinity, 1) ]
    (Registry.histogram_buckets h);
  let hist =
    Snapshot.hist_of_buckets ~sum:(Registry.histogram_sum h)
      (Registry.histogram_buckets h)
  in
  Alcotest.(check (list (float 1e-9))) "bounds" [ 1.; 2.; 4. ] hist.Snapshot.bounds;
  Alcotest.(check (list int)) "counts" [ 1; 1; 2; 1 ] hist.Snapshot.counts;
  Alcotest.(check int) "total" 5 (Snapshot.hist_count hist);
  (* codec round-trip, and the codec's shape rejections *)
  (match Snapshot.hist_of_json (Snapshot.hist_to_json hist) with
  | Ok hist' -> Alcotest.(check bool) "round-trip" true (hist = hist')
  | Error e -> Alcotest.failf "hist round-trip: %s" e);
  let reject what h =
    match Snapshot.hist_of_json (Snapshot.hist_to_json h) with
    | Ok _ -> Alcotest.failf "%s: unexpectedly accepted" what
    | Error _ -> ()
  in
  reject "length mismatch" { hist with Snapshot.counts = [ 1; 2 ] };
  reject "negative count" { hist with Snapshot.counts = [ 1; -1; 2; 1 ] };
  reject "non-increasing bounds" { hist with Snapshot.bounds = [ 1.; 1.; 4. ] };
  (* Mistyped entries reject the histogram; dropping them would load a
     different (still well-shaped) one. *)
  match
    Snapshot.hist_of_json
      (Json.Obj
         [
           ("bounds", Json.List [ Json.Float 0.1; Json.String "x"; Json.Float 0.4 ]);
           ( "counts",
             Json.List [ Json.Int 0; Json.String "y"; Json.Int 1; Json.Int 2 ] );
           ("sum", Json.Float 0.5);
         ])
  with
  | Ok _ -> Alcotest.fail "mistyped entries: unexpectedly accepted"
  | Error _ -> ()

(* Misuse must fail loudly at registration/update time. *)
let registry_validation_test () =
  let r = Registry.create () in
  let (_ : Registry.counter) = Registry.counter r "pta_test_total" in
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Registry: pta_test_total registered as counter, requested as gauge")
    (fun () -> ignore (Registry.gauge r "pta_test_total"));
  Alcotest.check_raises "bad name"
    (Invalid_argument "Registry: invalid metric name \"9bad\"") (fun () ->
      ignore (Registry.counter r "9bad"));
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Registry: histogram needs at least one bucket")
    (fun () -> ignore (Registry.histogram r ~buckets:[] "pta_test_h"));
  let c = Registry.counter r "pta_test_mono_total" in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Registry.add: counters are monotone") (fun () ->
      Registry.add c (-1))

(* ------------------------------------------------------------------ *)
(* Bench snapshot codec                                                *)
(* ------------------------------------------------------------------ *)

let cell ?(timed_out = false) ?(time_s = 1.0) ?(iterations = 100) ?nodes
    ?peak_heap_words ?time_hist ?(heap_components = []) ?(jobs = 1) ?domains
    benchmark analysis =
  {
    Snapshot.benchmark; analysis; timed_out; time_s; iterations; nodes;
    peak_heap_words; time_hist; heap_components; jobs;
    domains = Option.value ~default:jobs domains;
  }

let snap ?pointsto ?host_cores cells =
  {
    Snapshot.timeout_s = 60.;
    host_cores;
    pointsto;
    cells;
  }

let comps =
  [
    { Census.comp_name = "points-to-sets"; retained_words = 100_000;
      unshared_words = 320_000 };
    { Census.comp_name = "edge-lists"; retained_words = 50_000;
      unshared_words = 50_000 };
  ]

let v2_roundtrip_test () =
  let hist =
    { Snapshot.bounds = [ 0.5; 1.0 ]; counts = [ 2; 1; 0 ]; sum = 1.9 }
  in
  let t =
    snap
      ~pointsto:(Json.Obj [ ("commit", Json.String "abc123") ])
      [
        cell ~nodes:1234 ~peak_heap_words:8192 ~time_hist:hist
          ~heap_components:comps
          "antlr" "2obj+H";
        cell ~timed_out:true ~time_s:60.2 ~iterations:999 "bloat" "2obj+H";
      ]
  in
  match Snapshot.of_string (Json.to_string (Snapshot.to_json t)) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check bool) "stamp survives" true (t'.Snapshot.pointsto <> None);
    (match t'.Snapshot.cells with
    | [ c1; c2 ] ->
      Alcotest.(check (option int)) "nodes" (Some 1234) c1.Snapshot.nodes;
      Alcotest.(check (option int)) "peak heap survives" (Some 8192)
        c1.Snapshot.peak_heap_words;
      Alcotest.(check bool) "hist survives" true
        (c1.Snapshot.time_hist = Some hist);
      Alcotest.(check bool) "components survive" true
        (c1.Snapshot.heap_components = comps);
      Alcotest.(check bool) "absent components read back empty" true
        (c2.Snapshot.heap_components = []);
      Alcotest.(check bool) "timeout cell" true c2.Snapshot.timed_out;
      Alcotest.(check bool) "timeout cell has no hist" true
        (c2.Snapshot.time_hist = None);
      Alcotest.(check int) "abort iterations" 999 c2.Snapshot.iterations
    | _ -> Alcotest.fail "wrong cell count")

(* The reader accepts exactly the current version: older documents are
   refused like future ones. *)
let unsupported_schema_test () =
  List.iter
    (fun v ->
      match
        Snapshot.of_string
          (Printf.sprintf
             {|{"schema_version": %d, "timeout_s": 1, "cells": []}|} v)
      with
      | Ok _ -> Alcotest.failf "schema %d: expected an error" v
      | Error e ->
        Alcotest.(check bool)
          "names the version" true
          (Helpers.contains_substring e (string_of_int v)))
    [ 5; 99 ]

(* ------------------------------------------------------------------ *)
(* Regression comparator                                               *)
(* ------------------------------------------------------------------ *)

let compare_cells base cur =
  Snapshot.compare ~baseline:(snap base) ~current:(snap cur) ()

let regression_verdicts_test () =
  (* +30% time with a 15% tolerance: flagged. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:1.3 "a" "x" ]
  in
  Alcotest.(check bool) "time regression" true (Snapshot.has_regression r);
  (* +10% is inside the default 15% tolerance. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:1.1 "a" "x" ]
  in
  Alcotest.(check bool) "within tolerance" false (Snapshot.has_regression r);
  (* Getting faster is never a regression. *)
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:0.4 "a" "x" ]
  in
  Alcotest.(check bool) "speedup ok" false (Snapshot.has_regression r);
  (* Sub-floor baseline cells skip the relative-time check entirely. *)
  let r =
    compare_cells
      [ cell ~time_s:0.01 "a" "x" ]
      [ cell ~time_s:0.04 "a" "x" ]
  in
  Alcotest.(check bool) "noise floor" false (Snapshot.has_regression r)

let heap_verdict_test () =
  let base = cell ~peak_heap_words:8192 "a" "x" in
  let fat = cell ~peak_heap_words:16384 "a" "x" in
  let r = compare_cells [ base ] [ fat ] in
  Alcotest.(check bool) "heap regression" true (Snapshot.has_regression r);
  (* Against a baseline cell without a peak there is nothing to gate on. *)
  let r = compare_cells [ cell "a" "x" ] [ fat ] in
  Alcotest.(check bool) "peak-less baseline skips heap" false
    (Snapshot.has_regression r)

let timeout_verdicts_test () =
  let fine = cell "a" "x" and dead = cell ~timed_out:true "a" "x" in
  let r = compare_cells [ fine ] [ dead ] in
  Alcotest.(check bool) "new timeout fails" true (Snapshot.has_regression r);
  let r = compare_cells [ dead ] [ fine ] in
  Alcotest.(check bool) "fixed timeout passes" false (Snapshot.has_regression r);
  let r = compare_cells [ dead ] [ dead ] in
  Alcotest.(check bool) "both timed out" false (Snapshot.has_regression r)

let cell_presence_test () =
  let r = compare_cells [ cell "a" "x" ] [] in
  Alcotest.(check bool) "missing cell fails" true (Snapshot.has_regression r);
  let r = compare_cells [] [ cell "a" "x" ] in
  Alcotest.(check bool) "new cell passes" false (Snapshot.has_regression r);
  Alcotest.(check int) "new cell reported" 1 (List.length r.Snapshot.deltas)

(* Per-component gating: a census component growing past the tolerance
   must fail the comparison even when time and peak heap are flat. *)
let component_verdict_test () =
  let base = cell ~heap_components:comps "a" "x" in
  let grown =
    cell
      ~heap_components:
        (List.map
           (fun (c : Census.component) ->
             if c.Census.comp_name = "points-to-sets" then
               { c with Census.retained_words = 150_000 }
             else c)
           comps)
      "a" "x"
  in
  let r = compare_cells [ base ] [ grown ] in
  Alcotest.(check bool) "component regression" true (Snapshot.has_regression r);
  let verdicts = (List.hd r.Snapshot.deltas).Snapshot.verdicts in
  Alcotest.(check bool)
    "names the component" true
    (List.exists
       (function
         | Snapshot.Component_regression b ->
           b.Census.b_name = "points-to-sets"
         | _ -> false)
       verdicts);
  (* A loosened component tolerance lets the same growth through. *)
  let thresholds =
    { Snapshot.default_thresholds with Snapshot.heap_component_tol_pct = 100. }
  in
  let r =
    Snapshot.compare ~thresholds ~baseline:(snap [ base ])
      ~current:(snap [ grown ]) ()
  in
  Alcotest.(check bool) "loosened gate passes" false (Snapshot.has_regression r);
  (* Baselines without census blocks have nothing to gate on. *)
  let r = compare_cells [ cell "a" "x" ] [ grown ] in
  Alcotest.(check bool) "component-less baseline passes" false
    (Snapshot.has_regression r)

let custom_thresholds_test () =
  let thresholds =
    { Snapshot.default_thresholds with Snapshot.time_tol_pct = 50. }
  in
  let r =
    Snapshot.compare ~thresholds
      ~baseline:(snap [ cell ~time_s:1.0 "a" "x" ])
      ~current:(snap [ cell ~time_s:1.3 "a" "x" ])
      ()
  in
  Alcotest.(check bool) "loosened gate passes" false (Snapshot.has_regression r)

let markdown_report_test () =
  let r =
    compare_cells [ cell ~time_s:1.0 "a" "x" ] [ cell ~time_s:2.0 "a" "x" ]
  in
  let md = Snapshot.to_markdown r in
  Alcotest.(check bool)
    "names the cell" true
    (Helpers.contains_substring md "| a | x |");
  Alcotest.(check bool)
    "counts regressions" true
    (Helpers.contains_substring md "1 regression(s)")

(* ------------------------------------------------------------------ *)
(* Jobs cells, host cores, the scaling gate                           *)
(* ------------------------------------------------------------------ *)

let v5_jobs_roundtrip_test () =
  let t =
    snap ~host_cores:4
      [
        cell ~time_s:4.0 "cyclic" "insens";
        cell ~time_s:1.1 ~jobs:4 ~domains:4 "cyclic" "insens";
      ]
  in
  (match Snapshot.of_string (Json.to_string (Snapshot.to_json t)) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check (option int)) "host_cores survives" (Some 4)
      t'.Snapshot.host_cores;
    (match t'.Snapshot.cells with
    | [ c1; c4 ] ->
      Alcotest.(check int) "sequential cell jobs" 1 c1.Snapshot.jobs;
      Alcotest.(check int) "parallel cell jobs" 4 c4.Snapshot.jobs;
      Alcotest.(check int) "parallel cell domains" 4 c4.Snapshot.domains
    | _ -> Alcotest.fail "wrong cell count"));
  (* A sequential-only snapshot writes no jobs/domains/host_cores keys. *)
  let seq_json =
    Json.to_string (Snapshot.to_json (snap [ cell "a" "x" ]))
  in
  Alcotest.(check bool) "no jobs key on sequential cells" false
    (Helpers.contains_substring seq_json "jobs");
  Alcotest.(check bool) "no host_cores without a stamp" false
    (Helpers.contains_substring seq_json "host_cores")

let compare_jobs_keyed_test () =
  (* A jobs=4 cell never matches a jobs=1 baseline cell: each parallel
     leg gates against its own history. *)
  let baseline = snap ~host_cores:4 [ cell ~time_s:1.0 "a" "x" ] in
  let current =
    snap ~host_cores:4 [ cell ~time_s:5.0 ~jobs:4 ~domains:4 "a" "x" ]
  in
  let r = Snapshot.compare ~baseline ~current () in
  Alcotest.(check bool) "distinct keys: missing + new, no time verdict" true
    (List.for_all
       (fun d ->
         List.for_all
           (function
             | Snapshot.Missing_cell | Snapshot.New_cell -> true | _ -> false)
           d.Snapshot.verdicts)
       r.Snapshot.deltas);
  (* Same core count on both sides: a parallel cell's slowdown gates. *)
  let baseline =
    snap ~host_cores:4 [ cell ~time_s:1.0 ~jobs:4 ~domains:4 "a" "x" ]
  in
  let current =
    snap ~host_cores:4 [ cell ~time_s:2.0 ~jobs:4 ~domains:4 "a" "x" ]
  in
  let r = Snapshot.compare ~baseline ~current () in
  Alcotest.(check bool) "comparable cores: flagged" true
    (Snapshot.has_regression r);
  (* Different (or unknown) core counts: the parallel time check is
     meaningless and must be skipped, not flagged. *)
  let baseline' = { baseline with Snapshot.host_cores = Some 8 } in
  let r = Snapshot.compare ~baseline:baseline' ~current () in
  Alcotest.(check bool) "cores differ: skipped" false
    (Snapshot.has_regression r);
  let baseline'' = { baseline with Snapshot.host_cores = None } in
  let r = Snapshot.compare ~baseline:baseline'' ~current () in
  Alcotest.(check bool) "cores unknown: skipped" false
    (Snapshot.has_regression r)

let scaling_gate_test () =
  let grid ~host_cores ~par_time =
    snap ?host_cores
      [
        cell ~time_s:4.0 "cyclic" "insens";
        cell ~time_s:par_time ~jobs:4 ~domains:4 "cyclic" "insens";
      ]
  in
  (* 4.0s -> 1.25s at 4 domains = 3.2x. *)
  (match Snapshot.scaling_points (grid ~host_cores:(Some 4) ~par_time:1.25) with
  | [ p ] ->
    Alcotest.(check int) "jobs" 4 p.Snapshot.s_jobs;
    Alcotest.(check bool) "speedup computed" true
      (Float.abs (p.Snapshot.s_speedup -. 3.2) < 1e-9)
  | ps -> Alcotest.failf "expected 1 scaling point, got %d" (List.length ps));
  (match
     Snapshot.check_scaling ~min_speedup:2.0
       (grid ~host_cores:(Some 4) ~par_time:1.25)
   with
  | Snapshot.Scaling_ok [ _ ] -> ()
  | _ -> Alcotest.fail "expected Scaling_ok");
  (match
     Snapshot.check_scaling ~min_speedup:2.0
       (grid ~host_cores:(Some 4) ~par_time:3.5)
   with
  | Snapshot.Scaling_regression [ _ ] -> ()
  | _ -> Alcotest.fail "expected Scaling_regression");
  (* A 1-core host cannot exhibit speedup: skip, never fail. *)
  (match
     Snapshot.check_scaling ~min_speedup:2.0
       (grid ~host_cores:(Some 1) ~par_time:4.5)
   with
  | Snapshot.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip on a small host");
  (* No core stamp: also a skip (unknown hardware). *)
  (match
     Snapshot.check_scaling ~min_speedup:2.0 (grid ~host_cores:None ~par_time:1.0)
   with
  | Snapshot.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip without a core stamp");
  (* No parallel cells at all: nothing to gate. *)
  match
    Snapshot.check_scaling ~min_speedup:2.0
      (snap ~host_cores:4 [ cell ~time_s:4.0 "cyclic" "insens" ])
  with
  | Snapshot.Scaling_skipped _ -> ()
  | _ -> Alcotest.fail "expected skip without parallel cells"

let tests =
  [
    Alcotest.test_case "exposition deterministic" `Quick
      exposition_deterministic_test;
    Alcotest.test_case "json deterministic" `Quick json_deterministic_test;
    Alcotest.test_case "null registry" `Quick null_registry_test;
    Alcotest.test_case "solver transparent under metrics" `Quick
      solver_transparent_test;
    Alcotest.test_case "null metrics allocate nothing extra" `Quick
      null_metrics_allocation_test;
    Alcotest.test_case "cycle-elimination counters fire" `Quick
      cycle_counters_test;
    Alcotest.test_case "datalog engine counters" `Quick datalog_metrics_test;
    Alcotest.test_case "histogram buckets (le)" `Quick histogram_buckets_test;
    Alcotest.test_case "pow2 buckets" `Quick pow2_buckets_test;
    Alcotest.test_case "exp buckets" `Quick exp_buckets_test;
    Alcotest.test_case "histogram to snapshot hist" `Quick
      histogram_to_hist_test;
    Alcotest.test_case "registry validation" `Quick registry_validation_test;
    Alcotest.test_case "snapshot v2 round-trip" `Quick v2_roundtrip_test;
    Alcotest.test_case "unsupported schema" `Quick unsupported_schema_test;
    Alcotest.test_case "time regression verdicts" `Quick
      regression_verdicts_test;
    Alcotest.test_case "heap regression verdict" `Quick heap_verdict_test;
    Alcotest.test_case "component regression verdict" `Quick
      component_verdict_test;
    Alcotest.test_case "timeout verdicts" `Quick timeout_verdicts_test;
    Alcotest.test_case "missing / new cells" `Quick cell_presence_test;
    Alcotest.test_case "custom thresholds" `Quick custom_thresholds_test;
    Alcotest.test_case "markdown report" `Quick markdown_report_test;
    Alcotest.test_case "snapshot v5 jobs round-trip" `Quick
      v5_jobs_roundtrip_test;
    Alcotest.test_case "compare is jobs-keyed and cores-guarded" `Quick
      compare_jobs_keyed_test;
    Alcotest.test_case "scaling gate" `Quick scaling_gate_test;
  ]
