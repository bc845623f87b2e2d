(* The in-process half of the end-to-end benchmark (see README.md).

     pbench plan   --workload W --seed N --dir D
       generate the workload's MJ inputs under D/inputs and write
       D/manifest.json (inputs with their digests, and the job list)
     pbench ref    --dir D --cache C [--shard I/N]
       write D/expected.json: the Datalog reference's verdict for every
       job, cached in C per input digest, analysis and job kind
     pbench replay --dir D [--trace-out F]
       replay the job list in this process, calling the same public
       functions as the pointsto CLI in the same order, one trace span
       per call; print per-layer self times, allocation and work counts
     pbench spawn
       run jobs as child processes, one per request line on stdin,
       and answer each with the child's wall time, CPU time, max RSS
       and exit status (see spawn_stubs.c)
     pbench calib N
       run a fixed allocation-heavy kernel of size N that uses none of
       the repository's code, and print the seconds it took: a probe
       of how fast the host runs at that moment

   Jobs run with D as the working directory and name their input
   [inputs/FILE], so SARIF locations are the same whichever directory a
   run uses. *)

module Json = Pta_obs.Json
module Trace = Pta_obs.Trace
module Recorder = Pta_obs.Recorder
module Memstats = Pta_obs.Memstats
module Run_stats = Pta_obs.Run_stats
module Registry = Pta_metrics.Registry
module Profile = Pta_workloads.Profile
module Solver = Pta_solver.Solver
module Driver = Pta_driver.Driver
module Frontend = Pta_frontend.Frontend
module Metrics = Pta_clients.Metrics
module Spec = Pta_taint.Spec
module Taint = Pta_taint.Taint
module Results = Pta_checkers.Results
module Checkers = Pta_checkers.Checkers
module Diagnostic = Pta_checkers.Diagnostic
module Sarif = Pta_checkers.Sarif

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("pbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind = Analyze | Check | Stats

let kind_name = function Analyze -> "analyze" | Check -> "check" | Stats -> "stats"

let kind_of_name = function
  | "analyze" -> Analyze
  | "check" -> Check
  | "stats" -> Stats
  | k -> fail "unknown job kind %S" k

type input = { profile : Profile.t; scale : float; index : int }

let input_file i = Printf.sprintf "inputs/%s-%03d.mj" i.profile.Profile.name i.index

type job = { kind : kind; input : input; analysis : string }

(* The analysis [pointsto check] runs when given no [-a]. *)
let check_default = "S-2obj+H"

(* Many small programs rather than a few large ones: a generated
   program's cost varies by 15-35% from seed to seed, and the reference
   oracle, 6-8x slower than a CLI pass, must check every job of every
   run.  [solve] has the most programs because its jython cells have a
   heavy tail that sets job_p95_s.  README.md records the figures. *)
let workload name =
  (* Every job gets a program of its own, so no two jobs' costs are
     correlated through a shared input. *)
  let cells kind ~scale ~programs cells =
    List.concat (List.init programs (fun _ -> cells))
    |> List.mapi (fun index (profile, analysis) -> { kind; input = { profile; scale; index }; analysis })
  in
  let open Profile in
  match name with
  | "solve" ->
    Some
      (cells Analyze ~scale:0.15 ~programs:24
         [
           (cyclic, "1call"); (cyclic, "1obj"); (xalan, "1call"); (xalan, "S-2obj+H");
           (jython, "2obj+H"); (jython, "S-2obj+H"); (chart, "1obj"); (chart, "S-2type+H");
         ])
  | "check" ->
    Some
      (cells Check ~scale:0.2 ~programs:18
         (List.map (fun p -> (p, check_default)) [ luindex; lusearch; pmd; eclipse; antlr ]))
  | "small-files" -> Some (cells Check ~scale:0.1 ~programs:240 [ (luindex, check_default) ])
  | "stats" -> Some (cells Stats ~scale:0.2 ~programs:36 [ (cyclic, "1call"); (xalan, "1obj") ])
  | _ -> None

(* Every program's profile seed derives from the run's seed, the
   profile and the file's index, and from nothing else. *)
let profile_seed ~seed i =
  String.get_int64_le
    (Digest.string (Printf.sprintf "perfbench/%d/%s/%d" seed i.profile.Profile.name i.index))
    0

let source ~seed i =
  Pta_workloads.Gen.generate
    (Profile.scale i.scale { i.profile with Profile.seed = profile_seed ~seed i })

(* ------------------------------------------------------------------ *)
(* Files and JSON                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let field name j =
  match Json.member name j with Some v -> v | None -> fail "missing field %S" name

let str name j = match Json.to_str (field name j) with Some s -> s | None -> fail "%S: not a string" name
let int name j = match Json.to_int (field name j) with Some n -> n | None -> fail "%S: not an int" name
let list name j = match Json.to_list (field name j) with Some l -> l | None -> fail "%S: not a list" name

let lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let spec_file = "taint.spec"

let plan ~workload:name ~seed ~dir =
  let jobs = match workload name with Some j -> j | None -> fail "unknown workload %S" name in
  let inputs = List.sort_uniq compare (List.map (fun j -> j.input) jobs) in
  Sys.mkdir (Filename.concat dir "inputs") 0o755;
  write_file (Filename.concat dir spec_file) (Spec.to_string Spec.default);
  let input_json i =
    let src = source ~seed i in
    write_file (Filename.concat dir (input_file i)) src;
    Json.Obj
      [
        ("file", Json.String (input_file i));
        ("profile", Json.String i.profile.Profile.name);
        ("scale", Json.Float i.scale);
        ("profile_seed", Json.String (Printf.sprintf "0x%016Lx" (profile_seed ~seed i)));
        ("digest", Json.String (Digest.to_hex (Digest.string src)));
        ("lines", Json.Int (lines src));
      ]
  in
  let job_json id j =
    Json.Obj
      [
        ("id", Json.Int id);
        ("kind", Json.String (kind_name j.kind));
        ("file", Json.String (input_file j.input));
        ("analysis", Json.String j.analysis);
      ]
  in
  write_file
    (Filename.concat dir "manifest.json")
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String name);
            ("seed", Json.Int seed);
            ("build", Pta_version.Version.to_json ());
            ("spec", Json.String spec_file);
            ("inputs", Json.List (List.map input_json inputs));
            ("jobs", Json.List (List.mapi job_json jobs));
          ]))

type mjob = { id : int; mkind : kind; file : string; manalysis : string }

let load_manifest () =
  let m = read_json "manifest.json" in
  let digests = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace digests (str "file" i) (str "digest" i)) (list "inputs" m);
  let jobs =
    List.map
      (fun j ->
        { id = int "id" j; mkind = kind_of_name (str "kind" j); file = str "file" j; manalysis = str "analysis" j })
      (list "jobs" m)
  in
  (digests, jobs)

(* ------------------------------------------------------------------ *)
(* ref: the Datalog reference oracle                                   *)
(* ------------------------------------------------------------------ *)

let load_program file =
  match Driver.load_files [ file ] with
  | Ok p -> p
  | Error e -> Format.kasprintf (fail "%s") "%a" Driver.pp_error e

let strategy program analysis =
  match Driver.strategy_of_name program analysis with
  | Ok s -> s
  | Error e -> Format.kasprintf (fail "%s") "%a" Driver.pp_error e

(* The CLI's mini-JDK filter: findings located in the bundled library
   are hidden unless [--include-stdlib]. *)
let in_stdlib (d : Diagnostic.t) =
  match d.span with
  | Some span -> String.equal span.Pta_ir.Srcloc.left.file Pta_mjdk.Mjdk.file_name
  | None -> false

let reference job =
  let program = load_program job.file in
  let strategy = strategy program job.manalysis in
  let r = Pta_refimpl.Refimpl.run program strategy in
  let counts =
    [
      ("vpt", Json.Int (Pta_refimpl.Refimpl.n_var_points_to r));
      ("call_edges", Json.Int (Pta_refimpl.Refimpl.n_call_edges r));
      ("reachable", Json.Int (Pta_refimpl.Refimpl.n_reachable r));
    ]
  in
  match job.mkind with
  | Analyze | Stats -> Json.Obj (("exit", Json.Int 0) :: counts)
  | Check ->
    let spec =
      match Spec.load spec_file with Ok s -> Spec.compile program s | Error e -> fail "%s" e
    in
    let taint = Pta_taint.Taint_ref.summary (Pta_taint.Taint_ref.analyze program strategy r spec) in
    let diags =
      List.filter (fun d -> not (in_stdlib d)) (Checkers.run (Results.of_refimpl ~taint program r))
    in
    Json.Obj
      ([
         ("exit", Json.Int (if Diagnostic.has_errors diags then 4 else 0));
         ("sarif", Sarif.to_json ~tool_version:"1.0.0" diags);
       ]
      @ counts)

let safe_name s = String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c | _ -> '_') s

(* With [shard = Some (i, n)] only fill the cache for the jobs whose id
   is [i] modulo [n], so that several processes can share the work. *)
let ref_cmd ~cache ~shard =
  let digests, jobs = load_manifest () in
  (try Sys.mkdir cache 0o755 with Sys_error _ -> ());
  let reference_of job =
    let path =
      Filename.concat cache
        (Printf.sprintf "%s-%s-%s.json" (Hashtbl.find digests job.file) (safe_name job.manalysis)
           (kind_name job.mkind))
    in
    if Sys.file_exists path then read_json path
    else begin
      let r = reference job in
      let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
      write_file tmp (Json.to_string ~indent:false r);
      Sys.rename tmp path;
      r
    end
  in
  match shard with
  | Some (i, n) -> List.iter (fun job -> if job.id mod n = i then ignore (reference_of job : Json.t)) jobs
  | None ->
    let expected = List.map (fun job -> (string_of_int job.id, reference_of job)) jobs in
    write_file "expected.json" (Json.to_string ~indent:false (Json.Obj expected))

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Work counts per pass, summed over jobs, in first-seen order. *)
let add_count counts name n =
  match List.assoc_opt name !counts with
  | Some r -> r := !r + n
  | None -> counts := !counts @ [ (name, ref n) ]

let propagated_kinds = [ "move"; "load"; "store"; "vcall"; "scall" ]

(* A second, untimed solve with a live registry and recorder: the
   solver's counters are public only through those, and the CLI runs
   [analyze] and [check] without them. *)
let solver_counts counts program strategy =
  let recorder = Recorder.create () in
  let metrics = Registry.create () in
  let config = Solver.Config.make ~observer:(Recorder.observer recorder) ~metrics () in
  let s = Solver.solve ~config program strategy in
  let counter ?labels name = Registry.counter_value (Registry.counter metrics ?labels name) in
  add_count counts "solver.iterations" (Recorder.iterations recorder);
  add_count counts "solver.nodes" (Solver.n_nodes s);
  add_count counts "solver.contexts" (Solver.n_ctxs s);
  add_count counts "solver.hobjs" (Solver.n_hobjs s);
  add_count counts "solver.vpt" (Solver.sensitive_vpt_size s);
  add_count counts "solver.cs_call_edges" (Solver.n_call_edges_cs s);
  List.iter
    (fun k ->
      add_count counts ("solver.propagated." ^ k)
        (counter ~labels:[ ("kind", k) ] "pta_solver_propagated_total"))
    propagated_kinds;
  add_count counts "solver.sccs_collapsed" (counter "pta_solver_sccs_collapsed_total")

let stamp_build = function
  | Json.Obj fields -> Json.Obj (fields @ [ ("pointsto", Pta_version.Version.to_json ()) ])
  | j -> j

(* [--stats-json] gives the CLI a live registry, into which the driver
   writes per-phase GC gauges and the census gauges.  The driver does
   not export those two steps, so these mirror [Driver.record_memory]
   and [Driver.record_census], names, labels and help texts included. *)
let record_memory metrics ~phase (d : Memstats.delta) =
  let g name help v = Registry.set (Registry.gauge metrics ~help ~labels:[ ("phase", phase) ] name) v in
  let gi name help v = g name help (float_of_int v) in
  g "pta_gc_minor_allocated_words" "Words allocated in the minor heap" d.minor_allocated_words;
  g "pta_gc_major_allocated_words" "Words allocated in the major heap" d.major_allocated_words;
  g "pta_gc_promoted_words" "Words promoted minor-to-major" d.promoted_delta_words;
  gi "pta_gc_minor_collections" "Minor collections" d.minor_collections_delta;
  gi "pta_gc_major_collections" "Major collection cycles" d.major_collections_delta;
  gi "pta_gc_compactions" "Heap compactions" d.compactions_delta;
  gi "pta_gc_peak_heap_words" "Peak major-heap size (Gc.alarm-sampled)" d.peak_heap_words

let record_census metrics (census : Pta_obs.Census.t) =
  let module Census = Pta_obs.Census in
  List.iter
    (fun (c : Census.component) ->
      Registry.set
        (Registry.gauge metrics ~help:"Retained bytes attributed to a solver component"
           ~labels:[ ("component", c.comp_name) ]
           "pta_heap_component_bytes")
        (float_of_int (Census.bytes_of_words census c.retained_words)))
    census.components;
  Option.iter
    (fun c ->
      Registry.set
        (Registry.gauge metrics
           ~help:"Intset structural sharing over points-to sets: unshared / retained words"
           "pta_intset_sharing_factor")
        (Census.sharing_factor c))
    (Census.find census "points-to-sets")

(* One job, as the CLI runs it: [pointsto analyze FILE -a A],
   [... --stats-json OUT], or [pointsto check FILE --taint-spec SPEC
   --format sarif -o OUT].  Each public call is one span named after
   its layer. *)
let run_job trace counts job =
  let span name f = Trace.span trace ~cat:(string_of_int job.id) name f in
  let metrics =
    match job.mkind with
    | Stats -> Registry.create ~labels:[ ("analysis", job.manalysis) ] ()
    | Analyze | Check -> Registry.null
  in
  let live = not (Registry.is_null metrics) in
  (* [Driver.load_program]: with a live registry, one GC tracker around
     parsing (the mini-JDK and the file) and one around lowering. *)
  let parse_tracker = ref None in
  let mjdk =
    span "mjdk.parse" (fun () ->
        if live then parse_tracker := Some (Memstats.start_tracking ());
        Frontend.parse ~file:Pta_mjdk.Mjdk.file_name Pta_mjdk.Mjdk.source)
  in
  let src = ref "" in
  let decls =
    span "frontend.parse" (fun () ->
        src := read_file job.file;
        let decls = Frontend.parse ~file:job.file !src in
        Option.iter (fun t -> record_memory metrics ~phase:"parse" (Memstats.finish t)) !parse_tracker;
        decls)
  in
  let program =
    span "frontend.lower" (fun () ->
        let lower () = Pta_frontend.Lower.program (mjdk @ decls) in
        if live then begin
          let program, d = Memstats.tracked lower in
          record_memory metrics ~phase:"lower" d;
          program
        end
        else lower ())
  in
  add_count counts "frontend.lines" (lines Pta_mjdk.Mjdk.source + lines !src);
  let out = Printf.sprintf "out/%d.%s" job.id (match job.mkind with Check -> "sarif" | _ -> "json") in
  let report_metrics solver =
    span "clients.metrics" (fun () -> Format.asprintf "%a" Metrics.pp (Metrics.compute solver))
  in
  match job.mkind with
  | Analyze ->
    let solver =
      span "solver.solve" (fun () ->
          Solver.solve ~config:(Solver.Config.make ~jobs:1 ()) program (strategy program job.manalysis))
    in
    ignore (report_metrics solver : string)
  | Stats ->
    (* [Driver.run ~collect_stats:true] under a live registry, split at
       the census and the stats assembly. *)
    let recorder = Recorder.create () in
    let solver, memory, wall_time_s =
      span "solver.solve" (fun () ->
          let strategy = strategy program job.manalysis in
          let tracker = Memstats.start_tracking () in
          let config =
            Solver.Config.make ~jobs:1
              ~observer:(Pta_obs.Observer.tee Pta_obs.Observer.null (Recorder.observer recorder))
              ~metrics ~mem_tracker:tracker ()
          in
          let clock = Pta_obs.Clock.create () in
          let solver = Solver.solve ~config program strategy in
          let wall_time_s = Pta_obs.Clock.elapsed_s clock in
          let memory = Memstats.finish tracker in
          record_memory metrics ~phase:"solve" memory;
          (solver, memory, wall_time_s))
    in
    span "obs.census" (fun () -> record_census metrics (Solver.census solver));
    let stats =
      span "obs.stats_json" (fun () ->
          Run_stats.make ~analysis:job.manalysis ~wall_time_s
            ~sensitive_vpt_size:(Solver.sensitive_vpt_size solver) ~n_ctxs:(Solver.n_ctxs solver)
            ~n_hctxs:(Solver.n_hctxs solver) ~n_hobjs:(Solver.n_hobjs solver) ~memory
            ~metrics:(Registry.to_json metrics) recorder)
    in
    ignore (report_metrics solver : string);
    span "obs.stats_json" (fun () ->
        write_file out (Json.to_string (stamp_build (Run_stats.to_json stats))))
  | Check ->
    let solver =
      span "solver.solve" (fun () ->
          Solver.solve ~config:(Solver.Config.make ~jobs:1 ()) program (strategy program job.manalysis))
    in
    let spec =
      span "taint.compile" (fun () ->
          match Spec.load spec_file with Ok s -> Spec.compile program s | Error e -> fail "%s" e)
    in
    let taint = span "taint.analyze" (fun () -> Taint.summary (Taint.analyze solver spec)) in
    add_count counts "taint.flows" (List.length taint.Taint.s_flows);
    let results = span "checkers.results" (fun () -> Results.of_solver ~taint solver) in
    let diags =
      List.concat_map
        (fun (i : Checkers.info) -> span ("checkers." ^ i.code) (fun () -> Checkers.run ~only:[ i.code ] results))
        Checkers.all
    in
    let diags = List.filter (fun d -> not (in_stdlib d)) (List.sort Diagnostic.compare diags) in
    add_count counts "checkers.diagnostics" (List.length diags);
    let sarif =
      span "checkers.sarif" (fun () ->
          let s = Sarif.to_string ~tool_version:"1.0.0" diags in
          write_file out s;
          s)
    in
    add_count counts "checkers.sarif.bytes" (String.length sarif)

type layer = { self_s : float; alloc_w : float; minor_w : float }

type pass = {
  wall_s : float;  (** traced jobs *)
  untraced_s : float;  (** the same jobs without a trace sink *)
  layers : (string * layer) list;
  counts : (string * int) list;
}

(* Each job runs untraced and then traced, so the two see the same
   process state and their difference prices the tracing. *)
let replay_pass jobs =
  let trace = Trace.create ~alloc:true () in
  let counts = ref [] in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let wall = ref 0. and untraced = ref 0. in
  List.iter
    (fun job ->
      untraced := !untraced +. timed (fun () -> run_job Trace.null (ref []) job);
      wall :=
        !wall +. timed (fun () -> Trace.span trace ~cat:(string_of_int job.id) "job" (fun () -> run_job trace counts job)))
    jobs;
  (* Counting re-solves, so it runs after the timed jobs. *)
  List.iter
    (fun job ->
      let program = load_program job.file in
      solver_counts counts program (strategy program job.manalysis))
    jobs;
  (* Every layer span is a leaf under its job's span, so a layer's
     aggregate time and allocation, summed over jobs, are its self time
     and self allocation. *)
  let layers =
    List.fold_left
      (fun acc (s : Trace.stat) ->
        if String.equal s.stat_name "job" then acc
        else
          let l = Option.value ~default:{ self_s = 0.; alloc_w = 0.; minor_w = 0. } (List.assoc_opt s.stat_name acc) in
          ( s.stat_name,
            { self_s = l.self_s +. s.seconds; alloc_w = l.alloc_w +. Trace.stat_alloc_words s; minor_w = l.minor_w +. s.minor_words } )
          :: List.remove_assoc s.stat_name acc)
      [] (Trace.profile trace)
  in
  ( trace,
    {
      wall_s = !wall;
      untraced_s = !untraced;
      layers = List.sort compare layers;
      counts = List.map (fun (n, r) -> (n, !r)) !counts;
    } )

let pass_json p =
  let num x = Json.Float x in
  Json.Obj
    [
      ("wall_s", num p.wall_s);
      ("untraced_s", num p.untraced_s);
      ( "layers",
        Json.Obj
          (List.map
             (fun (n, l) ->
               (n, Json.Obj [ ("self_s", num l.self_s); ("alloc_w", num l.alloc_w); ("minor_w", num l.minor_w) ]))
             p.layers) );
      ("counts", Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) p.counts));
    ]

(* Two passes, which must agree on every allocation and work count. *)
let replay_cmd ~trace_out =
  let _, jobs = load_manifest () in
  (try Sys.mkdir "out" 0o755 with Sys_error _ -> ());
  let _, first = replay_pass jobs in
  let trace, second = replay_pass jobs in
  Option.iter (fun path -> write_file path (Json.to_string ~indent:false (Trace.to_chrome_json trace))) trace_out;
  print_string (Json.to_string ~indent:false (Json.List [ pass_json first; pass_json second ]));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* spawn                                                               *)
(* ------------------------------------------------------------------ *)

external spawn : string array -> string -> string -> int -> float * float * int * int = "pbench_spawn"

(* This process's own high-water RSS in KiB.  Not getrusage's ru_maxrss,
   which also holds the high-water RSS of the process that exec'd it. *)
let self_maxrss () =
  let status = read_file "/proc/self/status" in
  match
    List.find_map
      (fun l -> if String.starts_with ~prefix:"VmHWM:" l then Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id else None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> kb
  | None -> fail "no VmHWM in /proc/self/status"

(* One request per line: [self], answered with this process's
   high-water RSS in KiB, or [TIMEOUT_S CWD STDOUT PROGRAM ARG...] separated by tabs,
   answered with [WALL_S CPU_S MAXRSS_KB STATUS]. *)
let spawn_cmd () =
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some "self" ->
      Printf.printf "%d\n%!" (self_maxrss ());
      loop ()
    | Some line ->
      (match String.split_on_char '\t' line with
      | timeout :: cwd :: out :: (_ :: _ as argv) ->
        let wall, cpu, rss, status = spawn (Array.of_list argv) cwd out (int_of_string timeout) in
        Printf.printf "%.9f %.9f %d %d\n%!" wall cpu rss status
      | _ -> fail "spawn: bad request %S" line);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* calib                                                               *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* Balanced-tree inserts and a hash table of lists: allocation and
   pointer chasing on a fresh heap, like a short CLI job, but from the
   standard library only, so no change to the repository moves it. *)
let calib_kernel n =
  let state = ref 12345 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    !state
  in
  let m = ref Int_map.empty in
  for _ = 1 to n do
    m := Int_map.add (next () land 0xfffff) (next ()) !m
  done;
  let h = Hashtbl.create 16 in
  Int_map.iter
    (fun k v ->
      let b = k land 0xffff in
      Hashtbl.replace h b (v :: Option.value (Hashtbl.find_opt h b) ~default:[]))
    !m;
  Hashtbl.fold (fun _ l acc -> acc + List.length l) h 0

let calib_cmd n =
  let t0 = Unix.gettimeofday () in
  let entries = calib_kernel n in
  let dt = Unix.gettimeofday () -. t0 in
  if entries <= 0 then fail "calib: empty kernel result";
  Printf.printf "%.9f\n" dt

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and dir = ref "" and cache = ref "" and trace_out = ref None in
  let shard = ref None in
  let set_shard s =
    match String.split_on_char '/' s with
    | [ i; n ] -> shard := Some (int_of_string i, int_of_string n)
    | _ -> raise (Arg.Bad "--shard expects I/N")
  in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to plan");
      ("--seed", Arg.Set_int seed, "N seed the inputs derive from");
      ("--dir", Arg.Set_string dir, "DIR run directory");
      ("--cache", Arg.Set_string cache, "DIR reference cache (absolute)");
      ("--shard", Arg.String set_shard, "I/N only fill the cache for jobs I modulo N");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace of the last pass");
    ]
  in
  let usage = "pbench (plan|ref|replay|spawn|calib) [options]" in
  if Array.length Sys.argv < 2 then fail "%s" usage;
  if Sys.argv.(1) = "calib" then (
    match Sys.argv with
    | [| _; _; n |] -> calib_cmd (int_of_string n); exit 0
    | _ -> fail "usage: pbench calib N");
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> fail "unexpected argument %S" a) usage
   with Arg.Bad msg | Arg.Help msg -> fail "%s" msg);
  if !dir = "" && Sys.argv.(1) <> "spawn" then fail "--dir is required";
  match Sys.argv.(1) with
  | "spawn" -> spawn_cmd ()
  | "plan" -> plan ~workload:!workload ~seed:!seed ~dir:!dir
  | "ref" ->
    Sys.chdir !dir;
    ref_cmd ~cache:!cache ~shard:!shard
  | "replay" ->
    Sys.chdir !dir;
    replay_cmd ~trace_out:!trace_out
  | c -> fail "unknown command %S (%s)" c usage
