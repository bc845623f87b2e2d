module Json = Pta_obs.Json
module Census = Pta_obs.Census

let current_schema_version = 6

type hist = {
  bounds : float list;  (* strictly increasing upper bounds, no +Inf *)
  counts : int list;  (* per-bucket, non-cumulative; last = overflow *)
  sum : float;
}

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;
  iterations : int;
  nodes : int option;
  peak_heap_words : int option;
  time_hist : hist option;
  heap_components : Census.component list;  (* [] when absent *)
  jobs : int;
  domains : int;
}

type t = {
  timeout_s : float;
  host_cores : int option;
  pointsto : Json.t option;
  cells : cell list;
}

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let hist_to_json h =
  Json.Obj
    [
      ("bounds", Json.List (List.map (fun b -> Json.Float b) h.bounds));
      ("counts", Json.List (List.map (fun n -> Json.Int n) h.counts));
      ("sum", Json.Float h.sum);
    ]

(* A histogram straight off a {!Pta_metrics.Registry} handle:
   [histogram_buckets]' trailing +Inf bucket becomes the overflow
   count. *)
let hist_of_buckets ~sum buckets =
  let rec split bounds counts = function
    | [] -> { bounds = List.rev bounds; counts = List.rev counts; sum }
    | [ (_inf, n) ] -> split bounds (n :: counts) []
    | (b, n) :: rest -> split (b :: bounds) (n :: counts) rest
  in
  split [] [] buckets

let hist_of_json json =
  let err what = Error (Printf.sprintf "time_hist %s" what) in
  match
    ( Option.bind (Json.member "bounds" json) (Json.to_list_of Json.to_float),
      Option.bind (Json.member "counts" json) (Json.to_list_of Json.to_int),
      Option.bind (Json.member "sum" json) Json.to_float )
  with
  | Some bounds, Some counts, Some sum ->
    if List.length counts <> List.length bounds + 1 then
      err "counts must have one more entry than bounds"
    else if List.exists (fun n -> n < 0) counts then
      err "counts must be non-negative"
    else if
      (let rec incr = function
         | a :: (b :: _ as rest) -> a < b && incr rest
         | _ -> true
       in
       not (incr bounds))
    then err "bounds must be strictly increasing"
    else Ok { bounds; counts; sum }
  | _ -> err "needs numeric bounds, integer counts and a sum"

let hist_count h = List.fold_left ( + ) 0 h.counts

let cell_to_json c =
  Json.Obj
    ([
       ("benchmark", Json.String c.benchmark);
       ("analysis", Json.String c.analysis);
       ("timed_out", Json.Bool c.timed_out);
       ("time_s", Json.Float c.time_s);
       ("iterations", Json.Int c.iterations);
     ]
    @ (match c.nodes with None -> [] | Some n -> [ ("nodes", Json.Int n) ])
    @ (match c.peak_heap_words with
      | None -> []
      | Some w -> [ ("peak_heap_words", Json.Int w) ])
    @ (match c.time_hist with
      | None -> []
      | Some h -> [ ("time_hist", hist_to_json h) ])
    @ (match c.heap_components with
      | [] -> []
      | cs -> [ ("heap_components", Census.components_to_json cs) ])
    @
    (* jobs/domains are only written for parallel cells. *)
    if c.jobs = 1 && c.domains = 1 then []
    else [ ("jobs", Json.Int c.jobs); ("domains", Json.Int c.domains) ])

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int current_schema_version);
       ("timeout_s", Json.Float t.timeout_s);
     ]
    @ (match t.host_cores with
      | None -> []
      | Some n -> [ ("host_cores", Json.Int n) ])
    @ (match t.pointsto with None -> [] | Some v -> [ ("pointsto", v) ])
    @ [ ("cells", Json.List (List.map cell_to_json t.cells)) ])

let ( let* ) r f = Result.bind r f

let field json name conv =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped %S" name)

let optional json name conv =
  match Json.member name json with
  | None -> Ok None
  | Some j -> Result.map Option.some (conv j)

let cell_of_json json =
  let* benchmark = field json "benchmark" Json.to_str in
  let* analysis = field json "analysis" Json.to_str in
  let* timed_out =
    field json "timed_out" (function Json.Bool b -> Some b | _ -> None)
  in
  let* time_s = field json "time_s" Json.to_float in
  let* iterations = field json "iterations" Json.to_int in
  let nodes = Option.bind (Json.member "nodes" json) Json.to_int in
  let peak_heap_words =
    Option.bind (Json.member "peak_heap_words" json) Json.to_int
  in
  let* time_hist = optional json "time_hist" hist_of_json in
  let* heap_components =
    Result.map (Option.value ~default:[])
      (optional json "heap_components" Census.components_of_json_list)
  in
  let count name =
    Option.value ~default:1 (Option.bind (Json.member name json) Json.to_int)
  in
  let jobs = count "jobs" and domains = count "domains" in
  if jobs < 1 || domains < 1 then Error "jobs and domains must be >= 1"
  else
    Ok
      { benchmark; analysis; timed_out; time_s; iterations; nodes;
        peak_heap_words; time_hist; heap_components; jobs; domains }

let cells_of_json json =
  let* cell_list = field json "cells" Json.to_list in
  let* cells =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* c = cell_of_json j in
        Ok (c :: acc))
      (Ok []) cell_list
  in
  Ok (List.rev cells)

let of_json json =
  Result.map_error
    (fun e -> "bench snapshot: " ^ e)
    (let* schema_version = field json "schema_version" Json.to_int in
     if schema_version <> current_schema_version then
       Error
         (Printf.sprintf "unsupported schema_version %d (want %d)"
            schema_version current_schema_version)
     else
       let* timeout_s = field json "timeout_s" Json.to_float in
       let host_cores =
         Option.bind (Json.member "host_cores" json) Json.to_int
       in
       let pointsto = Json.member "pointsto" json in
       let* cells = cells_of_json json in
       Ok { timeout_s; host_cores; pointsto; cells })

let of_string s =
  match Json.of_string s with
  | Ok json -> of_json json
  | Error e -> Error (Printf.sprintf "bench snapshot: %s" e)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type thresholds = {
  time_tol_pct : float;
  heap_tol_pct : float;
  heap_component_tol_pct : float;
  min_time_s : float;
}

let default_thresholds =
  {
    time_tol_pct = 15.;
    heap_tol_pct = 10.;
    heap_component_tol_pct = 25.;
    min_time_s = 0.5;
  }

type verdict =
  | Time_regression of { base_s : float; cur_s : float; pct : float }
  | Heap_regression of { base_w : int; cur_w : int; pct : float }
  | Component_regression of Census.breach
  | New_timeout
  | Fixed_timeout
  | Missing_cell
  | New_cell

let verdict_is_regression = function
  | Time_regression _ | Heap_regression _ | Component_regression _
  | New_timeout | Missing_cell ->
    true
  | Fixed_timeout | New_cell -> false

type delta = {
  d_benchmark : string;
  d_analysis : string;
  d_jobs : int;
  d_base : cell option;
  d_cur : cell option;
  verdicts : verdict list;
}

type report = {
  thresholds : thresholds;
  deltas : delta list;  (** one per (benchmark, analysis), baseline order *)
}

let regressions r =
  List.filter (fun d -> List.exists verdict_is_regression d.verdicts) r.deltas

let has_regression r = regressions r <> []

let pct_change base cur =
  if base = 0. then if cur = 0. then 0. else infinity
  else (cur -. base) /. base *. 100.

let compare_cells ?(times_comparable = true) th (base : cell) (cur : cell) =
  match (base.timed_out, cur.timed_out) with
  | false, true -> [ New_timeout ]
  | true, false -> [ Fixed_timeout ]
  | true, true -> []
  | false, false ->
    let time_v =
      (* Cells faster than [min_time_s] in the baseline are pure noise:
         skip the relative-time check on them.  Parallel cells measured
         on hosts with different core counts are not comparable at all
         (jobs=4 on one core IS slower than on four): the caller clears
         [times_comparable] and the time check stays silent. *)
      if base.time_s < th.min_time_s then []
      else if cur.jobs > 1 && not times_comparable then []
      else
        let pct = pct_change base.time_s cur.time_s in
        if pct > th.time_tol_pct then
          [ Time_regression { base_s = base.time_s; cur_s = cur.time_s; pct } ]
        else []
    in
    let heap_v =
      match (base.peak_heap_words, cur.peak_heap_words) with
      | Some b, Some c when b > 0 ->
        let pct = pct_change (float_of_int b) (float_of_int c) in
        if pct > th.heap_tol_pct then
          [ Heap_regression { base_w = b; cur_w = c; pct } ]
        else []
      | _ -> []  (* no peak on one side: nothing to gate on *)
    in
    let comp_v =
      (* Cells without a census carry no components, so the list is
         empty and the gate is silent — same posture as the heap gate. *)
      List.map
        (fun b -> Component_regression b)
        (Census.compare_components ~tol_pct:th.heap_component_tol_pct
           ~baseline:base.heap_components ~current:cur.heap_components)
    in
    time_v @ heap_v @ comp_v

let compare ?(thresholds = default_thresholds) ~baseline ~current () =
  let key c = (c.benchmark, c.analysis, c.jobs) in
  (* jobs>1 timings only transfer between hosts with the same core
     count; an unknown count never matches a known one. *)
  let times_comparable =
    match (baseline.host_cores, current.host_cores) with
    | Some b, Some c -> b = c
    | _ -> false
  in
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace cur_tbl (key c) c) current.cells;
  let seen = Hashtbl.create 64 in
  let from_base =
    List.map
      (fun b ->
        Hashtbl.replace seen (key b) ();
        let cur = Hashtbl.find_opt cur_tbl (key b) in
        let verdicts =
          match cur with
          | None -> [ Missing_cell ]
          | Some c -> compare_cells ~times_comparable thresholds b c
        in
        {
          d_benchmark = b.benchmark;
          d_analysis = b.analysis;
          d_jobs = b.jobs;
          d_base = Some b;
          d_cur = cur;
          verdicts;
        })
      baseline.cells
  in
  let fresh =
    List.filter_map
      (fun c ->
        if Hashtbl.mem seen (key c) then None
        else
          Some
            {
              d_benchmark = c.benchmark;
              d_analysis = c.analysis;
              d_jobs = c.jobs;
              d_base = None;
              d_cur = Some c;
              verdicts = [ New_cell ];
            })
      current.cells
  in
  { thresholds; deltas = from_base @ fresh }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_label = function
  | Time_regression { pct; _ } -> Printf.sprintf "TIME +%.1f%%" pct
  | Heap_regression { pct; _ } -> Printf.sprintf "HEAP +%.1f%%" pct
  | Component_regression b ->
    Printf.sprintf "HEAP[%s] +%.1f%%" b.Census.b_name b.Census.b_pct
  | New_timeout -> "NEW TIMEOUT"
  | Fixed_timeout -> "fixed timeout"
  | Missing_cell -> "MISSING"
  | New_cell -> "new cell"

let cell_time = function
  | None -> "-"
  | Some c ->
    if c.timed_out then Printf.sprintf "T/O@%.1fs" c.time_s
    else Printf.sprintf "%.2f" c.time_s

let cell_iters = function None -> "-" | Some c -> string_of_int c.iterations

let cell_heap c =
  match Option.bind c (fun c -> c.peak_heap_words) with
  | None -> "-"
  | Some w -> Printf.sprintf "%.1fM" (float_of_int w /. 1e6)

let delta_status d =
  if d.verdicts = [] then "ok"
  else String.concat ", " (List.map verdict_label d.verdicts)

(* Parallel cells render as "analysis@j4" so one table can hold the
   whole jobs grid without a new column. *)
let delta_analysis_label d =
  if d.d_jobs = 1 then d.d_analysis
  else Printf.sprintf "%s@j%d" d.d_analysis d.d_jobs

let to_markdown r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# Benchmark regression report\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Thresholds: time +%.0f%%, peak heap +%.0f%%, heap component +%.0f%% \
        (cells under %.2fs skipped for time).\n\n"
       r.thresholds.time_tol_pct r.thresholds.heap_tol_pct
       r.thresholds.heap_component_tol_pct r.thresholds.min_time_s);
  let n_reg = List.length (regressions r) in
  Buffer.add_string buf
    (if n_reg = 0 then "**No regressions.**\n\n"
     else Printf.sprintf "**%d regression(s).**\n\n" n_reg);
  Buffer.add_string buf
    "| benchmark | analysis | base time | cur time | base iters | cur iters \
     | base heap | cur heap | status |\n";
  Buffer.add_string buf
    "|---|---|---:|---:|---:|---:|---:|---:|---|\n";
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n"
           d.d_benchmark (delta_analysis_label d) (cell_time d.d_base)
           (cell_time d.d_cur) (cell_iters d.d_base) (cell_iters d.d_cur)
           (cell_heap d.d_base) (cell_heap d.d_cur) (delta_status d)))
    r.deltas;
  Buffer.contents buf

let pp_report ppf r =
  let reg = regressions r in
  List.iter
    (fun d ->
      Format.fprintf ppf "  %-10s %-10s %s -> %s  %s@." d.d_benchmark
        (delta_analysis_label d) (cell_time d.d_base) (cell_time d.d_cur)
        (delta_status d))
    r.deltas;
  if reg = [] then Format.fprintf ppf "no regressions@."
  else
    Format.fprintf ppf "%d regression(s): %s@." (List.length reg)
      (String.concat ", "
         (List.map
            (fun d -> d.d_benchmark ^ "/" ^ delta_analysis_label d)
            reg))

(* ------------------------------------------------------------------ *)
(* Scaling: jobs>1 cells against their sequential siblings             *)
(* ------------------------------------------------------------------ *)

type scaling_point = {
  s_benchmark : string;
  s_analysis : string;
  s_jobs : int;
  s_domains : int;
  s_seq_time_s : float;  (* the jobs=1 sibling's time *)
  s_time_s : float;
  s_speedup : float;  (* seq_time / time; > 1 = faster in parallel *)
}

let scaling_points t =
  let seq = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if c.jobs = 1 && not c.timed_out then
        Hashtbl.replace seq (c.benchmark, c.analysis) c.time_s)
    t.cells;
  List.filter_map
    (fun c ->
      if c.jobs <= 1 || c.timed_out then None
      else
        Option.map
          (fun seq_t ->
            {
              s_benchmark = c.benchmark;
              s_analysis = c.analysis;
              s_jobs = c.jobs;
              s_domains = c.domains;
              s_seq_time_s = seq_t;
              s_time_s = c.time_s;
              s_speedup = (if c.time_s > 0. then seq_t /. c.time_s else 0.);
            })
          (Hashtbl.find_opt seq (c.benchmark, c.analysis)))
    t.cells

type scaling_verdict =
  | Scaling_ok of scaling_point list
  | Scaling_regression of scaling_point list  (* the points that missed *)
  | Scaling_skipped of string

let check_scaling ?(min_jobs_cores = 4) ~min_speedup t =
  match scaling_points t with
  | [] -> Scaling_skipped "no parallel cells with a finished jobs=1 sibling"
  | points -> (
    match t.host_cores with
    | None -> Scaling_skipped "snapshot carries no host core count"
    | Some cores when cores < min_jobs_cores ->
      Scaling_skipped
        (Printf.sprintf
           "host has %d core(s); the speedup target needs at least %d" cores
           min_jobs_cores)
    | Some _ -> (
      (* The target applies to points that actually had enough cores to
         meet it: jobs beyond the host's core count cannot speed up
         linearly and are reported, not gated. *)
      let gated = List.filter (fun p -> p.s_domains >= min_jobs_cores) points in
      match List.filter (fun p -> p.s_speedup < min_speedup) gated with
      | [] -> Scaling_ok points
      | missed -> Scaling_regression missed))

let pp_scaling_point ppf p =
  Format.fprintf ppf "%s/%s jobs=%d (domains=%d): %.2fs -> %.2fs, %.2fx"
    p.s_benchmark p.s_analysis p.s_jobs p.s_domains p.s_seq_time_s p.s_time_s
    p.s_speedup
