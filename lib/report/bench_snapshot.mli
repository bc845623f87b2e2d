(** The bench cell format, its codec, and the comparator for the
    committed benchmark snapshots ([BENCH_table1.json],
    [BENCH_prop.json]).  Bench-history ledger records
    ({!Pta_bench_history.Record}) store the same {!cell}, through the
    same {!cell_to_json}/{!cells_of_json}.

    A snapshot is [schema_version] 6: the [timeout_s] cutoff, an
    optional [host_cores] stamp, an optional [pointsto] build stamp,
    and one cell per (benchmark, analysis, jobs).  Each cell holds the
    best wall time (or elapsed-at-abort for a timeout), iterations and
    supergraph nodes, and, for finished cells, the instrumented run's
    peak major heap, the distribution of the timed solves and the
    reachable-heap census components.  [jobs]/[domains] are written
    only for parallel cells.  {!of_json} accepts exactly this version.

    {!compare} gates time, peak heap, census components, timeout flips
    and missing cells; it reports iterations but has no verdict on
    them.  Parallel cells' times are only compared when both snapshots
    carry the same, known [host_cores]. *)

module Json := Pta_obs.Json

val current_schema_version : int
(** The one version {!to_json} writes and {!of_json} reads: 6. *)

type hist = {
  bounds : float list;  (** strictly increasing upper bounds, no +Inf *)
  counts : int list;  (** per-bucket, non-cumulative; last = overflow *)
  sum : float;
}
(** A serialised latency histogram, [le] bucket semantics. *)

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;  (** best wall time, or elapsed-at-abort for timeouts *)
  iterations : int;
  nodes : int option;  (** supergraph nodes (also at abort) *)
  peak_heap_words : int option;
      (** major-heap peak of the instrumented run; [None] for timeouts *)
  time_hist : hist option;  (** per-run solve-time distribution *)
  heap_components : Pta_obs.Census.component list;
      (** reachable-heap census components; [[]] when absent *)
  jobs : int;  (** requested worklist domains *)
  domains : int;
      (** domains the drain actually used ([Config.effective_jobs]) *)
}

type t = {
  timeout_s : float;
  host_cores : int option;
      (** core count of the measuring host.  Parallel timings only
          compare across equal, known core counts. *)
  pointsto : Json.t option;  (** build stamp, held opaquely *)
  cells : cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

val cell_to_json : cell -> Json.t

val cells_of_json : Json.t -> (cell list, string) result
(** The [cells] member of a snapshot or ledger-record document.  Strict
    on each cell's required fields and on a present [time_hist] or
    [heap_components] block; absent [jobs]/[domains] read as 1. *)

(** {1 Histogram helpers} *)

val hist_to_json : hist -> Json.t

val hist_of_json : Json.t -> (hist, string) result
(** Validates shape: [length counts = length bounds + 1], non-negative
    counts, strictly increasing bounds. *)

val hist_of_buckets : sum:float -> (float * int) list -> hist
(** From {!Pta_metrics.Registry.histogram_buckets} output: the trailing
    [+Inf] bucket becomes the overflow count. *)

val hist_count : hist -> int
(** Total observations. *)

(** {1 Regression comparison} *)

type thresholds = {
  time_tol_pct : float;  (** flag cells slower by more than this *)
  heap_tol_pct : float;  (** flag cells with a fatter peak heap *)
  heap_component_tol_pct : float;
      (** flag census components whose retained words grew by more than
          this (skipped when either side lacks census data) *)
  min_time_s : float;
      (** baseline cells faster than this skip the relative-time check
          (sub-noise-floor timings) *)
}

val default_thresholds : thresholds
(** +15% time, +10% peak heap, +25% per heap component, 0.5s floor. *)

type verdict =
  | Time_regression of { base_s : float; cur_s : float; pct : float }
  | Heap_regression of { base_w : int; cur_w : int; pct : float }
  | Component_regression of Pta_obs.Census.breach
      (** one census component's retained words grew past tolerance *)
  | New_timeout  (** finished in the baseline, times out now *)
  | Fixed_timeout  (** the reverse: an improvement, never a failure *)
  | Missing_cell  (** in the baseline but absent from the current run *)
  | New_cell  (** in the current run but absent from the baseline *)

val verdict_is_regression : verdict -> bool
(** [Time_regression], [Heap_regression], [Component_regression],
    [New_timeout] and [Missing_cell] fail the gate; the rest are
    informational. *)

type delta = {
  d_benchmark : string;
  d_analysis : string;
  d_jobs : int;  (** the matched cells' jobs count (1 for older schemas) *)
  d_base : cell option;
  d_cur : cell option;
  verdicts : verdict list;  (** empty = within thresholds *)
}

type report = {
  thresholds : thresholds;
  deltas : delta list;  (** baseline order, then new cells *)
}

val compare : ?thresholds:thresholds -> baseline:t -> current:t -> unit -> report
val regressions : report -> delta list
val has_regression : report -> bool

val to_markdown : report -> string
(** Full per-cell delta table (time, iterations, peak heap, status). *)

val pp_report : Format.formatter -> report -> unit
(** Terminal-friendly summary: one line per cell, regressions recapped
    last. *)

(** {1 Parallel scaling} *)

type scaling_point = {
  s_benchmark : string;
  s_analysis : string;
  s_jobs : int;
  s_domains : int;
  s_seq_time_s : float;  (** the cell's jobs=1 sibling's time *)
  s_time_s : float;
  s_speedup : float;  (** [s_seq_time_s /. s_time_s]; > 1 = parallel wins *)
}

val scaling_points : t -> scaling_point list
(** Every finished jobs>1 cell paired with its finished jobs=1 sibling
    from the {e same} snapshot — scaling is only meaningful within one
    measurement, never across hosts. *)

type scaling_verdict =
  | Scaling_ok of scaling_point list  (** all gated points met the target *)
  | Scaling_regression of scaling_point list  (** the points that missed *)
  | Scaling_skipped of string
      (** no parallel cells, no core stamp, or too few cores to hold
          the solver to the target — the reason is the payload *)

val check_scaling : ?min_jobs_cores:int -> min_speedup:float -> t -> scaling_verdict
(** Gate the snapshot's own scaling section: every point with
    [s_domains >= min_jobs_cores] (default 4) must reach [min_speedup].
    Skips (rather than fails) on hosts with fewer than [min_jobs_cores]
    cores — a 1-core CI runner cannot exhibit parallel speedup, and
    pretending otherwise would gate on noise. *)

val pp_scaling_point : Format.formatter -> scaling_point -> unit
