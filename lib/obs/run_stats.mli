(** The per-run statistics bundle the observability layer reports.

    Combines the engine's final sizes (nodes, contexts, abstract
    objects, the paper's platform-independent [sensitive_vpt_size]
    metric) with the {!Recorder}'s dynamic counters and phase timings.
    Every field except [wall_time_s] and [phases] is deterministic.

    Renders to a human-readable table ({!pp}) and to stable JSON
    ({!to_json}); {!of_json} parses the JSON back, so harnesses can
    round-trip stats files. *)

type t = {
  analysis : string;
  wall_time_s : float;
  iterations : int;
  n_nodes : int;
  n_edges : int;
  n_ctxs : int;
  n_hctxs : int;
  n_hobjs : int;
  sensitive_vpt_size : int;
  triggers : int;
  delta_total : int;
  max_delta : int;
  phases : (string * float) list;  (** seconds per phase, stable order *)
  memory : Memstats.delta option;
      (** GC/memory profile for the run, when tracking was enabled *)
  metrics : Json.t option;
      (** metric-registry export ({!Pta_metrics.Registry.to_json} shape);
          held opaquely to keep [pta_obs] at the bottom of the stack *)
}

val make :
  analysis:string ->
  wall_time_s:float ->
  sensitive_vpt_size:int ->
  n_ctxs:int ->
  n_hctxs:int ->
  n_hobjs:int ->
  ?memory:Memstats.delta ->
  ?metrics:Json.t ->
  Recorder.t ->
  t
(** Assemble from a recorder plus the engine's final readings.
    [memory] and [metrics] are omitted from the JSON when absent, so
    pre-existing stats documents keep their shape. *)

val to_json : t -> Json.t

val timed_out_json : analysis:string -> Budget.abort -> Json.t
(** The stats document of a run that exhausted its budget: the
    analysis, [timed_out: true] and the abort payload. *)

val of_json : Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit
