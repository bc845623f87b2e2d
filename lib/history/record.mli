(** One bench-history ledger record: the per-cell measurements of one
    benchmark run, keyed by the build stamp of the binary that produced
    them.

    Snapshots are the working files a bench run overwrites in place;
    the ledger is the append-only archive those runs accumulate into
    ([bench/history.jsonl]).  Both store the same cell
    ({!Pta_report.Bench_snapshot.cell}, through its codec), but the
    record wraps the cells in its own envelope (build stamp, host
    fingerprint, [seq]) and carries its own [schema_version].
    {!of_json} is strict — a record of any other schema, or with a
    missing/mistyped field, is rejected rather than half-read, because
    a silently misparsed ledger line poisons every trend computed over
    it. *)

module Json := Pta_obs.Json
module Snapshot := Pta_report.Bench_snapshot

val current_schema_version : int
(** The one version {!to_json} writes and {!of_json} reads: 3. *)

type build = {
  semver : string;
  commit : string;  (** bare short hash, or ["unknown"] *)
  dirty : bool;  (** built from a worktree with uncommitted changes *)
  ocaml : string;
  profile : string;  (** dune profile *)
}

val commit_label : build -> string
(** [commit] with the ["-dirty"] suffix restored when [dirty]. *)

type host = {
  os_type : string;  (** [Sys.os_type] *)
  word_size : int;  (** [Sys.word_size] *)
  hostname : string;
  cores : int option;  (** core count; [None] when unknown *)
}
(** A coarse host fingerprint: timings from different machines must
    never be silently compared, and this is how the trend tooling tells
    them apart.  [hostname] honours [$PTA_BENCH_HOST] so CI and tests
    can pin a stable name.  [cores] extends the rule to parallel cells:
    the trend and bisect tooling skip records whose core count differs
    from the one under test. *)

val current_host : ?cores:int -> unit -> host
(** [cores] is the caller's estimate of the machine's core count
    (e.g. {!Pta_solver.Par.recommended_domains}); [$PTA_BENCH_CORES]
    overrides it, like [$PTA_BENCH_HOST] does the hostname. *)

type cell = Snapshot.cell

type t = {
  seq : int;  (** position in the ledger; assigned by {!Ledger.append} *)
  timestamp : float option;  (** unix seconds; [None] on synthetic records *)
  note : string option;  (** free-form provenance, e.g. ["ci"] *)
  timeout_s : float;
  build : build;
  host : host;
  cells : cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Strict: rejects any schema version but {!current_schema_version}
    and missing or mistyped fields (including malformed [time_hist]
    blocks). *)

val of_snapshot :
  seq:int ->
  ?timestamp:float ->
  ?note:string ->
  host:host ->
  Snapshot.t ->
  (t, string) result
(** Build a record from a bench snapshot ([BENCH_table1.json] /
    [BENCH_prop.json]).  The build stamp is taken from the snapshot's
    own [pointsto] field — the binary that {e measured}, not the one
    appending — and is required: a stamp-less snapshot is refused,
    because an untraceable ledger record is worse than none.  A
    ["-dirty"]-suffixed commit or an explicit [dirty] flag in the stamp
    both mark the record dirty. *)

val cell_find :
  ?jobs:int -> t -> benchmark:string -> analysis:string -> cell option
(** The cell measured at [jobs] worklist domains (default 1, the
    sequential drain) — (benchmark, analysis, jobs) is the cell key. *)
