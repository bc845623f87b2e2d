(** Facade: named synthetic benchmarks ready for analysis. *)

val names : string list
(** The ten DaCapo-profile benchmark names, in Table-1 order. *)

val source : Profile.t -> string
(** Benchmark source including the mini-JDK. *)

val program : Profile.t -> Pta_ir.Ir.Program.t
(** Parse and lower ({!source}); memoized per profile name. *)
