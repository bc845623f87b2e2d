(** The intermediate representation analyzed by the points-to engine.

    This is the input language of the paper (Figure 1): objects are
    allocated by [Alloc], copied by [Move], flow through the heap via
    [Load]/[Store], and methods are invoked by [Virtual_call] (dynamic
    dispatch on the receiver's class) or [Static_call] (statically known
    target).  [Cast] is the one addition over the paper's core model; it
    feeds the may-fail-casts client and filters propagation by the cast
    type, as in Doop.

    A {!Program.t} is an immutable, fully-interned representation:
    every entity (class type, field, method signature, method, local
    variable, allocation site, invocation site) is a dense integer id
    with its metadata stored in flat arrays. *)

module Type_id : Id.S
module Field_id : Id.S
module Sig_id : Id.S
module Meth_id : Id.S
module Var_id : Id.S
module Heap_id : Id.S
module Invo_id : Id.S

type type_kind =
  | Class
  | Interface

type instr =
  | Alloc of { target : Var_id.t; heap : Heap_id.t }
      (** [target = new T]; [heap] is the allocation site. *)
  | Move of { target : Var_id.t; source : Var_id.t }  (** [target = source] *)
  | Load of { target : Var_id.t; base : Var_id.t; field : Field_id.t }
      (** [target = base.field] *)
  | Store of { base : Var_id.t; field : Field_id.t; source : Var_id.t }
      (** [base.field = source] *)
  | Cast of { target : Var_id.t; source : Var_id.t; cast_type : Type_id.t }
      (** [target = (cast_type) source]; propagation is filtered by
          [cast_type], and the cast client reports it as may-fail when the
          source may point to an incompatible object. *)
  | Virtual_call of {
      base : Var_id.t;
      signature : Sig_id.t;
      invo : Invo_id.t;
      args : Var_id.t list;
      ret_target : Var_id.t option;
    }  (** [ret_target = base.sig(args)] with dynamic dispatch. *)
  | Static_call of {
      callee : Meth_id.t;
      invo : Invo_id.t;
      args : Var_id.t list;
      ret_target : Var_id.t option;
    }  (** [ret_target = Class::meth(args)]. *)
  | Static_load of { target : Var_id.t; field : Field_id.t }
      (** [target = Class::field]; static fields are global cells, so the
          analysis treats them context-insensitively (the paper omits
          them as "a mere engineering complexity"). *)
  | Static_store of { field : Field_id.t; source : Var_id.t }
      (** [Class::field = source] *)
  | Throw of { source : Var_id.t }
      (** [throw source]; the thrown object unwinds to the innermost
          enclosing [Try] with a compatible handler, or escapes the
          method (building the analysis's [ThrowPointsTo]). *)

type type_info = {
  type_name : string;
  type_kind : type_kind;
  superclass : Type_id.t option;
      (** [None] for the root class and for interfaces. *)
  interfaces : Type_id.t list;
  declared : (Sig_id.t * Meth_id.t) list;  (** methods declared here *)
}

type field_info = {
  field_name : string;
  field_owner : Type_id.t;
  field_static : bool;
}
type sig_info = { sig_name : string; sig_arity : int }

(** Method bodies keep the (nondeterministic) control structure of the
    source: the analysis is flow-insensitive and just folds over every
    instruction, but the concrete interpreter ({!module:Pta_interp})
    executes [Branch] and [Loop] with real control flow. *)
type handler = {
  catch_type : Type_id.t;
  catch_var : Var_id.t;
  handler_body : code;
}

and code =
  | Instr of instr
  | Seq of code list
  | Branch of code * code  (** [if(@)] / [else] with a nondeterministic star condition *)
  | Loop of code  (** [while(@)] with a nondeterministic star condition *)
  | Try of code * handler list
      (** [try { ... } catch (T1 v1) { ... } catch (T2 v2) { ... }];
          handlers are tried in order. *)

val iter_instrs : (instr -> unit) -> code -> unit
val fold_instrs : ('acc -> instr -> 'acc) -> 'acc -> code -> 'acc
val instr_list : code -> instr list

type meth_info = {
  meth_name : string;
  meth_sig : Sig_id.t;
  meth_owner : Type_id.t;
  meth_static : bool;
  this_var : Var_id.t option;  (** [None] iff static *)
  formals : Var_id.t array;
  ret_var : Var_id.t option;  (** [None] for void methods *)
  body : code;
}

type var_info = { var_name : string; var_owner : Meth_id.t }

type heap_info = {
  heap_label : string;
  heap_type : Type_id.t;
  heap_owner : Meth_id.t;
}

type invo_info = { invo_label : string; invo_owner : Meth_id.t }

module Program : sig
  type t

  val type_info : t -> Type_id.t -> type_info
  val field_info : t -> Field_id.t -> field_info
  val sig_info : t -> Sig_id.t -> sig_info
  val meth_info : t -> Meth_id.t -> meth_info
  val var_info : t -> Var_id.t -> var_info
  val heap_info : t -> Heap_id.t -> heap_info
  val invo_info : t -> Invo_id.t -> invo_info
  val n_types : t -> int
  val n_fields : t -> int
  val n_sigs : t -> int
  val n_meths : t -> int
  val n_vars : t -> int
  val n_heaps : t -> int

  val entries : t -> Meth_id.t list
  (** Entry-point methods ([static main]) seeded as reachable. *)

  val object_type : t -> Type_id.t
  (** The root of the class hierarchy. *)

  val iter_types : t -> (Type_id.t -> type_info -> unit) -> unit
  val iter_meths : t -> (Meth_id.t -> meth_info -> unit) -> unit
  val iter_vars : t -> (Var_id.t -> var_info -> unit) -> unit
  val iter_heaps : t -> (Heap_id.t -> heap_info -> unit) -> unit
  val iter_invos : t -> (Invo_id.t -> invo_info -> unit) -> unit

  val find_type : t -> string -> Type_id.t option
  val find_meth : t -> string -> string -> int -> Meth_id.t option
  (** [find_meth p class_name meth_name arity] *)

  val type_name : t -> Type_id.t -> string
  val meth_qualified_name : t -> Meth_id.t -> string
  (** e.g. ["A.foo/2"]. *)

  val var_qualified_name : t -> Var_id.t -> string
  val heap_name : t -> Heap_id.t -> string
  val invo_name : t -> Invo_id.t -> string

  (** {2 Source locations}

      Optional side tables mapping IR entities back to source spans.
      Programs built by the frontend carry them; synthetic programs
      (workload generators, hand-built tests) simply report [None]. *)

  val meth_span : t -> Meth_id.t -> Srcloc.span option
  (** Span of the method's declaration header. *)

  val heap_span : t -> Heap_id.t -> Srcloc.span option
  (** Span of the [new] expression for this allocation site. *)

  val invo_span : t -> Invo_id.t -> Srcloc.span option
  (** Span of the call expression for this invocation site. *)

  val instr_spans : t -> Meth_id.t -> Srcloc.span array
  (** Per-instruction spans for a method body, aligned positionally with
      {!instr_list} / {!fold_instrs} order.  Empty when the method body
      carries no span information. *)

  val instr_span : t -> Meth_id.t -> int -> Srcloc.span option
  (** [instr_span p m i] is the span of the [i]-th instruction of [m]
      (in {!instr_list} order), if recorded. *)
end

(** Mutable program-construction API used by the frontend's lowering pass,
    the workload generators and the tests. *)
module Builder : sig
  type t

  val create : unit -> t

  val add_type :
    t ->
    name:string ->
    kind:type_kind ->
    superclass:Type_id.t option ->
    interfaces:Type_id.t list ->
    Type_id.t

  val add_field : t -> owner:Type_id.t -> name:string -> static:bool -> Field_id.t
  val intern_sig : t -> name:string -> arity:int -> Sig_id.t

  val add_meth :
    ?span:Srcloc.span ->
    t ->
    owner:Type_id.t ->
    name:string ->
    arity:int ->
    static:bool ->
    Meth_id.t
  (** Declares the method on [owner] and creates its [this] variable
      (unless static).  Formals, return variable and body are attached
      afterwards.  [span] is the declaration header's source extent. *)

  val add_var : t -> owner:Meth_id.t -> name:string -> Var_id.t
  val set_formals : t -> Meth_id.t -> Var_id.t list -> unit
  val ensure_ret_var : t -> Meth_id.t -> Var_id.t

  val add_heap :
    ?span:Srcloc.span ->
    t ->
    owner:Meth_id.t ->
    label:string ->
    ty:Type_id.t ->
    Heap_id.t

  val add_invo :
    ?span:Srcloc.span -> t -> owner:Meth_id.t -> label:string -> Invo_id.t

  val set_body : t -> Meth_id.t -> code -> unit

  val set_instr_spans : t -> Meth_id.t -> Srcloc.span array -> unit
  (** Records per-instruction spans for a method, aligned with
      {!instr_list} order of the body set by {!set_body} — call it after
      {!set_body}.  @raise Invalid_argument if the array length does not
      match the body's instruction count. *)

  val add_entry : t -> Meth_id.t -> unit
  val this_var : t -> Meth_id.t -> Var_id.t option
  val ret_var : t -> Meth_id.t -> Var_id.t option
  val meth_sig : t -> Meth_id.t -> Sig_id.t

  val freeze : t -> Program.t
  (** Validates and seals the program.  @raise Invalid_argument on a
      malformed program (e.g. no root type, body referencing another
      method's variables). *)
end
