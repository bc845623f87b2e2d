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
  phases : (string * float) list;
  memory : Memstats.delta option;
  metrics : Json.t option;
}

let make ~analysis ~wall_time_s ~sensitive_vpt_size ~n_ctxs ~n_hctxs ~n_hobjs
    ?memory ?metrics rec_ =
  {
    analysis;
    wall_time_s;
    iterations = Recorder.iterations rec_;
    n_nodes = Recorder.nodes rec_;
    n_edges = Recorder.edges rec_;
    n_ctxs;
    n_hctxs;
    n_hobjs;
    sensitive_vpt_size;
    triggers = Recorder.triggers rec_;
    delta_total = Recorder.delta_total rec_;
    max_delta = Recorder.max_delta rec_;
    phases = Recorder.phases rec_;
    memory;
    metrics;
  }

let timed_out_json ~analysis (abort : Budget.abort) =
  Json.Obj
    [
      ("analysis", Json.String analysis);
      ("timed_out", Json.Bool true);
      ("elapsed_s", Json.Float abort.Budget.elapsed_s);
      ("iterations", Json.Int abort.Budget.iterations);
      ("nodes", Json.Int abort.Budget.nodes);
    ]

let to_json t =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([
      ("analysis", Json.String t.analysis);
      ("wall_time_s", Json.Float t.wall_time_s);
      ("iterations", Json.Int t.iterations);
      ("n_nodes", Json.Int t.n_nodes);
      ("n_edges", Json.Int t.n_edges);
      ("n_ctxs", Json.Int t.n_ctxs);
      ("n_hctxs", Json.Int t.n_hctxs);
      ("n_hobjs", Json.Int t.n_hobjs);
      ("sensitive_vpt_size", Json.Int t.sensitive_vpt_size);
      ("triggers", Json.Int t.triggers);
      ("delta_total", Json.Int t.delta_total);
      ("max_delta", Json.Int t.max_delta);
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) t.phases));
    ]
    @ opt "memory" Memstats.to_json t.memory
    @ opt "metrics" Fun.id t.metrics)

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "stats JSON: missing or mistyped %S" name)
  in
  let* analysis = field "analysis" Json.to_str in
  let* wall_time_s = field "wall_time_s" Json.to_float in
  let* iterations = field "iterations" Json.to_int in
  let* n_nodes = field "n_nodes" Json.to_int in
  let* n_edges = field "n_edges" Json.to_int in
  let* n_ctxs = field "n_ctxs" Json.to_int in
  let* n_hctxs = field "n_hctxs" Json.to_int in
  let* n_hobjs = field "n_hobjs" Json.to_int in
  let* sensitive_vpt_size = field "sensitive_vpt_size" Json.to_int in
  let* triggers = field "triggers" Json.to_int in
  let* delta_total = field "delta_total" Json.to_int in
  let* max_delta = field "max_delta" Json.to_int in
  let* members = field "phases" Json.to_obj in
  let* phases =
    List.fold_left
      (fun acc (name, v) ->
        let* acc = acc in
        match Json.to_float v with
        | Some s -> Ok ((name, s) :: acc)
        | None -> Error (Printf.sprintf "stats JSON: phase %S not a number" name))
      (Ok []) members
  in
  (* [memory] and [metrics] are optional: stats documents written before
     they existed must keep parsing. *)
  let* memory =
    match Json.member "memory" json with
    | None -> Ok None
    | Some j -> Result.map Option.some (Memstats.of_json j)
  in
  let metrics = Json.member "metrics" json in
  Ok
    {
      analysis;
      wall_time_s;
      iterations;
      n_nodes;
      n_edges;
      n_ctxs;
      n_hctxs;
      n_hobjs;
      sensitive_vpt_size;
      triggers;
      delta_total;
      max_delta;
      phases = List.rev phases;
      memory;
      metrics;
    }

let pp ppf t =
  let line fmt = Format.fprintf ppf fmt in
  line "@[<v>run stats (%s):@," t.analysis;
  line "  %-22s %12.3f@," "wall time (s)" t.wall_time_s;
  line "  %-22s %12d@," "iterations" t.iterations;
  line "  %-22s %12d@," "nodes created" t.n_nodes;
  line "  %-22s %12d@," "edges added" t.n_edges;
  line "  %-22s %12d@," "contexts" t.n_ctxs;
  line "  %-22s %12d@," "heap contexts" t.n_hctxs;
  line "  %-22s %12d@," "abstract objects" t.n_hobjs;
  line "  %-22s %12d@," "sensitive vpt size" t.sensitive_vpt_size;
  line "  %-22s %12d@," "trigger firings" t.triggers;
  line "  %-22s %12d@," "delta volume" t.delta_total;
  line "  %-22s %12d@," "max delta" t.max_delta;
  List.iter
    (fun (name, s) -> line "  %-22s %12.3f@," (Printf.sprintf "[%s] (s)" name) s)
    t.phases;
  (match t.memory with
  | None -> ()
  | Some m ->
    line "  %-22s %12.0f@," "minor alloc (words)"
      m.Memstats.minor_allocated_words;
    line "  %-22s %12.0f@," "major alloc (words)"
      m.Memstats.major_allocated_words;
    line "  %-22s %12d@," "peak heap (words)" m.Memstats.peak_heap_words;
    line "  %-22s %12d@," "major collections" m.Memstats.major_collections_delta);
  line "@]"
