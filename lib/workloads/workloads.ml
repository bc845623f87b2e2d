let names = List.map (fun p -> p.Profile.name) Profile.dacapo

let source profile =
  Pta_mjdk.Mjdk.source ^ "\n" ^ Gen.generate profile

let cache : (string, Pta_ir.Ir.Program.t) Hashtbl.t = Hashtbl.create 16

let program profile =
  match Hashtbl.find_opt cache profile.Profile.name with
  | Some p -> p
  | None ->
    let program =
      Pta_frontend.Frontend.program_of_sources
        [
          (Pta_mjdk.Mjdk.file_name, Pta_mjdk.Mjdk.source);
          ("<" ^ profile.Profile.name ^ ">", Gen.generate profile);
        ]
    in
    Hashtbl.add cache profile.Profile.name program;
    program
