let parse ~file src = Parser.parse_string ~file src

let program_of_sources sources =
  let decls =
    List.concat_map (fun (file, contents) -> parse ~file contents) sources
  in
  Lower.program decls

let program_of_string ?(file = "<string>") src =
  program_of_sources [ (file, src) ]

let report ppf = function
  | Srcloc.Error (pos, msg) ->
    Format.fprintf ppf "%a@." Srcloc.pp_error (pos, msg);
    true
  | _ -> false
