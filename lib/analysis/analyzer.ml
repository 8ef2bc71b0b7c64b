(* Front end: parse a file with the compiler's own parser, run every
   applicable registered pass, then peel off inline suppressions, the
   allowlist and the committed baseline. The library returns data only;
   tools/analyzer does the printing and process exit codes. *)

let builtin_passes () =
  (* Referencing the pass modules forces their [Registry.register] side
     effects to link even though nothing else names them. *)
  ignore Pass_domain.pass;
  ignore Pass_determinism.pass;
  ignore Pass_alloc.pass;
  ignore Pass_matrix.pass;
  ignore Pass_obj_magic.pass;
  ignore Pass_print.pass;
  ignore Pass_interface.pass;
  Registry.all ()

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun c -> if c = '\\' then '/' else c) path

let parse_implementation ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception _ ->
      (* The build would reject this file too; report where the lexer
         stopped rather than dying. *)
      Error lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum

(* Raw findings for one source, before any suppression. *)
let check_source ?passes ~path text =
  let passes = match passes with Some ps -> ps | None -> builtin_passes () in
  let path = normalize path in
  let applicable =
    List.filter_map
      (fun p ->
        match p.Registry.check with
        | Registry.File check when p.Registry.applies path -> Some check
        | _ -> None)
      passes
  in
  if applicable = [] || not (Filename.check_suffix path ".ml") then []
  else
    match parse_implementation ~path text with
    | Error line ->
        [
          Finding.make ~pass:"A000" ~path ~line
            "file does not parse as an OCaml implementation (the analyzer \
             mirrors the compiler's parser; fix the syntax error first)";
        ]
    | Ok str ->
        Finding.sort
          (List.concat_map (fun check -> check ~path str) applicable)

(* One file: raw findings minus inline suppressions. *)
let analyze_source ?passes ~path text =
  let findings = check_source ?passes ~path text in
  Suppress.filter (Suppress.scan text) findings

type report = {
  files : int;
  kept : Finding.t list;
  suppressed : Finding.t list;
      (** inline-suppressed + allowlisted + baselined, for accounting *)
}

(* Whole-tree findings: each [Tree] pass sees the applicable paths of
   the listing. They sit on line 0, so only the allowlist and the
   baseline can suppress them. *)
let check_tree ?passes paths =
  let passes = match passes with Some ps -> ps | None -> builtin_passes () in
  let paths = List.map normalize paths in
  List.concat_map
    (fun p ->
      match p.Registry.check with
      | Registry.Tree check -> check (List.filter p.Registry.applies paths)
      | Registry.File _ -> [])
    passes

type allow = { allow_rule : string; allow_prefix : string }

let parse_allowlist text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               Some
                 {
                   allow_rule = String.sub line 0 i;
                   allow_prefix =
                     normalize (String.trim (String.sub line (i + 1) (String.length line - i - 1)));
                 })

let partition_allowed allows findings =
  let has_prefix prefix path =
    String.length path >= String.length prefix
    && String.sub path 0 (String.length prefix) = prefix
  in
  List.partition
    (fun (f : Finding.t) ->
      not
        (List.exists
           (fun a -> a.allow_rule = f.Finding.pass && has_prefix a.allow_prefix f.Finding.path)
           allows))
    findings

let run ?passes ?(allow = []) ?(baseline = Baseline.empty) files =
  let kept, suppressed =
    List.fold_left
      (fun (kept, supp) (path, text) ->
        let k, s = analyze_source ?passes ~path text in
        (k @ kept, s @ supp))
      (check_tree ?passes (List.map fst files), [])
      files
  in
  let kept, allowed = partition_allowed allow kept in
  let kept, baselined = Baseline.filter baseline kept in
  {
    files = List.length files;
    kept = Finding.sort kept;
    suppressed = Finding.sort (suppressed @ allowed @ baselined);
  }

(* ---- source-tree walking (shared by the CLI and the clean-tree test) ---- *)

let rec walk dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      (* Sorted traversal: reports and --json artifacts must be
         byte-stable across machines and filesystems. *)
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let p = Filename.concat dir entry in
          if Sys.is_directory p then
            if entry = "_build" || entry.[0] = '.' then acc else acc @ walk p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
            acc @ [ p ]
          else acc)
        [] entries

let read_file path = In_channel.with_open_text path In_channel.input_all

let load_tree ~root roots =
  let relative path =
    let prefix = root ^ "/" in
    let path = normalize path in
    if root = "." then path
    else if
      String.length path > String.length prefix
      && String.sub path 0 (String.length prefix) = prefix
    then String.sub path (String.length prefix) (String.length path - String.length prefix)
    else path
  in
  List.concat_map
    (fun r ->
      let dir = Filename.concat root r in
      if Sys.file_exists dir && Sys.is_directory dir then
        List.map (fun p -> (relative p, read_file p)) (walk dir)
      else [])
    roots
