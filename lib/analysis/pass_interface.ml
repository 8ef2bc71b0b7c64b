(* A007 — sealed interfaces: the successor of token rule R005.

   Every lib/**/*.ml needs a matching .mli; sealed interfaces are how the
   other invariants stay local to a module. This is a tree-level pass: it
   reads only the path listing the analyzer already loaded, .mli files
   included, and reports whole-file findings (line 0). *)

let has_prefix prefix path =
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let check paths =
  List.filter_map
    (fun p ->
      if Filename.check_suffix p ".ml" && not (List.mem (p ^ "i") paths) then
        Some
          (Finding.make ~pass:"A007" ~path:p ~line:0
             (Printf.sprintf "no interface file %si" (Filename.basename p)))
      else None)
    paths
  |> Finding.sort

let pass =
  {
    Registry.id = "A007";
    description = "lib/**/*.ml without a matching .mli (successor of token rule R005)";
    applies = has_prefix "lib/";
    check = Registry.Tree check;
  }

let () = Registry.register pass
