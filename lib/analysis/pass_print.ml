(* A006 — console output in library code: the AST successor of token
   rule R004.

   Libraries return data and binaries print, so lib/** must not write to
   stdout through [print_string], [print_endline], [print_newline],
   [Printf.printf] or [Format.printf]. Resolution goes through [Scope]:
   [module P = Printf ... P.printf] and [open Printf ... printf] are
   caught, a file-local [let print_endline = ...] is not. *)

open Parsetree

let has_prefix prefix path =
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let stdout_printers = [ "print_string"; "print_endline"; "print_newline" ]
let printf_modules = [ [ "Printf" ]; [ "Format" ] ]

(* The printed name of a resolved console write, or [None]. *)
let console_write env txt =
  match Scope.resolve_value env txt with
  | Scope.Path [ f ] when List.mem f stdout_printers -> Some f
  | Scope.Path [ ("Printf" | "Format") as m; "printf" ] -> Some (m ^ ".printf")
  | Scope.Bare f when List.mem f stdout_printers -> Some f
  | Scope.Bare "printf" when Scope.any_open_of env printf_modules ->
      Some "printf via an opened Printf/Format"
  | _ -> None

let check ~path str =
  let findings = ref [] in
  let enter_expr env (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match console_write env txt with
        | Some name ->
            findings :=
              Finding.make ~pass:"A006" ~path ~line:e.pexp_loc.loc_start.pos_lnum
                (Printf.sprintf
                   "console output (%s) in library code (libraries return \
                    data; binaries print)"
                   name)
              :: !findings
        | None -> ())
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_expr } str;
  Finding.sort !findings

let pass =
  {
    Registry.id = "A006";
    description =
      "console output in library code: print_* and Printf/Format.printf under \
       lib/, resolved through opens and aliases (successor of token rule R004)";
    applies = has_prefix "lib/";
    check = Registry.File check;
  }

let () = Registry.register pass
