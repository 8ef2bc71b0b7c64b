(* A005 — unsafe casts: the AST successor of token rule R003.

   [Obj.magic] defeats the type system that keeps plans, matrices and
   solver state well-formed, so it is banned everywhere. The parser
   already drops comments and string literals, and resolving through
   [Scope] also catches what a token scan cannot see:
   [module O = Obj ... O.magic] and [open Obj ... magic]. A name that
   merely looks alike ([My_Obj.magic_backup]) resolves elsewhere. *)

open Parsetree

let is_magic env txt =
  match Scope.resolve_value env txt with
  | Scope.Path [ "Obj"; "magic" ] -> true
  | Scope.Bare "magic" -> Scope.opens_module env [ "Obj" ]
  | _ -> false

let check ~path str =
  let findings = ref [] in
  let enter_expr env (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } when is_magic env txt ->
        findings :=
          Finding.make ~pass:"A005" ~path ~line:e.pexp_loc.loc_start.pos_lnum
            "Obj.magic (an unchecked cast defeats the type system)"
          :: !findings
    | _ -> ()
  in
  Walk.iter_structure { Walk.default_hooks with enter_expr } str;
  Finding.sort !findings

let pass =
  {
    Registry.id = "A005";
    description = "unsafe casts: Obj.magic anywhere (successor of token rule R003)";
    applies = (fun _ -> true);
    check = Registry.File check;
  }

let () = Registry.register pass
