(** A006 — library-printing pass: stdout writes ([print_string],
    [print_endline], [print_newline], [Printf.printf], [Format.printf])
    under [lib/], resolved through opens, module aliases and shadowing.
    AST successor of the token rule R004. *)

val check : path:string -> Parsetree.structure -> Finding.t list
val pass : Registry.pass
