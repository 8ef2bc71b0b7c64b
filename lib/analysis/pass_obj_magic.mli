(** A005 — unsafe-cast pass: [Obj.magic] anywhere, resolved through
    opens and module aliases. AST successor of the token rule R003. *)

val check : path:string -> Parsetree.structure -> Finding.t list
val pass : Registry.pass
