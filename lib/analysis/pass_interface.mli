(** A007 — interface pass: every [lib/**/*.ml] in the loaded listing has
    a matching [.mli]. A tree-level check over paths, the successor of
    the token rule R005. *)

val check : string list -> Finding.t list
(** Whole-file findings (line [0]) over repository-relative paths. *)

val pass : Registry.pass
