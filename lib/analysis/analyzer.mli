(** Analyzer front end: parse with the compiler's parser
    ([compiler-libs.common]), run the registered passes, subtract inline
    suppressions, the allowlist and the committed baseline. The library
    returns data; [tools/analyzer] prints and sets the exit code.

    Files that fail to parse yield a single [A000] finding (the build
    would reject them too). *)

val builtin_passes : unit -> Registry.pass list
(** All built-in passes (A001 domain-safety, A002 determinism, A003
    hot-path allocation, A004 matrix representation, A005 unsafe casts,
    A006 library printing, A007 missing interfaces), forcing their
    registration. *)

val parse_implementation :
  path:string -> string -> (Parsetree.structure, int) result
(** [Error line] points at the lexer position of the syntax error. *)

val check_source :
  ?passes:Registry.pass list -> path:string -> string -> Finding.t list
(** Raw findings of the per-file passes for one source file, before any
    suppression. Only [.ml] implementations are parsed; other paths
    yield nothing. *)

val check_tree : ?passes:Registry.pass list -> string list -> Finding.t list
(** Raw findings of the tree-level passes over a listing of
    repository-relative paths ([.ml] and [.mli]). *)

val analyze_source :
  ?passes:Registry.pass list ->
  path:string ->
  string ->
  Finding.t list * Finding.t list
(** [(kept, inline_suppressed)] for one file. *)

type report = {
  files : int;  (** loaded files, [.mli] included *)
  kept : Finding.t list;
  suppressed : Finding.t list;
}

type allow = { allow_rule : string; allow_prefix : string }
(** One allowlist entry: findings of pass [allow_rule] under the path
    prefix [allow_prefix] are suppressed. *)

val parse_allowlist : string -> allow list
(** One entry per line: [PASS path-prefix]; [#] starts a comment; blank
    lines ignored. *)

val run :
  ?passes:Registry.pass list ->
  ?allow:allow list ->
  ?baseline:Baseline.t ->
  (string * string) list ->
  report
(** Analyze [(path, contents)] pairs: the per-file passes on each [.ml],
    the tree-level passes on the listing of every path. Findings
    surviving inline suppressions are further filtered by the allowlist
    and the baseline. *)

val walk : string -> string list
(** Recursively list [.ml] and [.mli] files under a directory, sorted at
    every level ([_build] and dot-directories skipped) — byte-stable
    output across machines. *)

val load_tree : root:string -> string list -> (string * string) list
(** Read every [.ml] and [.mli] file under [roots] (relative to [root]),
    returning repository-relative paths with their contents. *)
