(** The pass registry.

    A pass is a named check: either an AST check over one parsed
    implementation file, or a tree-level check over the listing of every
    loaded source path.
    Passes self-register at module initialization time;
    {!Analyzer.builtin_passes} forces the built-in pass modules to link so
    a library consumer sees them without naming each module. *)

type check =
  | File of (path:string -> Parsetree.structure -> Finding.t list)
      (** run on each applicable [.ml] implementation *)
  | Tree of (string list -> Finding.t list)
      (** run once on the applicable paths of the whole listing, [.mli]
          files included *)

type pass = {
  id : string;  (** stable diagnostic code, e.g. ["A001"] *)
  description : string;
  applies : string -> bool;
      (** path filter over repository-relative ['/'] paths; files outside
          the pass's scope are skipped entirely *)
  check : check;
}

val register : pass -> unit
(** Raises [Invalid_argument] on a duplicate id. *)

val all : unit -> pass list
(** All registered passes, in id order. *)

val find : string -> pass option
