(** Finite integer domains as bitsets.

    A domain is a mutable subset of [0 .. universe-1], stored as packed bit
    words. The CP search copies domains when branching, so copying must be
    cheap — at the scales used here (universe ≤ a few hundred) a domain is
    a handful of machine words.

    The queries and set operations ([size], [is_empty], [is_singleton],
    [min_value], [equal], [intersects_complement], [subtract], [revise]) are
    closure-free and allocate nothing: the propagators call them at every
    search node. *)

type t

val full : int -> t
(** [full universe] is the domain \{0, …, universe-1\}. *)

val empty : int -> t
(** The empty domain over the given universe. *)

val universe : t -> int

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents. Universes must match. *)

val mem : t -> int -> bool

val remove : t -> int -> bool
(** Remove a value; returns [true] if the value was present. *)

val add : t -> int -> unit

val fix : t -> int -> unit
(** Collapse the domain to a single value. *)

val size : t -> int
(** Cardinality (population count). *)

val is_empty : t -> bool

val is_singleton : t -> bool

val min_value : t -> int
(** Smallest member. Raises [Not_found] on an empty domain. *)

val word_count : t -> int
val word : t -> int -> int
val bits_per_word : int
val lowest_bit : int -> int
(** The word view, for member walks without a closure. Value [v] is a
    member iff bit [v mod bits_per_word] of [word d (v / bits_per_word)]
    is set, for words [0 .. word_count d - 1]; bits past the universe are
    never set. [lowest_bit w] is the index of the lowest set bit of a
    non-zero word. A walk in ascending order:
    {[
      for wi = 0 to word_count d - 1 do
        let w = ref (word d wi) in
        while !w <> 0 do
          let low = !w land - !w in
          w := !w lxor low;
          let v = (wi * bits_per_word) + lowest_bit low in
          ...
        done
      done
    ]}
    The walk reads each word once, so removing members meanwhile is
    allowed. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in ascending order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list
(** Members in ascending order. *)

val keep_only : t -> (int -> bool) -> bool
(** [keep_only d pred] removes every member failing [pred]; returns [true]
    if anything was removed. *)

val intersects_complement : t -> t -> bool
(** [intersects_complement d bad] is true iff [d] has a member outside
    [bad] — i.e. [d \ bad ≠ ∅]. This is the support test of the
    forbidden-pair propagator. *)

val equal : t -> t -> bool
(** Same members. Universes must match. *)

val subtract : t -> t -> bool
(** [subtract d bad] removes from [d] every member of [bad]; returns [true]
    if [d] changed. *)

val revise : t -> support:t -> conflicts:t array -> bool
(** [revise d ~support ~conflicts] is the arc-consistency revision of a
    binary negative table: it removes from [d] every member [j] with no
    support, i.e. with [support ⊆ conflicts.(j)]. [conflicts] has one set
    per value of [d]'s universe. Returns [true] if [d] changed. *)
