type t = {
  universe : int;
  words : int array; (* 63 usable bits per word *)
}

let bits_per_word = 63

let words_for universe = (universe + bits_per_word - 1) / bits_per_word

let full universe =
  if universe < 0 then invalid_arg "Domain.full: negative universe";
  let nw = words_for universe in
  let words = Array.make (max nw 1) 0 in
  for v = 0 to universe - 1 do
    let w = v / bits_per_word and b = v mod bits_per_word in
    words.(w) <- words.(w) lor (1 lsl b)
  done;
  { universe; words }

let empty universe =
  if universe < 0 then invalid_arg "Domain.empty: negative universe";
  { universe; words = Array.make (max (words_for universe) 1) 0 }

let universe t = t.universe

let copy t = { universe = t.universe; words = Array.copy t.words }

let blit ~src ~dst =
  if src.universe <> dst.universe then invalid_arg "Domain.blit: universe mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check t v =
  if v < 0 || v >= t.universe then invalid_arg "Domain: value out of universe"

let mem t v =
  check t v;
  t.words.(v / bits_per_word) land (1 lsl (v mod bits_per_word)) <> 0

let remove t v =
  check t v;
  let w = v / bits_per_word and b = 1 lsl (v mod bits_per_word) in
  if t.words.(w) land b <> 0 then begin
    t.words.(w) <- t.words.(w) lxor b;
    true
  end
  else false

let add t v =
  check t v;
  let w = v / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (v mod bits_per_word))

let fix t v =
  check t v;
  Array.fill t.words 0 (Array.length t.words) 0;
  add t v

(* The queries and set operations below, apart from the closure-taking
   walks [iter], [fold], [to_list] and [keep_only], allocate nothing: the
   propagators call them at every search node. *)

(* Index of the lowest set bit of a non-zero word, branch-free: the
   isolated bit converts exactly to a float (a power of two, negative for
   the word's top bit), whose exponent field is the index. The conversions
   are unboxed primitives, so nothing is allocated. *)
let lowest_bit x =
  let low = x land -x in
  ((Int64.to_int (Int64.bits_of_float (Float.of_int low)) lsr 52) land 0x7FF) - 1023

let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)

let[@cloudia.hot] size t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := popcount t.words.(i) !acc
  done;
  !acc

let[@cloudia.hot] is_empty t =
  let i = ref 0 and n = Array.length t.words in
  while !i < n && t.words.(!i) = 0 do
    incr i
  done;
  !i = n

let[@cloudia.hot] is_singleton t =
  (* Exactly one bit set across all words. *)
  let seen = ref 0 and i = ref 0 and n = Array.length t.words in
  while !seen <= 1 && !i < n do
    let w = t.words.(!i) in
    if w <> 0 then seen := if w land (w - 1) <> 0 then 2 else !seen + 1;
    incr i
  done;
  !seen = 1

let word_count t = Array.length t.words
let word t i = t.words.(i)

let[@cloudia.hot] min_value t =
  let wi = ref 0 and n = Array.length t.words in
  while !wi < n && t.words.(!wi) = 0 do
    incr wi
  done;
  if !wi = n then raise Not_found else (!wi * bits_per_word) + lowest_bit t.words.(!wi)

let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      w := !w lxor low;
      f ((wi * bits_per_word) + lowest_bit low)
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

let keep_only t pred =
  let changed = ref false in
  iter (fun v -> if (not (pred v)) && remove t v then changed := true) t;
  !changed

let[@cloudia.hot] intersects_complement d bad =
  if d.universe <> bad.universe then invalid_arg "Domain.intersects_complement: universe mismatch";
  let i = ref 0 and n = Array.length d.words in
  while !i < n && d.words.(!i) land lnot bad.words.(!i) = 0 do
    incr i
  done;
  !i < n

let[@cloudia.hot] equal a b =
  if a.universe <> b.universe then invalid_arg "Domain.equal: universe mismatch";
  let i = ref 0 and n = Array.length a.words in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = n

let[@cloudia.hot] subtract d bad =
  if d.universe <> bad.universe then invalid_arg "Domain.subtract: universe mismatch";
  let changed = ref false in
  for i = 0 to Array.length d.words - 1 do
    let nw = d.words.(i) land lnot bad.words.(i) in
    if nw <> d.words.(i) then begin
      d.words.(i) <- nw;
      changed := true
    end
  done;
  !changed

let[@cloudia.hot] revise d ~support ~conflicts =
  if d.universe <> support.universe || Array.length conflicts <> d.universe then
    invalid_arg "Domain.revise: universe mismatch";
  let changed = ref false and rest = ref 0 and kept = ref 0 in
  for wi = 0 to Array.length d.words - 1 do
    let word = d.words.(wi) in
    rest := word;
    kept := word;
    while !rest <> 0 do
      let low = !rest land (- !rest) in
      rest := !rest lxor low;
      let j = (wi * bits_per_word) + lowest_bit low in
      if not (intersects_complement support conflicts.(j)) then kept := !kept lxor low
    done;
    if !kept <> word then begin
      d.words.(wi) <- !kept;
      changed := true
    end
  done;
  !changed
