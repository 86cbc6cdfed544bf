type t = { cap : int; words : int array }

let bits_per_word = Sys.int_size

let nwords cap = (cap + bits_per_word - 1) / bits_per_word

let create cap =
  if cap < 0 then invalid_arg "Bitset.create";
  { cap; words = Array.make (max 1 (nwords cap)) 0 }

let capacity t = t.cap

let check t i =
  if i < 0 || i >= t.cap then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let full cap =
  let t = create cap in
  for i = 0 to cap - 1 do add t i done;
  t

let copy t = { cap = t.cap; words = Array.copy t.words }

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(i)
  done;
  !c

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let union_into a b =
  same_cap a b;
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- a.words.(i) lor b.words.(i)
  done

let inter_into a b =
  same_cap a b;
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- a.words.(i) land b.words.(i)
  done

let diff_into a b =
  same_cap a b;
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- a.words.(i) land lnot b.words.(i)
  done

let union a b = let c = copy a in union_into c b; c
let inter a b = let c = copy a in inter_into c b; c
let diff a b = let c = copy a in diff_into c b; c

let subset a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let disjoint a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let equal a b = a.cap = b.cap && a.words = b.words

let compare a b =
  match Stdlib.compare a.cap b.cap with
  | 0 -> Stdlib.compare a.words b.words
  | c -> c

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    (* Shift the word down, so the scan stops at its highest member. *)
    let word = ref t.words.(w) and i = ref (w * bits_per_word) in
    while !word <> 0 do
      if !word land 1 <> 0 then f !i;
      word := !word lsr 1;
      incr i
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list cap l =
  let t = create cap in
  List.iter (add t) l;
  t

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let hash t = Hashtbl.hash t.words

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
