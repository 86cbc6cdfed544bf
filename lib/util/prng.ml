type t = Random.State.t

let make seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66 |]

(* SplitMix-style finalizer; the constants are 60-bit truncations of the
   usual 64-bit ones (OCaml ints are 63-bit). *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0xbf58476d1ce4e5 in
  let z = (z lxor (z lsr 27)) * 0x94d049bb133111 in
  z lxor (z lsr 31)

let stream ~seed i =
  let a = mix (seed + (i * 0x9e3779b97f4a7c)) in
  let b = mix (a lxor (i + 0x7f4a7c15)) in
  Random.State.make [| seed; i; a; b |]

let int t n = Random.State.int t n
let float t x = Random.State.float t x

let bernoulli t p = Random.State.float t 1.0 < p

(* [Float.max w 0.] spelled out so it inlines: a negative weight counts as
   0 and a NaN stays NaN. (-0. becomes +0., which adds the same as -0. to
   any sum that starts at +0.) *)
let[@inline] clamp_weight w = if w > 0. || w <> w then w else 0.

(* Loops over float refs rather than a recursive closure with a float
   accumulator, so no float is boxed; the sums are the same left-to-right
   sums as before, hence the same index for every input and draw. *)
let categorical t weights =
  let n = Array.length weights in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. clamp_weight weights.(i)
  done;
  if !total <= 0. then invalid_arg "Prng.categorical: non-positive weights";
  let x = Random.State.float t !total in
  let acc = ref 0. and i = ref 0 and pick = ref (n - 1) in
  while !i < n - 1 do
    acc := !acc +. clamp_weight weights.(!i);
    if x < !acc then begin
      pick := !i;
      i := n
    end
    else incr i
  done;
  !pick

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(Random.State.int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Partial Fisher-Yates over an index array. *)
  let idx = Array.init n (fun i -> i) in
  let out = ref [] in
  for i = 0 to k - 1 do
    let j = i + Random.State.int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp;
    out := idx.(i) :: !out
  done;
  !out

(* Marsaglia-Tsang gamma sampling for shape >= 1, with the boost trick for
   shape < 1. *)
let rec gamma t shape =
  if shape < 1. then
    let u = Random.State.float t 1.0 in
    gamma t (shape +. 1.) *. (u ** (1. /. shape))
  else
    let d = shape -. (1. /. 3.) in
    let c = 1. /. sqrt (9. *. d) in
    let rec loop () =
      let x = gaussian t ~mu:0. ~sigma:1. in
      let v = (1. +. (c *. x)) ** 3. in
      if v <= 0. then loop ()
      else
        let u = Random.State.float t 1.0 in
        if log u < (0.5 *. x *. x) +. d -. (d *. v) +. (d *. log v) then d *. v
        else loop ()
    in
    loop ()

and gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = Random.State.float t 1.0 in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = Random.State.float t 1.0 in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let beta t ~a ~b =
  let x = gamma t a and y = gamma t b in
  x /. (x +. y)
