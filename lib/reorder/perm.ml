(* Permutations of [0, n): the run-time realization of the reordering
   functions sigma (data) and delta (iteration) that inspectors
   generate and store in index arrays.

   Convention: [forward.(old_index) = new_index]. The paper's CPACK
   inspector builds the inverse array ([sigma_cp_inv.(new) = old]);
   {!of_inverse} accepts that form directly. *)

type t = { forward : int array }

let invalid fmt = Fmt.kstr invalid_arg fmt

let size p = Array.length p.forward

let check_bijection a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid "Perm: value %d out of range" v
      else if seen.(v) then invalid "Perm: value %d duplicated" v
      else seen.(v) <- true)
    a

let of_forward a =
  check_bijection a;
  { forward = Array.copy a }

let of_inverse inv =
  check_bijection inv;
  let n = Array.length inv in
  let forward = Array.make n 0 in
  for nw = 0 to n - 1 do
    forward.(inv.(nw)) <- nw
  done;
  { forward }

(* Trusted constructor for inspectors that build valid permutations by
   construction; only bounds are spot-checked in debug builds. *)
let unsafe_of_forward a = { forward = a }

let id n = { forward = Array.init n (fun i -> i) }
let is_id p =
  let a = p.forward in
  let rec go i = i >= Array.length a || (Array.unsafe_get a i = i && go (i + 1)) in
  go 0

let forward p i = p.forward.(i)

let invert p =
  let n = size p in
  let inv = Array.make n 0 in
  for i = 0 to n - 1 do
    inv.(p.forward.(i)) <- i
  done;
  { forward = inv }

let backward p j = (invert p).forward.(j)

(* [compose p2 p1] applies [p1] first: old -> p1 -> p2 -> new. *)
let compose p2 p1 =
  if size p2 <> size p1 then invalid "Perm.compose: size mismatch";
  { forward = Array.map (fun mid -> p2.forward.(mid)) p1.forward }

(* In-place composition over a caller-owned forward array (typically a
   Scratch-backed walk accumulator): acc.(old) <- p2(acc.(old)). Each
   cell is read once and written once, so no aliasing hazard arises
   from updating in place. *)
let compose_into p2 acc =
  let n = size p2 in
  if Array.length acc < n then invalid "Perm.compose_into: accumulator size";
  for i = 0 to n - 1 do
    let mid = Array.unsafe_get acc i in
    if mid < 0 || mid >= n then invalid "Perm.compose_into: value %d" mid;
    Array.unsafe_set acc i (Array.unsafe_get p2.forward mid)
  done

(* Inverse into a caller-owned destination (needs a second buffer: the
   scatter reads every source cell before its destination cell is
   known). Only the first [size p] cells of [dst] are written. *)
let invert_into p dst =
  let n = size p in
  if Array.length dst < n then invalid "Perm.invert_into: destination size";
  for i = 0 to n - 1 do
    Array.unsafe_set dst (Array.unsafe_get p.forward i) i
  done

(* Move each element to its new position: result.(forward i) = a.(i). *)
let apply_to_array p a =
  let n = size p in
  if Array.length a <> n then invalid "Perm.apply_to_array: length mismatch";
  let out = Array.make n a.(0) in
  for i = 0 to n - 1 do
    out.(p.forward.(i)) <- a.(i)
  done;
  out

let apply_to_float_array p a =
  let n = size p in
  if Array.length a <> n then invalid "Perm.apply_to_float_array: length";
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(p.forward.(i)) <- a.(i)
  done;
  out

(* Remap the *values* of an index array after the data it points into
   has been reordered: new_idx.(k) = forward(idx.(k)). *)
let remap_values p idx = Array.map (fun v -> p.forward.(v)) idx

let to_forward_array p = Array.copy p.forward
let to_inverse_array p = (invert p).forward

let equal p1 p2 = size p1 = size p2 && Array.for_all2 ( = ) p1.forward p2.forward

let pp ppf p =
  if size p <= 16 then
    Fmt.pf ppf "perm[%a]" Fmt.(array ~sep:comma int) p.forward
  else Fmt.pf ppf "perm(n=%d)" (size p)
