(* Stable content hashing for plan-cache keys: 64-bit FNV-1a over a
   type-tagged byte stream. OCaml's polymorphic [Hashtbl.hash] is
   neither stable across versions nor collision-resistant enough to
   address cache files on disk, so the key hash is computed explicitly
   from the ingredients the caller feeds in (access pattern bytes,
   transform descriptions, strategy, flags). Each ingredient is tagged
   with a type byte and variable-length values carry their length, so
   adjacent fields can never alias ("ab"+"c" vs "a"+"bc"). *)

type t = int64

let equal = Int64.equal
let to_hex h = Printf.sprintf "%016Lx" h

let pp ppf h = Fmt.string ppf (to_hex h)

type builder = { mutable h : int64 }

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let create () = { h = fnv_offset }

(* Without flambda, an [int64] stored into a record field is boxed on
   every store, so the hot paths below thread the state through a
   local accumulator (which ocamlopt keeps unboxed) and write it back
   once per ingredient. *)
let[@inline] step h c = Int64.mul (Int64.logxor h (Int64.of_int (c land 0xff))) fnv_prime

(* The 8 little-endian bytes of [n] sign-extended to 64 bits, so every
   int hashes the same number of bytes ([asr] sign-extends, so byte 7
   carries the sign exactly as in [Int64.of_int n]). *)
let[@inline] step_int h n =
  let h = ref h in
  for i = 0 to 7 do
    h := step !h (n asr (8 * i))
  done;
  !h

let[@inline] step_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := step !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let add_int b n = b.h <- step_int (step b.h 0x01) n

let add_bool b v = b.h <- step (step b.h 0x02) (if v then 1 else 0)

let add_string b s =
  let h = ref (step_int (step b.h 0x03) (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  b.h <- !h

let add_int_array b a =
  let h = ref (step_int (step b.h 0x04) (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := step_int !h (Array.unsafe_get a i)
  done;
  b.h <- !h

let add_float b f = b.h <- step_int64 (step b.h 0x05) (Int64.bits_of_float f)

let value b = b.h
