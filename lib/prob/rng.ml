type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable spare : float option; (* second Gaussian of the polar pair *)
}

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64: seeds the state and generates split streams. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let state = ref seed in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; spare = None }

let default_seed = 0x5EED0F0CA1L

let create ?(seed = default_seed) () = of_seed seed

let copy r = { r with spare = r.spare }

let uint64 r =
  let result = Int64.mul (rotl (Int64.mul r.s1 5L) 7) 9L in
  let t = Int64.shift_left r.s1 17 in
  r.s2 <- Int64.logxor r.s2 r.s0;
  r.s3 <- Int64.logxor r.s3 r.s1;
  r.s1 <- Int64.logxor r.s1 r.s2;
  r.s0 <- Int64.logxor r.s0 r.s3;
  r.s2 <- Int64.logxor r.s2 t;
  r.s3 <- rotl r.s3 45;
  result

let split r = of_seed (uint64 r)

let float r =
  (* 53 high bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (uint64 r) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range r lo hi = lo +. ((hi -. lo) *. float r)

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^64. *)
  let v = Int64.rem (Int64.logand (uint64 r) Int64.max_int) (Int64.of_int n) in
  Int64.to_int v

let gaussian r =
  match r.spare with
  | Some g ->
      r.spare <- None;
      g
  | None ->
      let rec draw () =
        let u = (2.0 *. float r) -. 1.0 in
        let v = (2.0 *. float r) -. 1.0 in
        let s = (u *. u) +. (v *. v) in
        if s >= 1.0 || Util.Floats.equal_exact s 0.0 then draw ()
        else begin
          let m = sqrt (-2.0 *. log s /. s) in
          r.spare <- Some (v *. m);
          u *. m
        end
      in
      draw ()

let gaussian_vector r n = Array.init n (fun _ -> gaussian r)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
