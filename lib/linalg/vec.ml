type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let fill x v = Array.fill x 0 (Array.length x) v

let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name (Array.length x) (Array.length y))

let dot x y =
  check_same_length "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let axpy ~alpha x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let scale alpha x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- alpha *. x.(i)
  done

let scaled alpha x = Array.map (fun v -> alpha *. v) x

let map2 name f x y =
  check_same_length name x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 "add" ( +. ) x y

let sub x y = map2 "sub" ( -. ) x y

let mul_elementwise x y = map2 "mul_elementwise" ( *. ) x y

let neg x = Array.map (fun v -> -.v) x

let sum x = Array.fold_left ( +. ) 0.0 x

let mean x =
  if Array.length x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

let dist2 x y =
  check_same_length "dist2" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let max_abs_index x =
  if Array.length x = 0 then invalid_arg "Vec.max_abs_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if Float.abs x.(i) > Float.abs x.(!best) then best := i
  done;
  !best

let min x =
  if Array.length x = 0 then invalid_arg "Vec.min: empty vector";
  Array.fold_left Float.min x.(0) x

let max x =
  if Array.length x = 0 then invalid_arg "Vec.max: empty vector";
  Array.fold_left Float.max x.(0) x

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

let rel_error x ~reference =
  let denom = norm2 reference in
  let num = dist2 x reference in
  if Util.Floats.equal_exact denom 0.0 then norm2 x else num /. denom
