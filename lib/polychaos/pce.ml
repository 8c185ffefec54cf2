type t = { basis : Basis.t; coefs : float array }

let create basis coefs =
  if Array.length coefs <> Basis.size basis then
    invalid_arg "Pce.create: coefficient length must equal basis size";
  { basis; coefs }

let constant basis v =
  let coefs = Array.make (Basis.size basis) 0.0 in
  coefs.(0) <- v;
  { basis; coefs }

let variable basis d =
  if d < 0 || d >= Basis.dim basis then invalid_arg "Pce.variable: dimension out of range";
  if Basis.order basis < 1 then invalid_arg "Pce.variable: basis order must be >= 1";
  let idx = Array.make (Basis.dim basis) 0 in
  idx.(d) <- 1;
  let k = Basis.rank_of_index basis idx in
  let coefs = Array.make (Basis.size basis) 0.0 in
  (* Monic p_1(x) = x - alpha_0, so x = p_1(x) + alpha_0 * p_0. *)
  let fam = (Basis.families basis).(d) in
  coefs.(k) <- 1.0;
  coefs.(0) <- fam.Family.alpha 0;
  { basis; coefs }

let mean x = x.coefs.(0)

let variance x =
  let acc = ref 0.0 in
  for k = 1 to Array.length x.coefs - 1 do
    acc := !acc +. (x.coefs.(k) *. x.coefs.(k) *. Basis.norm_sq x.basis k)
  done;
  !acc

let std x = sqrt (variance x)

let eval x xi =
  let values = Basis.eval_all x.basis xi in
  let acc = ref 0.0 in
  Array.iteri (fun k v -> acc := !acc +. (x.coefs.(k) *. v)) values;
  !acc

let sample x rng = eval x (Basis.sample_point x.basis rng)

let same_basis name a b =
  if a.basis != b.basis && Basis.indices a.basis <> Basis.indices b.basis then
    invalid_arg (Printf.sprintf "Pce.%s: operands use different bases" name)

let add a b =
  same_basis "add" a b;
  { a with coefs = Linalg.Vec.add a.coefs b.coefs }

let sub a b =
  same_basis "sub" a b;
  { a with coefs = Linalg.Vec.sub a.coefs b.coefs }

let scale alpha a = { a with coefs = Linalg.Vec.scaled alpha a.coefs }

let mul tp a b =
  same_basis "mul" a b;
  let n = Basis.size a.basis in
  let coefs = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if not (Util.Floats.equal_exact a.coefs.(i) 0.0) then
      for j = 0 to n - 1 do
        if not (Util.Floats.equal_exact b.coefs.(j) 0.0) then
          for k = 0 to n - 1 do
            let c = Triple_product.value tp i j k in
            if not (Util.Floats.equal_exact c 0.0) then
              coefs.(k) <- coefs.(k) +. (a.coefs.(i) *. b.coefs.(j) *. c)
          done
      done
  done;
  for k = 0 to n - 1 do
    coefs.(k) <- coefs.(k) /. Basis.norm_sq a.basis k
  done;
  { a with coefs }

let central_moment x m =
  if m < 1 || m > 4 then invalid_arg "Pce.central_moment: order must be 1..4";
  let mu = mean x in
  (* The integrand has polynomial degree m * order; an n-point Gauss rule is
     exact for degree 2n-1. *)
  let npts = ((m * Basis.order x.basis) / 2) + 1 in
  Quadrature.tensor (Basis.families x.basis) npts (fun xi ->
      let d = eval x xi -. mu in
      let rec pow acc k = if k = 0 then acc else pow (acc *. d) (k - 1) in
      pow 1.0 m)

let skewness x =
  let v = variance x in
  if v <= 0.0 then 0.0 else central_moment x 3 /. (v ** 1.5)

let kurtosis_excess x =
  let v = variance x in
  if v <= 0.0 then 0.0 else (central_moment x 4 /. (v *. v)) -. 3.0
