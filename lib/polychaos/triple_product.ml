type t = {
  basis : Basis.t;
  per_dim : float array array array array;
      (* per_dim.(d).(i).(j).(k) = E[p_i p_j p_k] for dimension d's family *)
}

let hermite_univariate i j k =
  let total = i + j + k in
  if total mod 2 = 1 then 0.0
  else begin
    let s = total / 2 in
    if s < i || s < j || s < k then 0.0
    else begin
      let fact = Prob.Special_functions.factorial in
      fact i *. fact j *. fact k /. (fact (s - i) *. fact (s - j) *. fact (s - k))
    end
  end

let univariate_table family max_order =
  let m = max_order + 1 in
  let is_hermite = family.Family.name = "hermite" in
  let tbl = Array.init m (fun _ -> Array.make_matrix m m 0.0) in
  for i = 0 to max_order do
    for j = i to max_order do
      for k = j to max_order do
        let v =
          if is_hermite then hermite_univariate i j k
          else Quadrature.expectation_of_product family [ i; j; k ]
        in
        (* fill all six symmetric slots *)
        tbl.(i).(j).(k) <- v;
        tbl.(i).(k).(j) <- v;
        tbl.(j).(i).(k) <- v;
        tbl.(j).(k).(i) <- v;
        tbl.(k).(i).(j) <- v;
        tbl.(k).(j).(i) <- v
      done
    done
  done;
  tbl

let create basis =
  let order = Basis.order basis in
  let per_dim = Array.map (fun fam -> univariate_table fam order) (Basis.families basis) in
  { basis; per_dim }

let value t i j k =
  let ii = Basis.index t.basis i and jj = Basis.index t.basis j and kk = Basis.index t.basis k in
  let acc = ref 1.0 in
  (try
     Array.iteri
       (fun d di ->
         let v = t.per_dim.(d).(di).(jj.(d)).(kk.(d)) in
         if Util.Floats.equal_exact v 0.0 then begin
           acc := 0.0;
           raise Exit
         end;
         acc := !acc *. v)
       ii
   with Exit -> ());
  !acc

let coupling_matrix t i =
  let n = Basis.size t.basis in
  Linalg.Dense.init n n (fun j k -> value t i j k)

let basis t = t.basis

(* ---- artifact serialization ----------------------------------------
   The tensor factorizes into one (order+1)^3 univariate table per
   dimension; that is exactly what crosses the codec.  [decode] checks
   the stored shape against the basis it is asked to serve and raises
   [Util.Codec.Corrupt] on any mismatch, so a cached tensor can never be
   silently applied to the wrong basis. *)

let encode (t : t) (e : Util.Codec.encoder) =
  let m = Basis.order t.basis + 1 in
  Util.Codec.write_int e (Array.length t.per_dim);
  Util.Codec.write_int e m;
  Array.iter
    (fun tbl ->
      Array.iter (fun plane -> Array.iter (fun row -> Util.Codec.write_float_array e row) plane) tbl)
    t.per_dim

let decode (basis : Basis.t) (d : Util.Codec.decoder) =
  let fail fmt = Printf.ksprintf (fun s -> raise (Util.Codec.Corrupt s)) fmt in
  let dims = Util.Codec.read_int d in
  let m = Util.Codec.read_int d in
  if dims <> Basis.dim basis then
    fail "triple-product: stored for %d dimensions, basis has %d" dims (Basis.dim basis);
  if m <> Basis.order basis + 1 then
    fail "triple-product: stored order %d, basis order %d" (m - 1) (Basis.order basis);
  let per_dim =
    Array.init dims (fun _ ->
        Array.init m (fun _ ->
            Array.init m (fun _ ->
                let row = Util.Codec.read_float_array d in
                if Array.length row <> m then
                  fail "triple-product: table row length %d <> %d" (Array.length row) m;
                row)))
  in
  { basis; per_dim }
