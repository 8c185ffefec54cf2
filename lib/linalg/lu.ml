exception Singular of int

type t = {
  lu : Dense.t; (* L below the diagonal (unit diag implicit), U on and above *)
  piv : int array; (* row permutation: piv.(k) = original row placed at k *)
  sign : float; (* parity of the permutation, for the determinant *)
}

let factor a =
  let n, m = Dense.dims a in
  if n <> m then invalid_arg "Lu.factor: matrix is not square";
  let lu = Dense.copy a in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  let get i j = Dense.get lu i j in
  let set i j v = Dense.set lu i j v in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude entry in column k. *)
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get i k) > Float.abs (get !pivot_row k) then pivot_row := i
    done;
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let t = get k j in
        set k j (get !pivot_row j);
        set !pivot_row j t
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!pivot_row);
      piv.(!pivot_row) <- t;
      sign := -. !sign
    end;
    let pivot = get k k in
    if Float.abs pivot < 1e-300 then raise (Singular k);
    for i = k + 1 to n - 1 do
      let lik = get i k /. pivot in
      set i k lik;
      if not (Util.Floats.equal_exact lik 0.0) then
        for j = k + 1 to n - 1 do
          set i j (get i j -. (lik *. get k j))
        done
    done
  done;
  { lu; piv; sign = !sign }

let size f = fst (Dense.dims f.lu)

let solve f b =
  let n = size f in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  let x = Array.init n (fun k -> b.(f.piv.(k))) in
  (* Forward substitution with unit-diagonal L. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Dense.get f.lu i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Dense.get f.lu i j *. x.(j))
    done;
    x.(i) <- !acc /. Dense.get f.lu i i
  done;
  x

let solve_many f b =
  let n = size f in
  let bn, bm = Dense.dims b in
  if bn <> n then invalid_arg "Lu.solve_many: dimension mismatch";
  let x = Dense.create n bm in
  for j = 0 to bm - 1 do
    let col = solve f (Dense.col b j) in
    Array.iteri (fun i v -> Dense.set x i j v) col
  done;
  x

let det f =
  let n = size f in
  let d = ref f.sign in
  for k = 0 to n - 1 do
    d := !d *. Dense.get f.lu k k
  done;
  !d

let inverse f = solve_many f (Dense.identity (size f))
