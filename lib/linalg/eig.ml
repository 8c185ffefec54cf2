(* Cyclic Jacobi: repeatedly zero the largest off-diagonal entries with Givens
   rotations.  Quadratically convergent; ample for the small matrices (KL
   covariances, coupling blocks) this library needs it for. *)

let sort_eigen values vectors =
  let n = Array.length values in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare values.(i) values.(j)) order;
  let sorted_values = Array.map (fun i -> values.(i)) order in
  let sorted_vectors = Dense.init n n (fun i j -> Dense.get vectors i order.(j)) in
  (sorted_values, sorted_vectors)

let symmetric ?(max_sweeps = 100) a =
  let n, m = Dense.dims a in
  if n <> m then invalid_arg "Eig.symmetric: matrix is not square";
  if not (Dense.is_symmetric ~tol:(1e-8 *. (1.0 +. Dense.max_abs a)) a) then
    invalid_arg "Eig.symmetric: matrix is not symmetric";
  let w = Dense.copy a in
  let v = Dense.identity n in
  let off_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let x = Dense.get w i j in
        acc := !acc +. (x *. x)
      done
    done;
    sqrt !acc
  in
  let scale = 1.0 +. Dense.max_abs a in
  let sweep = ref 0 in
  while off_norm () > 1e-14 *. scale *. float_of_int n && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Dense.get w p q in
        if Float.abs apq > 1e-300 then begin
          let app = Dense.get w p p and aqq = Dense.get w q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let sign = if theta >= 0.0 then 1.0 else -1.0 in
            sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* Apply the rotation on both sides of w and accumulate into v. *)
          for k = 0 to n - 1 do
            let wkp = Dense.get w k p and wkq = Dense.get w k q in
            Dense.set w k p ((c *. wkp) -. (s *. wkq));
            Dense.set w k q ((s *. wkp) +. (c *. wkq))
          done;
          for k = 0 to n - 1 do
            let wpk = Dense.get w p k and wqk = Dense.get w q k in
            Dense.set w p k ((c *. wpk) -. (s *. wqk));
            Dense.set w q k ((s *. wpk) +. (c *. wqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Dense.get v k p and vkq = Dense.get v k q in
            Dense.set v k p ((c *. vkp) -. (s *. vkq));
            Dense.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let values = Array.init n (fun i -> Dense.get w i i) in
  sort_eigen values v

(* Implicit-shift QL with Wilkinson shift, following the classical tql2
   routine (EISPACK / Numerical Recipes tqli). *)
let tridiagonal ~diag ~off =
  let n = Array.length diag in
  if Array.length off <> Int.max 0 (n - 1) then
    invalid_arg "Eig.tridiagonal: off-diagonal must have length n-1";
  let d = Array.copy diag in
  let e = Array.make n 0.0 in
  Array.blit off 0 e 0 (n - 1);
  (* e.(n-1) stays 0: e is shifted so e.(i) couples i and i+1. *)
  let z = Dense.identity n in
  let pythag a b =
    let absa = Float.abs a and absb = Float.abs b in
    if absa > absb then absa *. sqrt (1.0 +. ((absb /. absa) ** 2.0))
    else if Util.Floats.equal_exact absb 0.0 then 0.0
    else absb *. sqrt (1.0 +. ((absa /. absb) ** 2.0))
  in
  for l = 0 to n - 1 do
    let iter = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      (* Find a small off-diagonal element to split the problem. *)
      let m = ref l in
      (try
         while !m < n - 1 do
           let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
           if Float.abs e.(!m) <= 1e-16 *. dd then raise Exit;
           incr m
         done
       with Exit -> ());
      if !m = l then continue_ := false
      else begin
        incr iter;
        if !iter > 50 then failwith "Eig.tridiagonal: too many QL iterations";
        let g = (d.(l + 1) -. d.(l)) /. (2.0 *. e.(l)) in
        let r = pythag g 1.0 in
        let g =
          d.(!m) -. d.(l) +. (e.(l) /. (g +. (if g >= 0.0 then Float.abs r else -.Float.abs r)))
        in
        let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
        let g = ref g in
        (try
           for i = !m - 1 downto l do
             let f = !s *. e.(i) and b = !c *. e.(i) in
             let r = pythag f !g in
             e.(i + 1) <- r;
             if Util.Floats.equal_exact r 0.0 then begin
               d.(i + 1) <- d.(i + 1) -. !p;
               e.(!m) <- 0.0;
               raise Exit
             end;
             s := f /. r;
             c := !g /. r;
             let gg = d.(i + 1) -. !p in
             let rr = ((d.(i) -. gg) *. !s) +. (2.0 *. !c *. b) in
             p := !s *. rr;
             d.(i + 1) <- gg +. !p;
             g := (!c *. rr) -. b;
             for k = 0 to n - 1 do
               let fk = Dense.get z k (i + 1) in
               let zki = Dense.get z k i in
               Dense.set z k (i + 1) ((!s *. zki) +. (!c *. fk));
               Dense.set z k i ((!c *. zki) -. (!s *. fk))
             done
           done;
           d.(l) <- d.(l) -. !p;
           e.(l) <- !g;
           e.(!m) <- 0.0
         with Exit -> ())
      end
    done
  done;
  sort_eigen d z
