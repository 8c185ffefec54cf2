(* Order of convergence of the time integrators on an analytic RC decay.

   The scalar circuit g = c = 1 driven by u(t) = sin t obeys

     x' + x = sin t,   x(0) = x0
     x(t)  = (x0 + 1/2) exp(-t) + (sin t - cos t) / 2.

   Halving the step must cut the final-time error by ~2 for backward
   Euler (first order) and ~4 for the trapezoidal rule (second order).
   The sinusoidal forcing matters: it exercises the u_k + u_{k+1}
   right-hand side of the trapezoidal step, so a mis-scaled source term
   would destroy the observed order. *)

let one_by_one v = Linalg.Sparse.of_triplets ~nrows:1 ~ncols:1 [ (0, 0, v) ]

let x0_val = 1.0

let exact t = ((x0_val +. 0.5) *. exp (-.t)) +. ((sin t -. cos t) /. 2.0)

let final_error scheme ~steps =
  let h = 1.0 /. float_of_int steps in
  let cfg =
    {
      Powergrid.Transient.h;
      steps;
      scheme;
      ordering = Linalg.Ordering.Natural;
    }
  in
  let g = one_by_one 1.0 and c = one_by_one 1.0 in
  let last = ref x0_val in
  Powergrid.Transient.run cfg ~g ~c
    ~inject:(fun t u -> u.(0) <- sin t)
    ~x0:[| x0_val |]
    ~on_step:(fun _k _t x -> last := x.(0));
  Float.abs (!last -. exact 1.0)

let ratios scheme =
  let e16 = final_error scheme ~steps:16 in
  let e32 = final_error scheme ~steps:32 in
  let e64 = final_error scheme ~steps:64 in
  (e16 /. e32, e32 /. e64)

let check_ratio what lo hi r =
  Alcotest.(check bool) (Printf.sprintf "%s (observed %.3f)" what r) true (r >= lo && r <= hi)

let test_backward_euler_first_order () =
  let r1, r2 = ratios Powergrid.Transient.Backward_euler in
  check_ratio "BE error ratio h=1/16 -> 1/32" 1.7 2.3 r1;
  check_ratio "BE error ratio h=1/32 -> 1/64" 1.7 2.3 r2

let test_trapezoidal_second_order () =
  let r1, r2 = ratios Powergrid.Transient.Trapezoidal in
  check_ratio "trapezoidal error ratio h=1/16 -> 1/32" 3.5 4.5 r1;
  check_ratio "trapezoidal error ratio h=1/32 -> 1/64" 3.5 4.5 r2

let test_trapezoidal_beats_backward_euler () =
  let e_be = final_error Powergrid.Transient.Backward_euler ~steps:64 in
  let e_tr = final_error Powergrid.Transient.Trapezoidal ~steps:64 in
  Alcotest.(check bool)
    (Printf.sprintf "trapezoidal error %.3e well below BE %.3e" e_tr e_be)
    true
    (e_tr < e_be /. 10.0)

let suite =
  [
    Alcotest.test_case "backward Euler converges at first order" `Quick
      test_backward_euler_first_order;
    Alcotest.test_case "trapezoidal converges at second order" `Quick
      test_trapezoidal_second_order;
    Alcotest.test_case "trapezoidal dominates BE at equal step" `Quick
      test_trapezoidal_beats_backward_euler;
  ]
