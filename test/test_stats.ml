(* Online statistics, batch statistics, histogram, KS, Gram-Charlier. *)

let test_online_against_batch () =
  let rng = Helpers.rng () in
  let xs = Array.init 5000 (fun _ -> Prob.Rng.float_range rng (-3.0) 7.0) in
  let acc = Prob.Stats.Online.create () in
  Array.iter (Prob.Stats.Online.add acc) xs;
  Helpers.check_close ~rtol:1e-10 "mean" (Prob.Stats.mean xs) (Prob.Stats.Online.mean acc);
  Helpers.check_close ~rtol:1e-9 "variance" (Prob.Stats.variance xs)
    (Prob.Stats.Online.variance acc);
  Alcotest.(check int) "count" 5000 (Prob.Stats.Online.count acc)

let test_online_merge () =
  let rng = Helpers.rng () in
  let xs = Array.init 1000 (fun _ -> Prob.Rng.gaussian rng) in
  let ys = Array.init 700 (fun _ -> 2.0 +. Prob.Rng.gaussian rng) in
  let all = Array.append xs ys in
  let a = Prob.Stats.Online.create () and b = Prob.Stats.Online.create () in
  Array.iter (Prob.Stats.Online.add a) xs;
  Array.iter (Prob.Stats.Online.add b) ys;
  let merged = Prob.Stats.Online.merge a b in
  let direct = Prob.Stats.Online.create () in
  Array.iter (Prob.Stats.Online.add direct) all;
  Helpers.check_close ~rtol:1e-9 "merged mean" (Prob.Stats.Online.mean direct)
    (Prob.Stats.Online.mean merged);
  Helpers.check_close ~rtol:1e-8 "merged variance" (Prob.Stats.Online.variance direct)
    (Prob.Stats.Online.variance merged);
  Helpers.check_close ~rtol:1e-6 "merged skewness" (Prob.Stats.Online.skewness direct)
    (Prob.Stats.Online.skewness merged);
  Helpers.check_close ~rtol:1e-6 "merged kurtosis" (Prob.Stats.Online.kurtosis_excess direct)
    (Prob.Stats.Online.kurtosis_excess merged)

let test_online_moments_exact () =
  (* Two-point distribution {0, 1}: known central moments. *)
  let acc = Prob.Stats.Online.create () in
  for _ = 1 to 50 do
    Prob.Stats.Online.add acc 0.0;
    Prob.Stats.Online.add acc 1.0
  done;
  Helpers.check_float ~eps:1e-12 "mean" 0.5 (Prob.Stats.Online.mean acc);
  Helpers.check_float ~eps:1e-12 "variance" 0.25 (Prob.Stats.Online.variance acc);
  Helpers.check_float ~eps:1e-10 "skewness" 0.0 (Prob.Stats.Online.skewness acc);
  Helpers.check_float ~eps:1e-10 "kurtosis" (-2.0) (Prob.Stats.Online.kurtosis_excess acc)

let test_quantile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Helpers.check_float "median" 3.0 (Prob.Stats.quantile xs 0.5);
  Helpers.check_float "min" 1.0 (Prob.Stats.quantile xs 0.0);
  Helpers.check_float "max" 5.0 (Prob.Stats.quantile xs 1.0);
  Helpers.check_float "interpolated" 1.5 (Prob.Stats.quantile xs 0.125)

let test_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Helpers.check_float ~eps:1e-12 "self correlation" 1.0 (Prob.Stats.correlation xs xs);
  Helpers.check_float ~eps:1e-12 "anti correlation" (-1.0)
    (Prob.Stats.correlation xs (Array.map (fun v -> -.v) xs))

let test_histogram_basic () =
  let h = Prob.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Prob.Histogram.add_all h [| 0.5; 1.5; 1.6; 9.5; 100.0; -5.0 |];
  Alcotest.(check int) "count" 6 (Prob.Histogram.count h);
  let counts = Prob.Histogram.counts h in
  Alcotest.(check int) "bin 0 (incl clamped low)" 2 counts.(0);
  Alcotest.(check int) "bin 1" 2 counts.(1);
  Alcotest.(check int) "bin 9 (incl clamped high)" 2 counts.(9);
  Helpers.check_float ~eps:1e-9 "bin center" 1.5 (Prob.Histogram.bin_center h 1);
  let pct = Prob.Histogram.percentages h in
  Helpers.check_float ~eps:1e-9 "percentages sum to 100" 100.0 (Array.fold_left ( +. ) 0.0 pct)

let test_histogram_gap () =
  let a = Prob.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  let b = Prob.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:2 in
  Prob.Histogram.add_all a [| 0.25; 0.25; 0.75; 0.75 |];
  Prob.Histogram.add_all b [| 0.25; 0.75; 0.75; 0.75 |];
  Helpers.check_float ~eps:1e-9 "max gap" 25.0 (Prob.Histogram.max_percentage_gap a b)

let test_ks_same_distribution () =
  let rng = Prob.Rng.create ~seed:11L () in
  let xs = Array.init 800 (fun _ -> Prob.Rng.gaussian rng) in
  let ys = Array.init 800 (fun _ -> Prob.Rng.gaussian rng) in
  let p = Prob.Ks.p_value xs ys in
  Alcotest.(check bool) (Printf.sprintf "same dist accepted (p=%.3f)" p) true (p > 0.01)

let test_ks_different_distribution () =
  let rng = Prob.Rng.create ~seed:11L () in
  let xs = Array.init 800 (fun _ -> Prob.Rng.gaussian rng) in
  let ys = Array.init 800 (fun _ -> 1.0 +. Prob.Rng.gaussian rng) in
  let p = Prob.Ks.p_value xs ys in
  Alcotest.(check bool) (Printf.sprintf "shifted dist rejected (p=%.2g)" p) true (p < 1e-6)

let test_gram_charlier_gaussian_limit () =
  (* With Gaussian moments the expansions reduce to the normal pdf. *)
  let m = { Prob.Gram_charlier.mean = 0.3; variance = 4.0; skewness = 0.0; kurtosis_excess = 0.0 } in
  List.iter
    (fun x ->
      let expected = Prob.Normal.pdf ((x -. 0.3) /. 2.0) /. 2.0 in
      Helpers.check_float ~eps:1e-12 "gram-charlier" expected (Prob.Gram_charlier.gram_charlier_pdf m x);
      Helpers.check_float ~eps:1e-12 "edgeworth" expected (Prob.Gram_charlier.edgeworth_pdf m x))
    [ -3.0; 0.0; 0.3; 2.5 ]

let test_gram_charlier_integrates_to_one () =
  let m =
    { Prob.Gram_charlier.mean = 0.0; variance = 1.0; skewness = 0.4; kurtosis_excess = 0.5 }
  in
  (* Trapezoid over [-8, 8]. *)
  let n = 4000 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let x = -8.0 +. (16.0 *. float_of_int i /. float_of_int n) in
    acc := !acc +. (Prob.Gram_charlier.gram_charlier_pdf m x *. 16.0 /. float_of_int n)
  done;
  Helpers.check_float ~eps:1e-6 "integrates to 1" 1.0 !acc

let test_hermite_he () =
  Helpers.check_float "He_0" 1.0 (Prob.Gram_charlier.hermite_he 0 1.7);
  Helpers.check_float "He_1" 1.7 (Prob.Gram_charlier.hermite_he 1 1.7);
  Helpers.check_float ~eps:1e-12 "He_3(x) = x^3 - 3x" ((1.7 ** 3.0) -. (3.0 *. 1.7))
    (Prob.Gram_charlier.hermite_he 3 1.7)

let test_distributions_moments () =
  let rng = Prob.Rng.create ~seed:31L () in
  let check dist =
    let acc = Prob.Stats.Online.create () in
    for _ = 1 to 100_000 do
      Prob.Stats.Online.add acc (Prob.Distributions.sample rng dist)
    done;
    let mu = Prob.Distributions.mean dist and var = Prob.Distributions.variance dist in
    let name = Prob.Distributions.name dist in
    Helpers.check_float ~eps:(0.03 *. (1.0 +. Float.abs mu)) (name ^ " mean") mu
      (Prob.Stats.Online.mean acc);
    Helpers.check_float ~eps:(0.08 *. (1.0 +. var)) (name ^ " variance") var
      (Prob.Stats.Online.variance acc)
  in
  check (Prob.Distributions.Gaussian { mu = 2.0; sigma = 1.5 });
  check (Prob.Distributions.Lognormal { mu = 0.0; sigma = 0.4 });
  check (Prob.Distributions.Uniform { lo = -1.0; hi = 3.0 });
  check (Prob.Distributions.Exponential { rate = 2.0 });
  check (Prob.Distributions.Gamma { shape = 3.0; scale = 0.5 });
  check (Prob.Distributions.Beta { alpha = 2.0; beta = 5.0 })

let test_distribution_pdfs_normalized () =
  (* Crude quadrature check that each pdf integrates to ~1. *)
  let integrate lo hi dist =
    let n = 20000 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let x = lo +. ((hi -. lo) *. (float_of_int i +. 0.5) /. float_of_int n) in
      acc := !acc +. (Prob.Distributions.pdf dist x *. (hi -. lo) /. float_of_int n)
    done;
    !acc
  in
  Helpers.check_float ~eps:1e-4 "gaussian pdf" 1.0
    (integrate (-10.0) 10.0 (Prob.Distributions.Gaussian { mu = 0.0; sigma = 1.0 }));
  Helpers.check_float ~eps:1e-3 "lognormal pdf" 1.0
    (integrate 1e-6 50.0 (Prob.Distributions.Lognormal { mu = 0.0; sigma = 0.5 }));
  Helpers.check_float ~eps:1e-4 "gamma pdf" 1.0
    (integrate 1e-9 60.0 (Prob.Distributions.Gamma { shape = 2.0; scale = 1.5 }));
  Helpers.check_float ~eps:1e-3 "beta pdf" 1.0
    (integrate 1e-9 (1.0 -. 1e-9) (Prob.Distributions.Beta { alpha = 2.0; beta = 3.0 }))

let suite =
  [
    Alcotest.test_case "online vs batch" `Quick test_online_against_batch;
    Alcotest.test_case "online merge" `Quick test_online_merge;
    Alcotest.test_case "online exact moments" `Quick test_online_moments_exact;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "correlation" `Quick test_correlation;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
    Alcotest.test_case "histogram gap" `Quick test_histogram_gap;
    Alcotest.test_case "ks same" `Slow test_ks_same_distribution;
    Alcotest.test_case "ks different" `Slow test_ks_different_distribution;
    Alcotest.test_case "gram-charlier gaussian limit" `Quick test_gram_charlier_gaussian_limit;
    Alcotest.test_case "gram-charlier normalization" `Quick test_gram_charlier_integrates_to_one;
    Alcotest.test_case "hermite he" `Quick test_hermite_he;
    Alcotest.test_case "distribution moments" `Slow test_distributions_moments;
    Alcotest.test_case "distribution pdfs normalized" `Slow test_distribution_pdfs_normalized;
  ]
