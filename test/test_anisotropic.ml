(* Anisotropic (box-truncated) bases. *)

let test_box_count () =
  Alcotest.(check int) "2x3 box" 12 (Polychaos.Multi_index.count_box ~degrees:[| 1; 2; 1 |]);
  Alcotest.(check int) "scalar" 4 (Polychaos.Multi_index.count_box ~degrees:[| 3 |])

let test_box_generate () =
  let indices = Polychaos.Multi_index.generate_box ~degrees:[| 1; 2 |] in
  Alcotest.(check int) "count" 6 (Array.length indices);
  Alcotest.(check (array int)) "zero first" [| 0; 0 |] indices.(0);
  (* all within caps, all unique, graded *)
  let seen = Hashtbl.create 8 in
  let prev_degree = ref 0 in
  Array.iter
    (fun idx ->
      Alcotest.(check bool) "caps respected" true (idx.(0) <= 1 && idx.(1) <= 2);
      Alcotest.(check bool) "unique" false (Hashtbl.mem seen idx);
      Hashtbl.replace seen idx ();
      let d = Polychaos.Multi_index.degree idx in
      Alcotest.(check bool) "graded" true (d >= !prev_degree);
      prev_degree := d)
    indices

let test_anisotropic_basis_orthogonal () =
  let families = [| Polychaos.Family.hermite; Polychaos.Family.legendre |] in
  let b = Polychaos.Basis.anisotropic families ~degrees:[| 2; 1 |] in
  Alcotest.(check int) "size" 6 (Polychaos.Basis.size b);
  (* Orthogonality by tensor quadrature. *)
  for i = 0 to 5 do
    for j = 0 to 5 do
      let inner =
        Polychaos.Quadrature.tensor families 4 (fun xi ->
            Polychaos.Basis.eval b i xi *. Polychaos.Basis.eval b j xi)
      in
      let expected = if i = j then Polychaos.Basis.norm_sq b i else 0.0 in
      Helpers.check_float
        ~eps:(1e-9 *. (1.0 +. expected))
        (Printf.sprintf "<psi_%d psi_%d>" i j)
        expected inner
    done
  done

let suite =
  [
    Alcotest.test_case "box count" `Quick test_box_count;
    Alcotest.test_case "box generate" `Quick test_box_generate;
    Alcotest.test_case "anisotropic orthogonality" `Quick test_anisotropic_basis_orthogonal;
  ]
