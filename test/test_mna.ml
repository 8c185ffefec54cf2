(* MNA assembly, DC analysis, transient integration. *)

(* A hand-solvable voltage divider: pad (1 V, Rs = 1) - node0 - R=1 - node1,
   node1 draws 0.1 A. DC: v0 = 1 - 0.1 * 1 = 0.9, v1 = 0.9 - 0.1 = 0.8. *)
let divider_circuit ?(i_draw = 0.1) () =
  Powergrid.Circuit.make ~num_nodes:2
    ~resistors:
      [ { Powergrid.Circuit.rnode1 = 0; rnode2 = 1; ohms = 1.0; rkind = Powergrid.Circuit.Metal } ]
    ~capacitors:
      [ { Powergrid.Circuit.cnode1 = 1; cnode2 = Powergrid.Circuit.ground; farads = 1e-12;
          ckind = Powergrid.Circuit.Gate } ]
    ~isources:[ { Powergrid.Circuit.inode = 1; wave = Powergrid.Waveform.Dc i_draw; region = 0 } ]
    ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = 1.0; series_ohms = 1.0 } ] ()

let test_dc_divider () =
  let a = Powergrid.Mna.assemble (divider_circuit ()) in
  let v = Powergrid.Dc.solve a in
  Helpers.check_float ~eps:1e-12 "v0" 0.9 v.(0);
  Helpers.check_float ~eps:1e-12 "v1" 0.8 v.(1)

let test_full_mna_matches_norton () =
  let c = divider_circuit () in
  let norton = Powergrid.Dc.solve (Powergrid.Mna.assemble c) in
  let full = Powergrid.Dc.solve_full (Powergrid.Mna.Full.assemble c) in
  Helpers.check_vec ~eps:1e-10 "full MNA equals Norton" norton full

let test_full_mna_ideal_source () =
  (* Ideal pad (Rs = 0) is only solvable through the full MNA. *)
  let c =
    Powergrid.Circuit.make ~num_nodes:2
      ~resistors:
        [ { Powergrid.Circuit.rnode1 = 0; rnode2 = 1; ohms = 2.0; rkind = Powergrid.Circuit.Metal } ]
      ~capacitors:[]
      ~isources:[ { Powergrid.Circuit.inode = 1; wave = Powergrid.Waveform.Dc 0.25; region = 0 } ]
      ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = 1.0; series_ohms = 0.0 } ] ()
  in
  Alcotest.(check bool) "norton assembly rejects ideal pad" true
    (try
       ignore (Powergrid.Mna.assemble c);
       false
     with Invalid_argument _ -> true);
  let v = Powergrid.Dc.solve_full (Powergrid.Mna.Full.assemble c) in
  Helpers.check_float ~eps:1e-12 "v0 pinned" 1.0 v.(0);
  Helpers.check_float ~eps:1e-12 "v1 = 1 - 0.25 * 2" 0.5 v.(1)

let test_mna_split_parts () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  (* wire + pad = total; gate + fixed = total; all SPD-symmetric *)
  Alcotest.(check bool) "g_wire symmetric" true (Linalg.Sparse.is_symmetric ~tol:1e-12 a.Powergrid.Mna.g_wire);
  Alcotest.(check bool) "c split symmetric" true
    (Linalg.Sparse.is_symmetric ~tol:1e-15 (Powergrid.Mna.c_total a));
  (* gate fraction of the cap diagonal should match the spec *)
  let sum m = Array.fold_left ( +. ) 0.0 (Linalg.Sparse.diag m) in
  let gate = sum a.Powergrid.Mna.c_gate and total = sum (Powergrid.Mna.c_total a) in
  Helpers.check_close ~rtol:1e-9 "gate cap fraction"
    spec.Powergrid.Grid_spec.gate_cap_fraction (gate /. total)

let test_inject_sign () =
  let a = Powergrid.Mna.assemble (divider_circuit ()) in
  let u = Powergrid.Mna.inject a 0.0 in
  (* pad Norton at node 0: +1 V / 1 ohm; drain at node 1: -0.1 A *)
  Helpers.check_float ~eps:1e-12 "pad injection" 1.0 u.(0);
  Helpers.check_float ~eps:1e-12 "drain injection" (-0.1) u.(1)

let test_grid_dc_drop_bounded () =
  (* The generated grid must obey the paper's loading rule: peak drop
     below ~10% of VDD. *)
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  let v = Powergrid.Dc.solve a in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  Array.iter
    (fun vi ->
      Alcotest.(check bool) "voltage between 0.9 VDD and VDD" true
        (vi > 0.9 *. vdd && vi <= vdd +. 1e-9))
    v

(* RC discharge: node with C to ground, R to an ideal-ish pad at V0.
   Analytic: v(t) = V0 + (v(0) - V0) exp(-t / RC). *)
let test_transient_rc_decay () =
  let r = 10.0 and cap = 1e-12 and v0 = 1.0 in
  let circuit =
    Powergrid.Circuit.make ~num_nodes:1 ~resistors:[]
      ~capacitors:
        [ { Powergrid.Circuit.cnode1 = 0; cnode2 = Powergrid.Circuit.ground; farads = cap;
            ckind = Powergrid.Circuit.Fixed } ]
      ~isources:[]
      ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = v0; series_ohms = r } ] ()
  in
  let a = Powergrid.Mna.assemble circuit in
  let g = Powergrid.Mna.g_total a and c = Powergrid.Mna.c_total a in
  let tau = r *. cap in
  let h = tau /. 200.0 in
  let steps = 400 in
  let x0 = [| 0.0 |] in
  (* start discharged *)
  let final = ref 0.0 in
  let results = Array.make (steps + 1) 0.0 in
  let cfg = Powergrid.Transient.default_config ~h ~steps in
  Powergrid.Transient.run cfg ~g ~c
    ~inject:(fun t u -> Powergrid.Mna.inject_into a t u)
    ~x0
    ~on_step:(fun k _t x ->
      results.(k) <- x.(0);
      final := x.(0));
  let t_end = float_of_int steps *. h in
  let expected = v0 *. (1.0 -. exp (-.t_end /. tau)) in
  Helpers.check_float ~eps:0.01 "BE matches analytic charge curve" expected !final;
  (* Midpoint check too. *)
  let mid = steps / 2 in
  let t_mid = float_of_int mid *. h in
  Helpers.check_float ~eps:0.01 "midpoint" (v0 *. (1.0 -. exp (-.t_mid /. tau))) results.(mid)

let test_trapezoidal_more_accurate () =
  let r = 10.0 and cap = 1e-12 and v0 = 1.0 in
  let circuit =
    Powergrid.Circuit.make ~num_nodes:1 ~resistors:[]
      ~capacitors:
        [ { Powergrid.Circuit.cnode1 = 0; cnode2 = Powergrid.Circuit.ground; farads = cap;
            ckind = Powergrid.Circuit.Fixed } ]
      ~isources:[]
      ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = v0; series_ohms = r } ] ()
  in
  let a = Powergrid.Mna.assemble circuit in
  let g = Powergrid.Mna.g_total a and c = Powergrid.Mna.c_total a in
  let tau = r *. cap in
  let h = tau /. 10.0 in
  (* coarse step to expose scheme error *)
  let steps = 20 in
  let run scheme =
    let final = ref 0.0 in
    let cfg = { (Powergrid.Transient.default_config ~h ~steps) with Powergrid.Transient.scheme } in
    Powergrid.Transient.run cfg ~g ~c
      ~inject:(fun t u -> Powergrid.Mna.inject_into a t u)
      ~x0:[| 0.0 |]
      ~on_step:(fun _ _ x -> final := x.(0));
    !final
  in
  let expected = v0 *. (1.0 -. exp (-.(float_of_int steps *. h) /. tau)) in
  let be = run Powergrid.Transient.Backward_euler in
  let tr = run Powergrid.Transient.Trapezoidal in
  Alcotest.(check bool)
    (Printf.sprintf "TR error %.2e <= BE error %.2e" (Float.abs (tr -. expected))
       (Float.abs (be -. expected)))
    true
    (Float.abs (tr -. expected) <= Float.abs (be -. expected))

let test_transient_settles_to_dc () =
  (* With DC sources the transient must converge to the DC solution. *)
  let a = Powergrid.Mna.assemble (divider_circuit ()) in
  let dc = Powergrid.Dc.solve a in
  let g = Powergrid.Mna.g_total a and c = Powergrid.Mna.c_total a in
  let last = Array.make 2 0.0 in
  let cfg = Powergrid.Transient.default_config ~h:1e-11 ~steps:300 in
  Powergrid.Transient.run cfg ~g ~c
    ~inject:(fun t u -> Powergrid.Mna.inject_into a t u)
    ~x0:[| 0.0; 0.0 |]
    ~on_step:(fun _ _ x -> Array.blit x 0 last 0 2);
  Helpers.check_vec ~eps:1e-6 "settles to DC" dc last

let test_metrics () =
  let v = [| 1.2; 1.1; 1.15 |] in
  let drop, node = Powergrid.Metrics.max_drop ~vdd:1.2 v in
  Helpers.check_float ~eps:1e-12 "max drop" 0.1 drop;
  Alcotest.(check int) "worst node" 1 node;
  Helpers.check_float "drop percent" 25.0 (Powergrid.Metrics.drop_percent ~vdd:1.2 0.3);
  let worst = Powergrid.Metrics.worst_nodes ~vdd:1.2 v 2 in
  Alcotest.(check (list int)) "worst two" [ 1; 2 ] (List.map fst worst);
  Helpers.check_vec ~eps:1e-12 "drops" [| 0.0; 0.1; 0.05 |]
    (Powergrid.Metrics.drops ~vdd:1.2 v)

let test_transient_grid_runs () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let cfg = Powergrid.Transient.default_config ~h:0.125e-9 ~steps:16 in
  let min_v = ref infinity in
  Powergrid.Transient.run_circuit cfg a ~on_step:(fun _ _ x ->
      Array.iter (fun v -> if v < !min_v then min_v := v) x);
  Alcotest.(check bool)
    (Printf.sprintf "worst transient voltage %.3f within (0.85, 1.0] VDD" (!min_v /. vdd))
    true
    (!min_v > 0.85 *. vdd && !min_v <= vdd +. 1e-9)

let suite =
  [
    Alcotest.test_case "dc divider" `Quick test_dc_divider;
    Alcotest.test_case "full MNA = Norton" `Quick test_full_mna_matches_norton;
    Alcotest.test_case "full MNA ideal source" `Quick test_full_mna_ideal_source;
    Alcotest.test_case "mna split parts" `Quick test_mna_split_parts;
    Alcotest.test_case "injection signs" `Quick test_inject_sign;
    Alcotest.test_case "grid dc drop bounded" `Quick test_grid_dc_drop_bounded;
    Alcotest.test_case "rc charge analytic" `Quick test_transient_rc_decay;
    Alcotest.test_case "trapezoidal accuracy" `Quick test_trapezoidal_more_accurate;
    Alcotest.test_case "transient settles to dc" `Quick test_transient_settles_to_dc;
    Alcotest.test_case "ir-drop metrics" `Quick test_metrics;
    Alcotest.test_case "grid transient bounded" `Quick test_transient_grid_runs;
  ]

let test_run_full_matches_nodal_for_rc () =
  (* For an RC grid with resistive pads, the full-MNA transient must agree
     with the Norton nodal transient on node voltages. *)
  let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
  let a = Powergrid.Mna.assemble circuit in
  let sys = Powergrid.Mna.Full.assemble circuit in
  let n = a.Powergrid.Mna.n in
  let cfg = Powergrid.Transient.default_config ~h:0.125e-9 ~steps:8 in
  let nodal = Array.make ((8 + 1) * n) 0.0 in
  Powergrid.Transient.run_circuit cfg a ~on_step:(fun k _ x -> Array.blit x 0 nodal (k * n) n);
  let full = Array.make ((8 + 1) * n) 0.0 in
  Powergrid.Transient.run_full cfg sys ~on_step:(fun k _ x -> Array.blit x 0 full (k * n) n);
  for k = 1 to 8 do
    let x1 = Array.sub nodal (k * n) n and x2 = Array.sub full (k * n) n in
    Alcotest.(check bool)
      (Printf.sprintf "step %d agrees" k)
      true
      (Linalg.Vec.approx_equal ~tol:1e-8 x1 x2)
  done

(* --- streaming assembly ------------------------------------------------- *)

let test_stream_mna_matches_assemble () =
  (* The streaming path must produce the same system as the circuit
     path.  Both sum duplicate stamps in emission order, but in opposite
     element orders (construction order, and [generate]'s prepended
     arrays); on this grid every duplicate sum gives the same bits either
     way, so the matrices are bitwise equal.  The pad injection,
     waveforms and regions are bitwise identical on every grid. *)
  let spec = Helpers.small_grid_spec in
  let reference = Powergrid.Mna.assemble (Powergrid.Grid_gen.generate spec) in
  let streamed = Powergrid.Grid_gen.stream_mna spec in
  Alcotest.(check int) "n" reference.Powergrid.Mna.n streamed.Powergrid.Mna.n;
  Helpers.check_sparse_bitwise "g_wire" reference.Powergrid.Mna.g_wire
    streamed.Powergrid.Mna.g_wire;
  Helpers.check_sparse_bitwise "g_pad" reference.Powergrid.Mna.g_pad streamed.Powergrid.Mna.g_pad;
  Helpers.check_sparse_bitwise "c_gate" reference.Powergrid.Mna.c_gate
    streamed.Powergrid.Mna.c_gate;
  Helpers.check_sparse_bitwise "c_fixed" reference.Powergrid.Mna.c_fixed
    streamed.Powergrid.Mna.c_fixed;
  Helpers.check_vec ~eps:0.0 "u_pad bitwise" reference.Powergrid.Mna.u_pad
    streamed.Powergrid.Mna.u_pad;
  let ri = reference.Powergrid.Mna.isources and si = streamed.Powergrid.Mna.isources in
  Alcotest.(check int) "isource count" (Array.length ri) (Array.length si) ;
  Array.iteri
    (fun k (r : Powergrid.Circuit.current_source) ->
      let s = si.(k) in
      Alcotest.(check int) "inode" r.Powergrid.Circuit.inode s.Powergrid.Circuit.inode;
      Alcotest.(check int) "region" r.Powergrid.Circuit.region s.Powergrid.Circuit.region;
      List.iter
        (fun t ->
          Helpers.check_float ~eps:0.0 "waveform bitwise"
            (Powergrid.Waveform.eval r.Powergrid.Circuit.wave t)
            (Powergrid.Waveform.eval s.Powergrid.Circuit.wave t))
        [ 0.0; 0.3e-9; 1.1e-9; 4.7e-9 ])
    ri

let test_stream_mna_rejects_ideal_pads () =
  let spec = { Helpers.small_grid_spec with Powergrid.Grid_spec.pad_res = 0.0 } in
  try
    ignore (Powergrid.Grid_gen.stream_mna spec);
    Alcotest.fail "pad_res = 0 accepted"
  with Invalid_argument _ -> ()

(* --- one assembly path ---------------------------------------------------- *)

let test_conductance_stamping () =
  let ground = Powergrid.Circuit.ground in
  let a =
    Linalg.Sparse.of_stamps ~nrows:3 ~ncols:3 (fun stamp ->
        Powergrid.Mna.stamp_conductance stamp 0 1 2.0;
        Powergrid.Mna.stamp_conductance stamp 1 ground 3.0;
        Powergrid.Mna.stamp_conductance stamp ground ground 7.0)
  in
  Helpers.check_dense "stamped"
    (Linalg.Dense.of_arrays
       [| [| 2.0; -2.0; 0.0 |]; [| -2.0; 5.0; 0.0 |]; [| 0.0; 0.0; 0.0 |] |])
    (Linalg.Sparse.to_dense a)

(* Every assembly the library runs — [Mna.assemble]'s four matrices, the
   Grouped_wires stripes and the spatial model's region matrices — is
   bitwise the old triplet builder's ([Helpers.Reference_builder]) on
   generated grids and on their netlist round trips. *)
let test_assembly_matches_reference () =
  List.iter
    (fun nodes ->
      let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
      let generated = Powergrid.Grid_gen.generate spec in
      let round_trip =
        (Powergrid.Netlist.parse_string (Powergrid.Netlist.to_string generated))
          .Powergrid.Netlist.circuit
      in
      List.iter
        (fun (source, (circuit : Powergrid.Circuit.t)) ->
          let what name = Printf.sprintf "%d-node %s: %s" nodes source name in
          let mna = Powergrid.Mna.assemble circuit in
          let g_wire, g_pad, c_gate, c_fixed = Helpers.reference_mna circuit in
          Helpers.check_sparse_bitwise (what "g_wire") g_wire mna.Powergrid.Mna.g_wire;
          Helpers.check_sparse_bitwise (what "g_pad") g_pad mna.Powergrid.Mna.g_pad;
          Helpers.check_sparse_bitwise (what "c_gate") c_gate mna.Powergrid.Mna.c_gate;
          Helpers.check_sparse_bitwise (what "c_fixed") c_fixed mna.Powergrid.Mna.c_fixed;
          let n = circuit.num_nodes in
          let groupings =
            [
              ("stripe", 4, fun node -> Int.min 3 (node * 4 / n));
              ( "region",
                spec.Powergrid.Grid_spec.regions_x * spec.Powergrid.Grid_spec.regions_y,
                Powergrid.Grid_gen.region_of_node spec );
            ]
          in
          List.iter
            (fun (kind, groups, group_of_node) ->
              let expected = Helpers.reference_wire_groups circuit ~groups group_of_node in
              let got = Powergrid.Mna.wire_groups circuit ~groups group_of_node in
              Array.iteri
                (fun g m -> Helpers.check_sparse_bitwise (what (Printf.sprintf "%s %d" kind g)) m got.(g))
                expected)
            groupings)
        [ ("generated", generated); ("round trip", round_trip) ])
    [ 160; 600; 3000 ]

(* Duplicate stamps sum in emission order.  At node n1 the two 1e16-ohm
   resistors come first: (1e-16 + 1e-16) + 1 rounds up, where
   (1 + 1e-16) + 1e-16 rounds back to 1. *)
let test_duplicates_sum_in_emission_order () =
  let parsed =
    Powergrid.Netlist.parse_string
      "R1 n1 0 1e16\nR2 n1 0 1e16\nR3 n1 0 1\nV1 n1 0 1 RS=1\nI1 n1 0 1m\n"
  in
  let g = [ 1.0 /. 1e16; 1.0 /. 1e16; 1.0 ] in
  let emission = List.fold_left ( +. ) 0.0 g in
  let reversed = List.fold_left ( +. ) 0.0 (List.rev g) in
  Alcotest.(check bool) "the sum depends on the order" false (Float.equal emission reversed);
  let mna = Powergrid.Mna.assemble parsed.Powergrid.Netlist.circuit in
  Alcotest.(check int64) "g_wire diagonal is the emission-order sum"
    (Int64.bits_of_float emission)
    (Int64.bits_of_float (Linalg.Sparse.get mna.Powergrid.Mna.g_wire 0 0))

let test_layer_shrink_exact () =
  let spec =
    { Helpers.small_grid_spec with Powergrid.Grid_spec.rows = 729; cols = 729; coarsening = 3 }
  in
  (* Exact powers, no float rounding... *)
  Alcotest.(check int) "3^0" 1 (Powergrid.Grid_spec.layer_shrink spec 0);
  Alcotest.(check int) "3^4" 81 (Powergrid.Grid_spec.layer_shrink spec 4);
  Alcotest.(check int) "3^6" 729 (Powergrid.Grid_spec.layer_shrink spec 6);
  (* ...and saturation at the bottom-mesh side instead of overflow. *)
  Alcotest.(check int) "saturates" 729 (Powergrid.Grid_spec.layer_shrink spec 64)

let suite =
  suite
  @ [
      Alcotest.test_case "run_full = nodal on RC" `Quick test_run_full_matches_nodal_for_rc;
      Alcotest.test_case "stream_mna = assemble" `Quick test_stream_mna_matches_assemble;
      Alcotest.test_case "stream_mna ideal pads" `Quick test_stream_mna_rejects_ideal_pads;
      Alcotest.test_case "layer_shrink exact" `Quick test_layer_shrink_exact;
      Alcotest.test_case "conductance stamping" `Quick test_conductance_stamping;
      Alcotest.test_case "assembly is bitwise the triplet reference" `Quick
        test_assembly_matches_reference;
      Alcotest.test_case "duplicates sum in emission order" `Quick
        test_duplicates_sum_in_emission_order;
    ]
