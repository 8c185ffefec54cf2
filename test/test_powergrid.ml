(* Waveforms, circuits, grid generation, netlist round-trip. *)

let test_waveform_dc () =
  Helpers.check_float "dc" 3.0 (Powergrid.Waveform.eval (Powergrid.Waveform.Dc 3.0) 42.0)

let test_waveform_pulse () =
  let p =
    Powergrid.Waveform.Pulse
      { base = 0.0; peak = 1.0; delay = 1.0; rise = 1.0; width = 2.0; fall = 1.0; period = 0.0 }
  in
  Helpers.check_float "before delay" 0.0 (Powergrid.Waveform.eval p 0.5);
  Helpers.check_float "mid rise" 0.5 (Powergrid.Waveform.eval p 1.5);
  Helpers.check_float "plateau" 1.0 (Powergrid.Waveform.eval p 3.0);
  Helpers.check_float "mid fall" 0.5 (Powergrid.Waveform.eval p 4.5);
  Helpers.check_float "after" 0.0 (Powergrid.Waveform.eval p 6.0);
  Helpers.check_float "peak" 1.0 (Powergrid.Waveform.peak p)

let test_waveform_pulse_periodic () =
  let p =
    Powergrid.Waveform.Pulse
      { base = 0.0; peak = 2.0; delay = 0.0; rise = 1.0; width = 1.0; fall = 1.0; period = 4.0 }
  in
  Helpers.check_float "cycle 0" 1.0 (Powergrid.Waveform.eval p 0.5);
  Helpers.check_float "cycle 3 same phase" 1.0 (Powergrid.Waveform.eval p 12.5)

let test_waveform_pwl () =
  let w = Powergrid.Waveform.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, 0.0) |] in
  Helpers.check_float "interp up" 1.0 (Powergrid.Waveform.eval w 0.5);
  Helpers.check_float "knot" 2.0 (Powergrid.Waveform.eval w 1.0);
  Helpers.check_float "interp down" 1.0 (Powergrid.Waveform.eval w 2.0);
  Helpers.check_float "hold right" 0.0 (Powergrid.Waveform.eval w 10.0);
  Helpers.check_float "hold left" 0.0 (Powergrid.Waveform.eval w (-1.0))

let test_waveform_scale () =
  let w = Powergrid.Waveform.Pwl [| (0.0, 1.0); (1.0, 3.0) |] in
  Helpers.check_float "scaled" (-1.0) (Powergrid.Waveform.eval (Powergrid.Waveform.scale (-0.5) w) 0.5)

let test_random_activity () =
  let rng = Prob.Rng.create ~seed:1L () in
  let w = Powergrid.Waveform.random_activity rng ~peak:0.01 ~period:1e-9 ~duty:1.0 ~cycles:4 in
  (* duty = 1: every cycle fires; peak within bounds; zero at cycle edges. *)
  Helpers.check_float "starts at zero" 0.0 (Powergrid.Waveform.eval w 0.0);
  let p = Powergrid.Waveform.peak w in
  Alcotest.(check bool) "peak within [0.3, 1] x requested" true (p >= 0.003 && p <= 0.01);
  let quarter = Powergrid.Waveform.eval w 0.25e-9 in
  Alcotest.(check bool) "pulse present at quarter cycle" true (quarter > 0.0);
  (* Determinism given the seed. *)
  let rng2 = Prob.Rng.create ~seed:1L () in
  let w2 = Powergrid.Waveform.random_activity rng2 ~peak:0.01 ~period:1e-9 ~duty:1.0 ~cycles:4 in
  Helpers.check_float "deterministic" (Powergrid.Waveform.eval w 0.37e-9)
    (Powergrid.Waveform.eval w2 0.37e-9)

let test_circuit_validation () =
  let r ohms = { Powergrid.Circuit.rnode1 = 0; rnode2 = 1; ohms; rkind = Powergrid.Circuit.Metal } in
  let v = { Powergrid.Circuit.vnode = 0; volts = 1.0; series_ohms = 0.1 } in
  let ok =
    Powergrid.Circuit.make ~num_nodes:2 ~resistors:[ r 1.0 ] ~capacitors:[] ~isources:[]
      ~vsources:[ v ] ()
  in
  Alcotest.(check int) "node count" 2 (Powergrid.Circuit.node_count ok);
  let fails f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative resistance rejected" true
    (fails (fun () ->
         Powergrid.Circuit.make ~num_nodes:2 ~resistors:[ r (-1.0) ] ~capacitors:[] ~isources:[]
           ~vsources:[ v ] ()));
  Alcotest.(check bool) "no pads rejected" true
    (fails (fun () ->
         Powergrid.Circuit.make ~num_nodes:2 ~resistors:[ r 1.0 ] ~capacitors:[] ~isources:[]
           ~vsources:[] ()));
  Alcotest.(check bool) "out-of-range node rejected" true
    (fails (fun () ->
         Powergrid.Circuit.make ~num_nodes:1 ~resistors:[ r 1.0 ] ~capacitors:[] ~isources:[]
           ~vsources:[ v ] ()))

let test_grid_gen_counts () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  Alcotest.(check int) "node count matches spec"
    (Powergrid.Grid_spec.node_count spec)
    (Powergrid.Circuit.node_count circuit);
  (* bottom 8x8 + top 2x2 (8/3 -> 2): *)
  Alcotest.(check int) "two-layer node count" ((8 * 8) + (2 * 2))
    (Powergrid.Circuit.node_count circuit);
  Alcotest.(check bool) "has pads" true (Array.length circuit.Powergrid.Circuit.vsources > 0);
  Alcotest.(check bool) "has sources" true (Array.length circuit.Powergrid.Circuit.isources > 0);
  (* every bottom node carries gate + fixed cap *)
  Alcotest.(check int) "cap count" (2 * 8 * 8) (Array.length circuit.Powergrid.Circuit.capacitors)

let test_grid_gen_determinism () =
  let spec = Helpers.small_grid_spec in
  let c1 = Powergrid.Grid_gen.generate spec in
  let c2 = Powergrid.Grid_gen.generate spec in
  Alcotest.(check string) "same structure" (Powergrid.Circuit.stats c1) (Powergrid.Circuit.stats c2);
  let w1 = (c1.Powergrid.Circuit.isources.(0)).Powergrid.Circuit.wave in
  let w2 = (c2.Powergrid.Circuit.isources.(0)).Powergrid.Circuit.wave in
  Helpers.check_float "same waveforms" (Powergrid.Waveform.eval w1 0.3e-9)
    (Powergrid.Waveform.eval w2 0.3e-9)

let test_node_addressing () =
  let spec = Helpers.small_grid_spec in
  Alcotest.(check int) "origin" 0 (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:0 ~col:0);
  Alcotest.(check int) "row major" 9 (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:1 ~col:1);
  Alcotest.(check int) "layer offset" 64 (Powergrid.Grid_gen.node_at spec ~layer:1 ~row:0 ~col:0);
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:100 ~col:0);
       false
     with Invalid_argument _ -> true)

let test_regions () =
  let spec = { Helpers.small_grid_spec with Powergrid.Grid_spec.regions_x = 2; regions_y = 2 } in
  let r00 = Powergrid.Grid_gen.region_of_node spec (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:0 ~col:0) in
  let r01 = Powergrid.Grid_gen.region_of_node spec (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:0 ~col:7) in
  let r10 = Powergrid.Grid_gen.region_of_node spec (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:7 ~col:0) in
  let r11 = Powergrid.Grid_gen.region_of_node spec (Powergrid.Grid_gen.node_at spec ~layer:0 ~row:7 ~col:7) in
  Alcotest.(check (list int)) "four distinct regions" [ 0; 1; 2; 3 ]
    (List.sort_uniq compare [ r00; r01; r10; r11 ])

let test_scale_to_nodes () =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 5000 in
  let n = Powergrid.Grid_spec.node_count spec in
  Alcotest.(check bool) (Printf.sprintf "node count %d near 5000" n) true
    (n > 3500 && n < 6500)

let test_parse_value () =
  Helpers.check_float "plain" 1.5 (Powergrid.Netlist.parse_value "1.5");
  Helpers.check_float "kilo" 2000.0 (Powergrid.Netlist.parse_value "2k");
  Helpers.check_float "milli" 0.003 (Powergrid.Netlist.parse_value "3m");
  Helpers.check_float "micro" 4e-6 (Powergrid.Netlist.parse_value "4u");
  Helpers.check_float "nano" 5e-9 (Powergrid.Netlist.parse_value "5n");
  Helpers.check_float "pico" 6e-12 (Powergrid.Netlist.parse_value "6p");
  Helpers.check_float "femto" 7e-15 (Powergrid.Netlist.parse_value "7f");
  Helpers.check_float "meg" 8e6 (Powergrid.Netlist.parse_value "8meg");
  Helpers.check_float "exponent" 120.0 (Powergrid.Netlist.parse_value "1.2e2");
  Helpers.check_float "suffix unit" 9.0 (Powergrid.Netlist.parse_value "9ohm")

let sample_netlist =
  {|* test grid
R1 a b 1.0 KIND=metal
R2 b 0 2k KIND=via
C1 a 0 1p KIND=gate
C2 b 0 2p
I1 a 0 PULSE(0 1m 0 0.1n 0.1n 0.3n 1n)
I2 b 0 5m
V1 a 0 1.2 RS=0.1
.end
|}

let test_netlist_parse () =
  let parsed = Powergrid.Netlist.parse_string sample_netlist in
  let c = parsed.Powergrid.Netlist.circuit in
  Alcotest.(check int) "nodes" 2 (Powergrid.Circuit.node_count c);
  Alcotest.(check int) "resistors" 2 (Array.length c.Powergrid.Circuit.resistors);
  Alcotest.(check int) "caps" 2 (Array.length c.Powergrid.Circuit.capacitors);
  Alcotest.(check int) "isources" 2 (Array.length c.Powergrid.Circuit.isources);
  Alcotest.(check int) "vsources" 1 (Array.length c.Powergrid.Circuit.vsources);
  Helpers.check_float "kilo parsed" 2000.0 (c.Powergrid.Circuit.resistors.(1)).Powergrid.Circuit.ohms;
  Alcotest.(check bool) "via kind" true
    ((c.Powergrid.Circuit.resistors.(1)).Powergrid.Circuit.rkind = Powergrid.Circuit.Via);
  Alcotest.(check bool) "gate kind" true
    ((c.Powergrid.Circuit.capacitors.(0)).Powergrid.Circuit.ckind = Powergrid.Circuit.Gate)

let test_netlist_roundtrip () =
  let parsed = Powergrid.Netlist.parse_string sample_netlist in
  let text = Powergrid.Netlist.to_string parsed.Powergrid.Netlist.circuit in
  let reparsed = Powergrid.Netlist.parse_string text in
  let c1 = parsed.Powergrid.Netlist.circuit and c2 = reparsed.Powergrid.Netlist.circuit in
  Alcotest.(check string) "structure preserved" (Powergrid.Circuit.stats c1)
    (Powergrid.Circuit.stats c2);
  (* Element values preserved. *)
  Array.iteri
    (fun i (r1 : Powergrid.Circuit.resistor) ->
      Helpers.check_float "ohms preserved" r1.Powergrid.Circuit.ohms
        (c2.Powergrid.Circuit.resistors.(i)).Powergrid.Circuit.ohms)
    c1.Powergrid.Circuit.resistors

let test_netlist_grid_roundtrip () =
  let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
  let text = Powergrid.Netlist.to_string circuit in
  let reparsed = (Powergrid.Netlist.parse_string text).Powergrid.Netlist.circuit in
  Alcotest.(check string) "generated grid round-trips" (Powergrid.Circuit.stats circuit)
    (Powergrid.Circuit.stats reparsed);
  (* Waveforms survive (PWL exact round-trip). *)
  let w1 = (circuit.Powergrid.Circuit.isources.(0)).Powergrid.Circuit.wave in
  let w2 = (reparsed.Powergrid.Circuit.isources.(0)).Powergrid.Circuit.wave in
  List.iter
    (fun t ->
      Helpers.check_close ~rtol:1e-6 "waveform value" (Powergrid.Waveform.eval w1 t)
        (Powergrid.Waveform.eval w2 t))
    [ 0.0; 0.2e-9; 0.7e-9; 1.3e-9 ]

(* The writer's bytes, pinned by digest: the benchmark's netlists and
   every cache key over a netlist's contents depend on them. *)
let pinned_netlist_text =
  {|* pinned sources
V1 a 0 1.2 RS=0.05
L1 a b 2.5n
R1 b c 0.37 KIND=metal
R2 c 0 1.1k KIND=via
R3 a c 1e-3 KIND=package
C1 b 0 1.25p KIND=gate
C2 c 0 3.3f
I1 b 0 2m REGION=1
I2 c 0 PWL(0 0 1e-10 0.004 3.7e-10 1.234567891e-3 1n 0) REGION=0
I3 c 0 PULSE(0 1m 0 0.1n 0.1n 0.3n 1n)
.end
|}

let test_netlist_writer_pinned () =
  let generated nodes =
    let spec =
      { (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes) with
        Powergrid.Grid_spec.seed = 1L }
    in
    Powergrid.Netlist.to_string ~title:(Powergrid.Grid_spec.describe spec)
      (Powergrid.Grid_gen.generate spec)
  in
  let parsed =
    Powergrid.Netlist.to_string
      (Powergrid.Netlist.parse_string pinned_netlist_text).Powergrid.Netlist.circuit
  in
  List.iter
    (fun (what, want, text) ->
      Alcotest.(check string) what want (Digest.to_hex (Digest.string text)))
    [
      ("600-node grid", "35fd480dc720144f44a3a6127d633243", generated 600);
      ("3,000-node grid", "b72518dad48613e80de677b9e336d500", generated 3000);
      ("parsed sources", "64e7944f75cf60104691e69fb5c1d14b", parsed);
    ]

let test_netlist_errors () =
  let bad text =
    try
      ignore (Powergrid.Netlist.parse_string text);
      false
    with Powergrid.Netlist.Parse_error _ -> true
  in
  Alcotest.(check bool) "garbage card" true (bad "X1 a b 1.0\nV1 a 0 1 RS=1\n");
  Alcotest.(check bool) "floating current source" true (bad "I1 a b 1m\nV1 a 0 1 RS=1\n");
  Alcotest.(check bool) "bad waveform" true (bad "I1 a 0 TRI(1 2)\nV1 a 0 1 RS=1\n");
  Alcotest.(check bool) "unclosed waveform" true (bad "I1 a 0 PULSE(0 1m\nV1 a 0 1 RS=1\n");
  Alcotest.(check bool) "reversed parentheses" true (bad "I1 a 0 )PULSE(\nV1 a 0 1 RS=1\n");
  Alcotest.(check bool) "non-integer region" true (bad "I1 a 0 1m REGION=x\nV1 a 0 1 RS=1\n")

let suite =
  [
    Alcotest.test_case "waveform dc" `Quick test_waveform_dc;
    Alcotest.test_case "waveform pulse" `Quick test_waveform_pulse;
    Alcotest.test_case "waveform pulse periodic" `Quick test_waveform_pulse_periodic;
    Alcotest.test_case "waveform pwl" `Quick test_waveform_pwl;
    Alcotest.test_case "waveform scale" `Quick test_waveform_scale;
    Alcotest.test_case "random activity" `Quick test_random_activity;
    Alcotest.test_case "circuit validation" `Quick test_circuit_validation;
    Alcotest.test_case "grid generation counts" `Quick test_grid_gen_counts;
    Alcotest.test_case "grid generation determinism" `Quick test_grid_gen_determinism;
    Alcotest.test_case "node addressing" `Quick test_node_addressing;
    Alcotest.test_case "chip regions" `Quick test_regions;
    Alcotest.test_case "scale_to_nodes" `Quick test_scale_to_nodes;
    Alcotest.test_case "netlist value parsing" `Quick test_parse_value;
    Alcotest.test_case "netlist parse" `Quick test_netlist_parse;
    Alcotest.test_case "netlist roundtrip" `Quick test_netlist_roundtrip;
    Alcotest.test_case "generated grid roundtrip" `Quick test_netlist_grid_roundtrip;
    Alcotest.test_case "netlist errors" `Quick test_netlist_errors;
    Alcotest.test_case "netlist writer bytes pinned" `Quick test_netlist_writer_pinned;
  ]
