type t = {
  n : int;
  g_wire : Linalg.Sparse.t;
  g_pad : Linalg.Sparse.t;
  c_gate : Linalg.Sparse.t;
  c_fixed : Linalg.Sparse.t;
  u_pad : Linalg.Vec.t;
  isources : Circuit.current_source array;
}

(* The stamps of a two-terminal conductance [g] between [n1] and [n2];
   the ground node has no row or column. *)
let stamp_conductance stamp n1 n2 g =
  if n1 <> Circuit.ground then stamp n1 n1 g;
  if n2 <> Circuit.ground then stamp n2 n2 g;
  if n1 <> Circuit.ground && n2 <> Circuit.ground then begin
    stamp n1 n2 (-.g);
    stamp n2 n1 (-.g)
  end

let stamp_resistor stamp (r : Circuit.resistor) =
  stamp_conductance stamp r.rnode1 r.rnode2 (1.0 /. r.ohms)

let is_wire (r : Circuit.resistor) =
  match r.rkind with Circuit.Metal | Circuit.Via -> true | Circuit.Package -> false

(* Every matrix below is one [of_stamps] pass over the element arrays, in
   array order, so duplicate stamps sum in that order. *)
let square n emit = Linalg.Sparse.of_stamps ~nrows:n ~ncols:n emit

let wire_groups (circuit : Circuit.t) ~groups group_of_node =
  let members = Array.make groups [] in
  for k = Array.length circuit.resistors - 1 downto 0 do
    let r = circuit.resistors.(k) in
    if is_wire r then begin
      let g = group_of_node (if r.rnode1 >= 0 then r.rnode1 else r.rnode2) in
      members.(g) <- r :: members.(g)
    end
  done;
  Array.map
    (fun rs -> square circuit.num_nodes (fun stamp -> List.iter (stamp_resistor stamp) rs))
    members

let assemble (circuit : Circuit.t) =
  if Array.length circuit.inductors > 0 then
    invalid_arg "Mna.assemble: circuit has inductors; use Mna.Full.assemble";
  if Array.exists (fun (v : Circuit.vsource) -> v.series_ohms <= 0.0) circuit.vsources then
    invalid_arg "Mna.assemble: ideal pad (zero series resistance); use Mna.Full.assemble";
  let n = circuit.num_nodes in
  let resistors keep stamp =
    Array.iter (fun r -> if keep r then stamp_resistor stamp r) circuit.resistors
  in
  let capacitors keep stamp =
    Array.iter
      (fun (c : Circuit.capacitor) ->
        if keep c.ckind then stamp_conductance stamp c.cnode1 c.cnode2 c.farads)
      circuit.capacitors
  in
  let is_gate = function Circuit.Gate -> true | Circuit.Fixed -> false in
  let g_pad =
    square n (fun stamp ->
        resistors (fun r -> not (is_wire r)) stamp;
        Array.iter
          (fun (v : Circuit.vsource) -> stamp v.vnode v.vnode (1.0 /. v.series_ohms))
          circuit.vsources)
  in
  let u_pad = Linalg.Vec.create n in
  Array.iter
    (fun (v : Circuit.vsource) ->
      let g = 1.0 /. v.series_ohms in
      u_pad.(v.vnode) <- u_pad.(v.vnode) +. (g *. v.volts))
    circuit.vsources;
  {
    n;
    g_wire = square n (resistors is_wire);
    g_pad;
    c_gate = square n (capacitors is_gate);
    c_fixed = square n (capacitors (fun k -> not (is_gate k)));
    u_pad;
    isources = circuit.isources;
  }

let g_total a = Linalg.Sparse.add a.g_wire a.g_pad

let c_total a = Linalg.Sparse.add a.c_gate a.c_fixed

let drain_into a t u =
  Array.iter
    (fun (src : Circuit.current_source) ->
      u.(src.inode) <- u.(src.inode) -. Waveform.eval src.wave t)
    a.isources

let inject_into a t u =
  Array.blit a.u_pad 0 u 0 a.n;
  drain_into a t u

let inject a t =
  let u = Linalg.Vec.create a.n in
  inject_into a t u;
  u

module Full = struct
  type system = {
    dim : int;
    nodes : int;
    a : Linalg.Sparse.t;
    c : Linalg.Sparse.t;
    rhs : float -> Linalg.Vec.t;
  }

  let assemble (circuit : Circuit.t) =
    let n = circuit.num_nodes in
    let nv = Array.length circuit.vsources in
    let nl = Array.length circuit.inductors in
    let dim = n + nv + nl in
    let a =
      square dim (fun stamp ->
          Array.iter (stamp_resistor stamp) circuit.resistors;
          (* Branch row for pad k: v(node) - Rs * i_k = VDD; column couples
             the branch current into the node's KCL. *)
          Array.iteri
            (fun k (v : Circuit.vsource) ->
              let bk = n + k in
              stamp v.vnode bk 1.0;
              stamp bk v.vnode 1.0;
              if v.series_ohms > 0.0 then stamp bk bk (-.v.series_ohms))
            circuit.vsources;
          (* Inductor branch k: KCL coupling at both nodes and the branch
             equation v1 - v2 - L di/dt = 0 (the -L lands in the C matrix). *)
          Array.iteri
            (fun k (l : Circuit.inductor) ->
              let bk = n + nv + k in
              if l.lnode1 <> Circuit.ground then begin
                stamp l.lnode1 bk 1.0;
                stamp bk l.lnode1 1.0
              end;
              if l.lnode2 <> Circuit.ground then begin
                stamp l.lnode2 bk (-1.0);
                stamp bk l.lnode2 (-1.0)
              end)
            circuit.inductors)
    in
    let c =
      square dim (fun stamp ->
          Array.iter
            (fun (c : Circuit.capacitor) -> stamp_conductance stamp c.cnode1 c.cnode2 c.farads)
            circuit.capacitors;
          Array.iteri
            (fun k (l : Circuit.inductor) -> stamp (n + nv + k) (n + nv + k) (-.l.henries))
            circuit.inductors)
    in
    let isources = circuit.isources in
    let vsources = circuit.vsources in
    let rhs t =
      let u = Linalg.Vec.create dim in
      Array.iter
        (fun (src : Circuit.current_source) ->
          u.(src.inode) <- u.(src.inode) -. Waveform.eval src.wave t)
        isources;
      Array.iteri (fun k (v : Circuit.vsource) -> u.(n + k) <- v.volts) vsources;
      u
    in
    { dim; nodes = n; a; c; rhs }
end
