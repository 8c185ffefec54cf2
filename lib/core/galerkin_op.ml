(* Matrix-free application of the augmented stochastic Galerkin operator
   [At = sum_r T_r (x) A_r] — see galerkin_op.mli.  The coupling tensor is
   flattened per (term, output block) into a run of (input block,
   coefficient) pairs.  An apply makes one pass per term matrix: it first
   mixes the input blocks through the term's coupling rows,
   [m_j = sum_k T_r(j,k) x_k], then accumulates [y_j += A_r m_j] for every
   output block the term reaches in one multi-vector product.  Output
   blocks split across domains (disjoint slices of [y] and of the mixing
   scratch, per-block summation order fixed => bitwise-deterministic
   results for any domain count). *)

type t = {
  n : int;  (* grid dimension per block *)
  size : int;  (* N+1 chaos blocks *)
  domains : int;  (* resolved domain count for apply *)
  terms : Linalg.Sparse.t array;  (* merged per-rank matrices *)
  mix_ptr : int array;  (* (term t, block j) pairs at mix_ptr.(t*size+j) .. next - 1 *)
  mix_in : int array;  (* input block k of each pair *)
  mix_coef : float array;  (* E(psi_r psi_j psi_k) of each pair *)
  term_blocks : int array array;  (* per term: output blocks with a pair, ascending *)
  mixed : float array;  (* size * n: the mixed inputs m_j of the current term *)
  coupling_nnz : int;
}

let merge_terms terms =
  List.fold_left
    (fun acc (r, mat) ->
      match List.assoc_opt r acc with
      | Some m0 -> (r, Linalg.Sparse.add m0 mat) :: List.remove_assoc r acc
      | None -> (r, mat) :: acc)
    [] terms
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let of_terms ?(domains = 0) ~tp ~n terms =
  let size = Polychaos.Basis.size (Polychaos.Triple_product.basis tp) in
  let terms = merge_terms terms in
  List.iter
    (fun (r, mat) ->
      if r < 0 || r >= size then
        invalid_arg (Printf.sprintf "Galerkin_op.of_terms: rank %d outside basis of size %d" r size);
      let nr, nc = Linalg.Sparse.dims mat in
      if nr <> n || nc <> n then
        invalid_arg
          (Printf.sprintf "Galerkin_op.of_terms: term %d is %dx%d, expected %dx%d" r nr nc n n))
    terms;
  let term_mats = Array.of_list (List.map snd terms) in
  let ranks = Array.of_list (List.map fst terms) in
  let nterms = Array.length ranks in
  (* Flatten the nonzero coupling entries, grouped by term, then output
     block j, then input block k. *)
  let mix_ptr = Array.make ((nterms * size) + 1) 0 in
  let ins = ref [] and coefs = ref [] and cnt = ref 0 in
  let term_blocks =
    Array.init nterms (fun ti ->
        let r = ranks.(ti) in
        let blocks = ref [] in
        for j = 0 to size - 1 do
          let before = !cnt in
          for k = 0 to size - 1 do
            let c = Polychaos.Triple_product.value tp r j k in
            if not (Util.Floats.equal_exact c 0.0) then begin
              ins := k :: !ins;
              coefs := c :: !coefs;
              incr cnt
            end
          done;
          if !cnt > before then blocks := j :: !blocks;
          mix_ptr.((ti * size) + j + 1) <- !cnt
        done;
        Array.of_list (List.rev !blocks))
  in
  {
    n;
    size;
    domains = Util.Parallel.resolve domains;
    terms = term_mats;
    mix_ptr;
    mix_in = Array.of_list (List.rev !ins);
    mix_coef = Array.of_list (List.rev !coefs);
    term_blocks;
    mixed = Array.make (size * n) 0.0;
    coupling_nnz = !cnt;
  }

let gt ?domains (m : Stochastic_model.t) =
  of_terms ?domains ~tp:m.Stochastic_model.tp ~n:m.Stochastic_model.n m.Stochastic_model.g_terms

let ct ?domains (m : Stochastic_model.t) =
  of_terms ?domains ~tp:m.Stochastic_model.tp ~n:m.Stochastic_model.n m.Stochastic_model.c_terms

let gt_plus_ct ?domains ~ct_scale (m : Stochastic_model.t) =
  (* Merge the capacitance terms into the conductance list rank-by-rank
     so every rank costs one coupling scan and one kernel per entry. *)
  let merged =
    List.fold_left
      (fun acc (r, mat) ->
        let scaled = Linalg.Sparse.scale ct_scale mat in
        match List.assoc_opt r acc with
        | Some m0 -> (r, Linalg.Sparse.add m0 scaled) :: List.remove_assoc r acc
        | None -> (r, scaled) :: acc)
      m.Stochastic_model.g_terms m.Stochastic_model.c_terms
  in
  of_terms ?domains ~tp:m.Stochastic_model.tp ~n:m.Stochastic_model.n merged

let dim op = op.size * op.n

let block_dim op = op.n

let blocks op = op.size

let coupling_nnz op = op.coupling_nnz

let nnz op =
  Array.fold_left (fun acc a -> acc + Linalg.Sparse.nnz a) op.coupling_nnz op.terms

let domains op = op.domains

let with_domains op d =
  { op with domains = Util.Parallel.resolve d; mixed = Array.make (op.size * op.n) 0.0 }

(* m_j <- sum_k T(j,k) x_k over the pairs [e0, e1) (at least one), in
   ascending k. *)
let[@opera.hot] mix_block op x ~j e0 e1 =
  let n = op.n and m = op.mixed in
  let base = j * n in
  let off = op.mix_in.(e0) * n and c = op.mix_coef.(e0) in
  for i = 0 to n - 1 do
    m.(base + i) <- c *. x.(off + i)
  done;
  for e = e0 + 1 to e1 - 1 do
    let off = op.mix_in.(e) * n and c = op.mix_coef.(e) in
    for i = 0 to n - 1 do
      m.(base + i) <- m.(base + i) +. (c *. x.(off + i))
    done
  done

(* Output blocks [lo, hi): zero them, then for each term mix the blocks
   it reaches and apply its matrix to all of them in one pass. *)
let[@opera.hot] apply_blocks op x y lo hi =
  let n = op.n in
  Array.fill y (lo * n) ((hi - lo) * n) 0.0;
  for t = 0 to Array.length op.terms - 1 do
    let blocks = op.term_blocks.(t) in
    let a = ref 0 in
    while !a < Array.length blocks && blocks.(!a) < lo do
      incr a
    done;
    let b = ref !a in
    while !b < Array.length blocks && blocks.(!b) < hi do
      let j = blocks.(!b) in
      let p = (t * op.size) + j in
      mix_block op x ~j op.mix_ptr.(p) op.mix_ptr.(p + 1);
      incr b
    done;
    Linalg.Sparse.mul_block_acc op.terms.(t) ~x:op.mixed ~y ~cols:blocks ~lo:!a ~hi:!b
  done

let[@opera.hot] apply_into op x y =
  let d = dim op in
  if Array.length x <> d || Array.length y <> d then
    invalid_arg "Galerkin_op.apply_into: dimension mismatch";
  if x == y then invalid_arg "Galerkin_op.apply_into: x and y must be distinct";
  (* opera-lint: race — a chunk owns output blocks [lo, hi) of y and of op.mixed; x is read-only *)
  Util.Parallel.for_chunks ~domains:op.domains op.size (fun ~chunk:_ ~lo ~hi ->
      apply_blocks op x y lo hi)

let apply op x =
  let y = Array.make (dim op) 0.0 in
  apply_into op x y;
  y
