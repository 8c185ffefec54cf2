(* The opera-lint rule catalogue, run over typedtrees.

   Every check keys on the *defining compilation unit* of the resolved
   identifier (from its [Shape.Uid]), not on surface syntax: [=] is
   caught through [let eq = (=)], [Array.unsafe_get] through
   [module A = Array], [Util.Parallel.for_chunks] through any [open].

   R1  exact-float      [=]/[<>]/[==]/[!=] instantiated at [float]
   R2  domain-race      capture analysis of [Util.Parallel] closures
   R3  banned-construct Obj.magic, catch-all try, exit/prints in libs
   R4  unsafe-index     Array/Bytes/String/Float.Array unsafe access
   R5  missing-mli      (engine-level; no typedtree needed)
   R6  determinism      unordered Hashtbl iteration, ambient Random,
                        wall-clock reads outside Util.Timer
   R7  hot-alloc        allocating constructs inside [@opera.hot]
   R8  resource-safety  channel opens that may not close on all paths *)

type rule =
  | Exact_float
  | Domain_race
  | Banned_construct
  | Unsafe_index
  | Missing_mli
  | Determinism
  | Hot_alloc
  | Resource_safety
  | Parse_failure
  | Type_failure

let rule_id = function
  | Exact_float -> "exact-float"
  | Domain_race -> "domain-race"
  | Banned_construct -> "banned-construct"
  | Unsafe_index -> "unsafe-index"
  | Missing_mli -> "missing-mli"
  | Determinism -> "determinism"
  | Hot_alloc -> "hot-alloc"
  | Resource_safety -> "resource-safety"
  | Parse_failure -> "parse-error"
  | Type_failure -> "type-error"

let rule_of_id = function
  | "exact-float" -> Some Exact_float
  | "domain-race" -> Some Domain_race
  | "banned-construct" -> Some Banned_construct
  | "unsafe-index" -> Some Unsafe_index
  | "missing-mli" -> Some Missing_mli
  | "determinism" -> Some Determinism
  | "hot-alloc" -> Some Hot_alloc
  | "resource-safety" -> Some Resource_safety
  | "parse-error" -> Some Parse_failure
  | "type-error" -> Some Type_failure
  | _ -> None

let all_rules =
  [ Exact_float; Domain_race; Banned_construct; Unsafe_index; Missing_mli;
    Determinism; Hot_alloc; Resource_safety; Parse_failure; Type_failure ]

(* Waiver comment key per rule; [None] = unwaivable. *)
let waiver_key = function
  | Exact_float -> Some "exact"
  | Domain_race -> Some "race"
  | Banned_construct -> Some "banned"
  | Unsafe_index -> Some "unsafe"
  | Missing_mli -> Some "mli"
  | Determinism -> Some "order"
  | Hot_alloc -> Some "alloc"
  | Resource_safety -> Some "resource"
  | Parse_failure | Type_failure -> None

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  (* Race findings anchor to the head line of their parallel closure: a
     waiver there covers the whole closure.  0 = no anchor. *)
  anchor : int;
  msg : string;
  waived : bool;
}

type config = {
  unsafe_allowlist : string list; (* basenames allowed to use unsafe_* *)
  clock_allowlist : string list; (* basenames allowed raw wall-clock reads *)
  check_mli : bool;
}

let default_config =
  {
    unsafe_allowlist = [ "sparse.ml"; "sparse_cholesky.ml" ];
    clock_allowlist = [ "timer.ml" ];
    check_mli = true;
  }

(* Bump when rule behavior changes: part of the cache key, so stale
   cached verdicts are never replayed against a newer catalogue. *)
let catalogue_version = 1

let config_digest_input cfg =
  Printf.sprintf "v%d;unsafe=%s;clock=%s;mli=%b" catalogue_version
    (String.concat "," (List.sort compare cfg.unsafe_allowlist))
    (String.concat "," (List.sort compare cfg.clock_allowlist))
    cfg.check_mli

(* ---- typedtree helpers ------------------------------------------------ *)

open Typedtree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let uid_comp_unit (uid : Shape.Uid.t) =
  match uid with
  | Shape.Uid.Compilation_unit s -> Some s
  | Shape.Uid.Item { comp_unit; _ } -> Some comp_unit
  | Shape.Uid.Internal | Shape.Uid.Predef _ -> None

(* (defining unit, last path component) of a resolved identifier. *)
let ident_key (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, vd) -> (
      match uid_comp_unit vd.Types.val_uid with
      | Some cu -> Some (cu, Path.last path, path)
      | None -> None)
  | _ -> None

let key_in table e =
  match ident_key e with
  | Some (cu, name, _) -> List.mem (cu, name) table
  | None -> false

let rec path_mem name = function
  | Path.Pident id -> Ident.name id = name
  | Path.Pdot (p, n) -> n = name || path_mem name p
  | Path.Papply (a, b) -> path_mem name a || path_mem name b
  | Path.Pextra_ty (p, _) -> path_mem name p

(* Expand abbreviations ([type t = float array]) so aliases do not
   hide the underlying type.  Touches the typing environment: only
   sound inside [Lint_typed.analyze]'s continuation, where the
   compiler-libs lock is held. *)
let expand env ty =
  try Ctype.expand_head env ty with Ctype.Cannot_expand | Ctype.Escape _ -> ty

let is_float_ty env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_mutable_ty env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_array
      || Path.same p Predef.path_bytes
      || Path.same p Predef.path_floatarray
      || Path.last p = "ref"
  | _ -> false

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let pattern_var_names pat =
  List.map Ident.unique_name (pat_bound_idents pat)

(* Iterate children of [e], sending every sub-expression to [f]. *)
let iter_children f e =
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ e' -> f e') }
  in
  Tast_iterator.default_iterator.expr it e

(* ---- identifier tables ------------------------------------------------ *)

let stdlib = "Stdlib"

let cmp_ops = [ (stdlib, "="); (stdlib, "<>"); (stdlib, "=="); (stdlib, "!=") ]

let banned_always = [ ("Stdlib__Obj", "magic") ]

let banned_in_lib =
  [
    (stdlib, "exit");
    (stdlib, "print_string");
    (stdlib, "print_endline");
    (stdlib, "print_newline");
    (stdlib, "print_char");
    (stdlib, "print_int");
    (stdlib, "print_float");
    ("Stdlib__Printf", "printf");
    ("Stdlib__Format", "printf");
    ("Stdlib__Format", "print_string");
    ("Stdlib__Format", "print_newline");
  ]

let unsafe_ops =
  List.concat_map
    (fun m -> [ (m, "unsafe_get"); (m, "unsafe_set") ])
    [ "Stdlib__Array"; "Stdlib__Bytes"; "Stdlib__String"; "Stdlib__Float" ]

let hashtbl_unordered =
  List.map
    (fun n -> ("Stdlib__Hashtbl", n))
    [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let sort_calls =
  [
    ("Stdlib__List", "sort"); ("Stdlib__List", "stable_sort");
    ("Stdlib__List", "sort_uniq"); ("Stdlib__List", "fast_sort");
    ("Stdlib__Array", "sort"); ("Stdlib__Array", "stable_sort");
    ("Stdlib__Array", "fast_sort");
  ]

let random_ambient =
  List.map
    (fun n -> ("Stdlib__Random", n))
    [ "self_init"; "bits"; "int"; "full_int"; "int32"; "int64"; "nativeint";
      "float"; "bool"; "bits32"; "bits64" ]

let clock_reads = [ ("Stdlib__Sys", "time"); ("Unix", "gettimeofday"); ("Unix", "time") ]

let parallel_entries =
  [ ("Util__Parallel", "for_chunks"); ("Util__Parallel", "parallel_for") ]

let open_calls =
  [
    (stdlib, "open_in"); (stdlib, "open_in_bin"); (stdlib, "open_in_gen");
    (stdlib, "open_out"); (stdlib, "open_out_bin"); (stdlib, "open_out_gen");
    ("Stdlib__In_channel", "open_bin"); ("Stdlib__In_channel", "open_text");
    ("Stdlib__In_channel", "open_gen");
    ("Stdlib__Out_channel", "open_bin"); ("Stdlib__Out_channel", "open_text");
    ("Stdlib__Out_channel", "open_gen");
    ("Unix", "socket"); ("Unix", "openfile"); ("Unix", "accept");
    ("Unix", "socketpair");
  ]

let close_calls =
  [
    (stdlib, "close_in"); (stdlib, "close_in_noerr");
    (stdlib, "close_out"); (stdlib, "close_out_noerr");
    ("Stdlib__In_channel", "close"); ("Stdlib__In_channel", "close_noerr");
    ("Stdlib__Out_channel", "close"); ("Stdlib__Out_channel", "close_noerr");
    ("Unix", "close");
  ]

let protect_key = [ ("Stdlib__Fun", "protect") ]

let raise_family =
  [ (stdlib, "raise"); (stdlib, "raise_notrace"); (stdlib, "failwith");
    (stdlib, "invalid_arg") ]

(* Closure-taking dispatch scaffolding allowed inside [@opera.hot]
   bodies: the closure is the kernel's own dispatch mechanism, not a
   per-iteration allocation (Parallel entries hoist it per call). *)
let hot_scaffold_units = [ "Util__Parallel"; "Util__Metrics" ]
let hot_scaffold = protect_key

let allocator_calls =
  List.map (fun n -> ("Stdlib__Array", n))
    [ "make"; "create_float"; "init"; "append"; "concat"; "copy"; "sub";
      "of_list"; "to_list"; "make_matrix"; "map"; "mapi"; "map2"; "split";
      "combine"; "of_seq"; "to_seq" ]
  @ List.map (fun n -> ("Stdlib__List", n))
      [ "init"; "map"; "mapi"; "rev"; "rev_append"; "append"; "concat";
        "concat_map"; "filter"; "filter_map"; "sort"; "stable_sort";
        "sort_uniq"; "split"; "combine"; "of_seq"; "to_seq"; "cons" ]
  @ List.map (fun n -> ("Stdlib__String", n))
      [ "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi";
        "split_on_char"; "to_bytes"; "of_bytes" ]
  @ List.map (fun n -> ("Stdlib__Bytes", n))
      [ "create"; "make"; "init"; "sub"; "copy"; "of_string"; "to_string";
        "cat"; "concat"; "extend" ]
  @ List.map (fun n -> ("Stdlib__Buffer", n))
      [ "create"; "contents"; "to_bytes"; "sub" ]
  @ List.map (fun n -> ("Stdlib__Hashtbl", n)) [ "create"; "copy"; "of_seq" ]
  @ [ (stdlib, "ref"); (stdlib, "^"); (stdlib, "@") ]

let alloc_units = [ "Stdlib__Printf"; "Stdlib__Format"; "Stdlib__Seq"; "Stdlib__Scanf" ]

(* ---- pass context ----------------------------------------------------- *)

type ctx = {
  cfg : config;
  file : string; (* as reported in findings *)
  base : string; (* basename, for allowlists *)
  is_exe : bool;
  mutable findings : finding list;
  mutable race_closures : int list; (* head lines of parallel closures *)
}

let report ctx rule ?(anchor = 0) loc fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.findings <-
        { rule; file = ctx.file; line = line_of loc; col = col_of loc;
          anchor; msg; waived = false }
        :: ctx.findings)
    fmt

(* ---- R1/R3/R4/R6: resolved-identifier checks -------------------------- *)

let ident_checks ctx tstr =
  let in_sort = ref false in
  let check_apply e hd args =
    (match ident_key hd with
    | Some (cu, name, path) ->
        let key = (cu, name) in
        (* R1: comparison instantiated at float *)
        if List.mem key cmp_ops && not (has_attr "opera.exact" e.exp_attributes)
        then begin
          let float_arg =
            List.exists
              (fun (_, a) ->
                match a with
                | Some a -> is_float_ty a.exp_env a.exp_type
                | None -> false)
              args
          in
          if float_arg then
            report ctx Exact_float e.exp_loc
              "exact float comparison (%s); use Util.Floats or waive with \
               [@opera.exact]"
              name
        end;
        (* R3: banned constructs *)
        if List.mem key banned_always then
          report ctx Banned_construct e.exp_loc "use of %s is banned"
            (Path.name path);
        if (not ctx.is_exe) && List.mem key banned_in_lib then
          report ctx Banned_construct e.exp_loc
            "%s in library code; route through Util.Log or return a value"
            (Path.name path);
        (* R4: unsafe indexing *)
        if
          List.mem key unsafe_ops
          && not (List.mem ctx.base ctx.cfg.unsafe_allowlist)
        then
          report ctx Unsafe_index e.exp_loc
            "%s without bounds proof; use checked access or waive with 'unsafe'"
            (Path.name path);
        (* R6: determinism *)
        if List.mem key hashtbl_unordered && not !in_sort then
          report ctx Determinism e.exp_loc
            "unordered Hashtbl.%s can leak table order into results; iterate \
             sorted keys (e.g. List.sort (Hashtbl.fold ...)) or waive with \
             'order'"
            name;
        if List.mem key random_ambient && not (path_mem "State" path) then
          report ctx Determinism e.exp_loc
            "ambient Random.%s uses hidden global state; thread an explicit \
             seeded Random.State through instead"
            name;
        if
          List.mem key clock_reads
          && not (List.mem ctx.base ctx.cfg.clock_allowlist)
        then
          report ctx Determinism e.exp_loc
            "wall-clock read %s outside Util.Timer breaks replayable runs; \
             use Util.Timer"
            (Path.name path)
    | None -> ())
  in
  let check_bare_ident e =
    match ident_key e with
    | Some (cu, name, path) ->
        let key = (cu, name) in
        (* R1 on a partially-applied / aliased comparison: the
           instantiated type tells us the element type. *)
        if List.mem key cmp_ops && not (has_attr "opera.exact" e.exp_attributes)
        then begin
          match Types.get_desc e.exp_type with
          | Types.Tarrow (_, t1, _, _) when is_float_ty e.exp_env t1 ->
              report ctx Exact_float e.exp_loc
                "comparison %s instantiated at float; use Util.Floats" name
          | _ -> ()
        end;
        if List.mem key banned_always then
          report ctx Banned_construct e.exp_loc "use of %s is banned"
            (Path.name path);
        if (not ctx.is_exe) && List.mem key banned_in_lib then
          report ctx Banned_construct e.exp_loc
            "%s in library code; route through Util.Log or return a value"
            (Path.name path)
    | None -> ()
  in
  let rec visit e =
    match e.exp_desc with
    | Texp_apply (hd, args) when ident_key hd <> None ->
        check_apply e hd args;
        let sorting = key_in sort_calls hd in
        let saved = !in_sort in
        if sorting then in_sort := true;
        List.iter (fun (_, a) -> Option.iter visit a) args;
        in_sort := saved
    | Texp_ident _ -> check_bare_ident e
    | Texp_try (_, cases) ->
        (* Cleanup-and-rethrow is fine: a handler that re-raises the
           exception it bound on every result path swallows nothing. *)
        let rec reraises id e =
          match e.exp_desc with
          | Texp_apply (hd, args) -> (
              match ident_key hd with
              | Some ("Stdlib", ("raise" | "raise_notrace"), _) ->
                  List.exists
                    (fun (_, a) ->
                      match a with
                      | Some
                          { exp_desc = Texp_ident (Path.Pident i, _, _); _ } ->
                          Ident.same i id
                      | _ -> false)
                    args
              | _ -> false)
          | Texp_sequence (_, b) -> reraises id b
          | Texp_let (_, _, body) -> reraises id body
          | Texp_ifthenelse (_, t, Some f) -> reraises id t && reraises id f
          | Texp_match (_, cs, _) ->
              cs <> [] && List.for_all (fun c -> reraises id c.c_rhs) cs
          | _ -> false
        in
        List.iter
          (fun c ->
            match (c.c_lhs.pat_desc, c.c_guard) with
            | Tpat_var (id, _), None when reraises id c.c_rhs -> ()
            | (Tpat_any | Tpat_var _), None ->
                report ctx Banned_construct c.c_lhs.pat_loc
                  "catch-all exception handler swallows failures; match \
                   specific exceptions"
            | _ -> ())
          cases;
        iter_children visit e
    | _ -> iter_children visit e
  in
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ e -> visit e) }
  in
  it.structure it tstr

(* ---- R2: capture analysis of parallel closures ------------------------ *)

(* Index expressions are classified relative to the chunk variables:

     Inv      chunk-invariant (same value in every chunk)
     Aff s    injective affine in a chunk variable, stride [s]
     Bounded b  for-var with invariant bounds [0, b]
     Safe     Aff (S_var n) + Bounded (b = n-1): disjoint strided slices
     Unknown  anything else

   A write to a captured array is proven disjoint when its index is
   [Aff _] or [Safe]: distinct chunk values address distinct cells
   (strides are assumed non-zero; a zero stride also makes the paired
   inner loop empty in the strided form). *)

type stride = S_one | S_lit of int | S_var of string
type bound = B_lit of int | B_var_minus1 of string
type ikind = Inv | Aff of stride | Bounded of bound | Safe | Unknown

type vclass =
  | Chunk_scalar (* closure parameter / chunk-derived int *)
  | Idx of ikind (* let/for-bound value with known index kind *)
  | Owned (* chunk-owned mutable: alias of captured.(chunk-index) *)
  | Local_mut (* mutable allocated inside the closure *)
  | Local (* any other closure-local binding *)

module Env = Map.Make (String)

type rclass = R_captured | R_owned | R_local

let race_pass ctx tstr =
  (* Module-level bindings of this unit: calls to them are argument-
     checked rather than treated as captured closures. *)
  let toplevel = Hashtbl.create 64 in
  let rec collect_items items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun n -> Hashtbl.replace toplevel n ())
                  (pattern_var_names vb.vb_pat))
              vbs
        | Tstr_module mb -> (
            match mb.mb_expr.mod_desc with
            | Tmod_structure s -> collect_items s.str_items
            | _ -> ())
        | _ -> ())
      items
  in
  collect_items tstr.str_items;
  let analyze_closure head_line closure =
    let reportr loc fmt = report ctx Domain_race ~anchor:head_line loc fmt in
    let class_of env id =
      match Env.find_opt (Ident.unique_name id) env with
      | Some c -> Some c
      | None -> None
    in
    let rec index_kind env e : ikind =
      match e.exp_desc with
      | Texp_constant (Const_int _) -> Inv
      | Texp_ident (Path.Pident id, _, _) -> (
          match class_of env id with
          | Some Chunk_scalar -> Aff S_one
          | Some (Idx k) -> k
          | Some (Owned | Local_mut | Local) -> Unknown
          | None -> Inv (* captured scalar: same value in every chunk *))
      | Texp_ident _ -> Inv
      | Texp_apply (hd, [ (_, Some a); (_, Some b) ]) -> (
          match ident_key hd with
          | Some (cu, ("+" | "-"), _) when cu = stdlib ->
              let ka = index_kind env a and kb = index_kind env b in
              let combine ka kb =
                match (ka, kb) with
                | Inv, Inv -> Inv
                | Aff s, Inv | Inv, Aff s -> Aff s
                | Aff (S_var v), Bounded (B_var_minus1 v') when v = v' -> Safe
                | Bounded (B_var_minus1 v'), Aff (S_var v) when v = v' -> Safe
                | Aff (S_lit n), Bounded (B_lit m) when m < n -> Safe
                | Bounded (B_lit m), Aff (S_lit n) when m < n -> Safe
                | Bounded _, Inv | Inv, Bounded _ -> Unknown
                | _ -> Unknown
              in
              combine ka kb
          | Some (cu, "*", _) when cu = stdlib -> (
              let ka = index_kind env a and kb = index_kind env b in
              let stride_of other =
                match other.exp_desc with
                | Texp_constant (Const_int n) when n <> 0 -> Some (S_lit n)
                | Texp_ident (Path.Pident id, _, _) -> (
                    match class_of env id with
                    | None | Some Local -> Some (S_var (Ident.unique_name id))
                    | _ -> None)
                | Texp_ident _ -> None
                | _ -> None
              in
              match (ka, kb) with
              | Aff S_one, Inv -> (
                  match stride_of b with Some s -> Aff s | None -> Unknown)
              | Inv, Aff S_one -> (
                  match stride_of a with Some s -> Aff s | None -> Unknown)
              | Inv, Inv -> Inv
              | _ -> Unknown)
          | _ -> Unknown)
      | _ -> Unknown
    in
    (* Syntactic bound of an upward for-loop: [v - 1] or a literal. *)
    let loop_bound env hi =
      match hi.exp_desc with
      | Texp_constant (Const_int n) -> Some (B_lit n)
      | Texp_apply (hd, [ (_, Some v); (_, Some one) ]) -> (
          match (ident_key hd, v.exp_desc, one.exp_desc) with
          | ( Some (cu, "-", _),
              Texp_ident (Path.Pident id, _, _),
              Texp_constant (Const_int 1) )
            when cu = stdlib -> (
              match class_of env id with
              | None | Some Local ->
                  Some (B_var_minus1 (Ident.unique_name id))
              | _ -> None)
          | _ -> None)
      | _ -> None
    in
    let rec root env e : rclass =
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> (
          match class_of env id with
          | None -> R_captured
          | Some Owned -> R_owned
          | Some _ -> R_local)
      | Texp_ident _ -> R_captured (* module-level / other-unit value *)
      | Texp_apply (hd, ((_, Some a) :: _ as args))
        when key_in
               [ ("Stdlib__Array", "get"); ("Stdlib__Array", "unsafe_get") ]
               hd -> (
          (* captured.(i): chunk-owned element when i is chunk-derived *)
          match (root env a, args) with
          | R_captured, [ _; (_, Some idx) ] -> (
              match index_kind env idx with
              | Aff _ | Safe -> R_owned
              | _ -> R_captured)
          | r, _ -> r)
      | Texp_field (b, _, _) -> root env b
      | _ -> R_local
    in
    let writes_proven env ~ofs ~len =
      match (index_kind env ofs, len) with
      | (Aff _ | Safe), None -> true
      | Aff (S_var v), Some l -> (
          match l.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> Ident.unique_name id = v
          | _ -> false)
      | Aff (S_lit n), Some l -> (
          match l.exp_desc with
          | Texp_constant (Const_int m) -> m <= n
          | _ -> false)
      | Aff S_one, Some l -> (
          match l.exp_desc with
          | Texp_constant (Const_int 1) -> true
          | _ -> false)
      | _ -> false
    in
    let read_only_ops =
      List.concat_map
        (fun m ->
          [ (m, "get"); (m, "unsafe_get"); (m, "length"); (m, "mem");
            (m, "exists"); (m, "for_all") ])
        [ "Stdlib__Array"; "Stdlib__Bytes"; "Stdlib__String"; "Stdlib__Float" ]
    in
    let write_ops =
      List.concat_map
        (fun m -> [ (m, "set"); (m, "unsafe_set"); (m, "fill"); (m, "blit") ])
        [ "Stdlib__Array"; "Stdlib__Bytes"; "Stdlib__Float" ]
    in
    let container_mutators =
      List.map (fun n -> ("Stdlib__Hashtbl", n))
        [ "add"; "replace"; "remove"; "reset"; "clear" ]
      @ List.map (fun n -> ("Stdlib__Buffer", n))
          [ "add_char"; "add_string"; "add_bytes"; "add_buffer"; "clear";
            "reset" ]
      @ List.map (fun n -> ("Stdlib__Queue", n)) [ "push"; "pop"; "add"; "take" ]
      @ List.map (fun n -> ("Stdlib__Stack", n)) [ "push"; "pop" ]
    in
    let is_alloc_rhs e =
      key_in
        (List.map (fun n -> ("Stdlib__Array", n))
           [ "make"; "create_float"; "init"; "copy"; "append"; "concat"; "sub";
             "make_matrix" ]
        @ [ (stdlib, "ref"); ("Stdlib__Buffer", "create");
            ("Stdlib__Bytes", "create"); ("Stdlib__Bytes", "make");
            ("Stdlib__Hashtbl", "create") ])
        e
    in
    let bind_local env pat =
      List.fold_left
        (fun env n -> Env.add n Local env)
        env (pattern_var_names pat)
    in
    let rec scan env e =
      match e.exp_desc with
      | Texp_let (_, vbs, body) ->
          List.iter (fun vb -> scan env vb.vb_expr) vbs;
          let env =
            List.fold_left
              (fun env' vb ->
                match pattern_var_names vb.vb_pat with
                | [ n ] ->
                    let cls =
                      match vb.vb_expr.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) -> (
                          match class_of env id with
                          | Some c -> c
                          | None -> Idx Unknown
                          (* alias of a captured value: writes through it
                             still need proof, so keep it "captured" by
                             not binding it at all *))
                      | Texp_apply (hd, _) when is_alloc_rhs hd -> Local_mut
                      | _ -> (
                          match root env vb.vb_expr with
                          | R_captured
                            when is_mutable_ty vb.vb_expr.exp_env
                                   vb.vb_expr.exp_type ->
                              Idx Unknown (* see alias note above *)
                          | R_owned -> Owned
                          | _ -> (
                              match index_kind env vb.vb_expr with
                              | Unknown -> Local
                              | k -> Idx k))
                    in
                    (* A captured alias must stay resolvable as captured:
                       leave it unbound instead of binding a lying class. *)
                    let is_captured_alias =
                      match vb.vb_expr.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) ->
                          class_of env id = None
                      | Texp_ident _ -> true
                      | _ ->
                          root env vb.vb_expr = R_captured
                          && is_mutable_ty vb.vb_expr.exp_env
                               vb.vb_expr.exp_type
                    in
                    if is_captured_alias then env'
                    else Env.add n cls env'
                | ns -> List.fold_left (fun e n -> Env.add n Local e) env' ns)
              env vbs
          in
          scan env body
      | Texp_for (id, _, lo, hi, dir, body) ->
          scan env lo;
          scan env hi;
          let var_kind =
            match dir with
            | Upto -> (
                let klo = index_kind env lo and khi = index_kind env hi in
                match (klo, khi) with
                | Aff S_one, (Aff S_one | Safe) ->
                    (* chunk slice bounds: var stays within this chunk *)
                    Aff S_one
                | Inv, _ -> (
                    match (lo.exp_desc, loop_bound env hi) with
                    | Texp_constant (Const_int 0), Some b -> Bounded b
                    | _ -> Inv)
                | _ -> Unknown)
            | Downto -> Unknown
          in
          scan (Env.add (Ident.unique_name id) (Idx var_kind) env) body
      | Texp_function { cases; _ } ->
          List.iter
            (fun c ->
              let env = bind_local env c.c_lhs in
              Option.iter (scan env) c.c_guard;
              scan env c.c_rhs)
            cases
      | Texp_match (scrut, cases, _) ->
          scan env scrut;
          List.iter
            (fun c ->
              let env =
                List.fold_left
                  (fun env n -> Env.add n Local env)
                  env
                  (List.map Ident.unique_name (pat_bound_idents c.c_lhs))
              in
              Option.iter (scan env) c.c_guard;
              scan env c.c_rhs)
            cases
      | Texp_try (body, cases) ->
          scan env body;
          List.iter
            (fun c ->
              let env = bind_local env c.c_lhs in
              Option.iter (scan env) c.c_guard;
              scan env c.c_rhs)
            cases
      | Texp_setfield (obj, _, lbl, v) ->
          scan env obj;
          scan env v;
          if root env obj = R_captured then
            reportr e.exp_loc
              "mutable field %s of captured value written inside parallel \
               closure"
              lbl.Types.lbl_name
      | Texp_apply (hd, args) -> (
          let arg_exprs = List.filter_map (fun (_, a) -> a) args in
          (* Local idents carry real uids (Item of the current unit), so a
             captured local function would otherwise dispatch into the
             module-call branch below; catch it first. *)
          let captured_local_head =
            match hd.exp_desc with
            | Texp_ident (Path.Pident id, _, _)
              when class_of env id = None
                   && not (Hashtbl.mem toplevel (Ident.unique_name id)) ->
                Some id
            | _ -> None
          in
          match captured_local_head with
          | Some id ->
              List.iter (scan env) arg_exprs;
              reportr e.exp_loc
                "call to captured closure %s: effects on shared state cannot \
                 be analyzed; waive with 'race' if disjoint"
                (Ident.name id)
          | None -> (
          match ident_key hd with
          | Some (cu, name, _) when List.mem (cu, name) write_ops -> (
              List.iter (scan env) arg_exprs;
              match (name, arg_exprs) with
              | ("set" | "unsafe_set"), arr :: idx :: _ ->
                  if root env arr = R_captured then
                    if not (writes_proven env ~ofs:idx ~len:None) then
                      reportr e.exp_loc
                        "write to captured array at an index not proven \
                         chunk-disjoint"
              | "fill", arr :: ofs :: len :: _ ->
                  if root env arr = R_captured then
                    if not (writes_proven env ~ofs ~len:(Some len)) then
                      reportr e.exp_loc
                        "fill on captured array: offset/length not proven \
                         chunk-disjoint"
              | "blit", _ :: _ :: dst :: dofs :: len :: _ ->
                  if root env dst = R_captured then
                    if not (writes_proven env ~ofs:dofs ~len:(Some len)) then
                      reportr e.exp_loc
                        "blit into captured array: offset/length not proven \
                         chunk-disjoint"
              | _ -> ())
          | Some (cu, (":=" | "incr" | "decr"), _)
            when cu = stdlib -> (
              List.iter (scan env) arg_exprs;
              match arg_exprs with
              | r :: _ when root env r = R_captured ->
                  reportr e.exp_loc
                    "captured ref cell mutated inside parallel closure"
              | _ -> ())
          | Some (cu, name, _) when List.mem (cu, name) container_mutators ->
              List.iter (scan env) arg_exprs;
              (match arg_exprs with
              | c :: _ when root env c = R_captured ->
                  reportr e.exp_loc
                    "shared container mutated (%s.%s) inside parallel closure"
                    cu name
              | _ -> ())
          | Some (cu, name, _) when cu = "Util__Metrics" ->
              List.iter (scan env) arg_exprs;
              reportr e.exp_loc
                "Util.Metrics.%s mutates the global metrics registry inside a \
                 parallel closure"
                name
          | Some (cu, name, _) when List.mem (cu, name) read_only_ops ->
              List.iter (scan env) arg_exprs
          | Some _ ->
              (* module-level or toplevel function: captured mutable
                 arguments may be written by the callee *)
              List.iter (scan env) arg_exprs;
              List.iter
                (fun a ->
                  if
                    is_mutable_ty a.exp_env a.exp_type
                    && root env a = R_captured
                  then
                    reportr a.exp_loc
                      "captured mutable value passed to %s inside parallel \
                       closure; prove disjointness or waive with 'race'"
                      (match ident_key hd with
                      | Some (_, _, p) -> Path.name p
                      | None -> "a call"))
                arg_exprs
          | None ->
              scan env hd;
              List.iter (scan env) arg_exprs))
      | Texp_ident (Path.Pident id, _, _) -> (
          (* a captured local function referenced (not at call head) *)
          match class_of env id with
          | None
            when (not (Hashtbl.mem toplevel (Ident.unique_name id)))
                 && (match Types.get_desc e.exp_type with
                    | Types.Tarrow _ -> true
                    | _ -> false) ->
              reportr e.exp_loc
                "captured closure %s escapes inside parallel closure"
                (Ident.name id)
          | _ -> ())
      | _ -> iter_children (scan env) e
    in
    (* Peel the closure's own parameter chain: every parameter of a
       Util.Parallel closure is chunk-derived (~chunk ~lo ~hi / index). *)
    let rec peel env e =
      match e.exp_desc with
      | Texp_function { cases = [ c ]; _ } ->
          let env =
            List.fold_left
              (fun env n -> Env.add n Chunk_scalar env)
              env
              (pattern_var_names c.c_lhs)
          in
          peel env c.c_rhs
      | _ -> scan env e
    in
    peel Env.empty closure
  in
  (* Locate parallel entry applications anywhere in the unit. *)
  let rec find e =
    (match e.exp_desc with
    | Texp_apply (hd, args) when key_in parallel_entries hd ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some ({ exp_desc = Texp_function _; _ } as f) ->
                let head_line = line_of f.exp_loc in
                ctx.race_closures <- head_line :: ctx.race_closures;
                analyze_closure head_line f
            | _ -> ())
          args
    | _ -> ());
    iter_children find e
  in
  let it = { Tast_iterator.default_iterator with expr = (fun _ e -> find e) } in
  it.structure it tstr

(* ---- R7: allocation discipline inside [@opera.hot] -------------------- *)

let hot_pass ctx tstr =
  let reporth loc fmt = report ctx Hot_alloc loc fmt in
  let is_ref_app e =
    match e.exp_desc with
    | Texp_apply (hd, _) -> (
        match ident_key hd with
        | Some (cu, "ref", _) -> cu = stdlib
        | _ -> false)
    | _ -> false
  in
  let rec scan e =
    match e.exp_desc with
    | Texp_let (_, vbs, body) ->
        (* Two let-bound idioms the compiler eliminates are allowed:
           [let acc = ref e] (Simplif.eliminate_ref turns a
           non-escaping ref into a mutable variable) and
           [let helper args = ...] (simplify_local_functions turns a
           tail-called local function into a static jump).  The helper
           body is still scanned. *)
        List.iter scan_binding vbs;
        scan body
    | Texp_function _ ->
        reporth e.exp_loc
          "closure allocation inside [@opera.hot] body; hoist it out of the \
           hot path"
    | Texp_tuple _ -> reporth e.exp_loc "tuple allocation inside [@opera.hot]"
    | Texp_record _ ->
        reporth e.exp_loc "record allocation inside [@opera.hot]"
    | Texp_array [] -> ()
    | Texp_array _ ->
        reporth e.exp_loc "array literal allocation inside [@opera.hot]"
    | Texp_construct (lid, _, _ :: _) ->
        reporth e.exp_loc "constructor %s allocates inside [@opera.hot]"
          (String.concat "." (Longident.flatten lid.txt))
    | Texp_lazy _ -> reporth e.exp_loc "lazy allocation inside [@opera.hot]"
    | Texp_letop _ ->
        reporth e.exp_loc "binding operator allocates closures inside \
                           [@opera.hot]"
    | Texp_pack _ ->
        reporth e.exp_loc "first-class module allocation inside [@opera.hot]"
    | Texp_apply (hd, args) -> (
        (* Passing [~x:e] to an optional parameter elaborates to a
           compiler-inserted [Some e]: a boundary allocation at the
           call, not a per-element one — look through it to [e]. *)
        let arg_exprs =
          List.filter_map
            (fun ((lbl : Asttypes.arg_label), a) ->
              match a with
              | None -> None
              | Some a -> (
                  match (lbl, a.exp_desc) with
                  | Asttypes.Optional _, Texp_construct (_, _, [ inner ]) ->
                      Some inner
                  | _ -> Some a))
            args
        in
        match ident_key hd with
        | Some (cu, name, path) ->
            if List.mem (cu, name) raise_family then
              (* error path: allocation on raise is fine *) ()
            else if
              List.mem cu hot_scaffold_units
              || List.mem (cu, name) hot_scaffold
            then
              (* dispatch scaffolding: scan closure bodies, do not flag
                 the closures themselves *)
              List.iter
                (fun a ->
                  match a.exp_desc with
                  | Texp_function _ -> scan_fun_body a
                  | _ -> scan a)
                arg_exprs
            else begin
              if List.mem (cu, name) allocator_calls || List.mem cu alloc_units
              then
                reporth e.exp_loc "allocating call %s inside [@opera.hot]"
                  (Path.name path);
              (match Types.get_desc e.exp_type with
              | Types.Tarrow _ ->
                  reporth e.exp_loc
                    "partial application of %s allocates a closure inside \
                     [@opera.hot]"
                    (Path.name path)
              | _ -> ());
              List.iter scan arg_exprs
            end
        | None ->
            (match Types.get_desc e.exp_type with
            | Types.Tarrow _ ->
                reporth e.exp_loc
                  "partial application allocates a closure inside [@opera.hot]"
            | _ -> ());
            scan hd;
            List.iter scan arg_exprs)
    | _ -> iter_children scan e
  and scan_binding vb =
    match vb.vb_expr.exp_desc with
    | Texp_apply (_, args) when is_ref_app vb.vb_expr ->
        List.iter (fun (_, a) -> Option.iter scan a) args
    | Texp_function _ -> scan_fun_body vb.vb_expr
    | _ -> scan vb.vb_expr
  and scan_fun_body e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter scan c.c_guard;
            scan_fun_body c.c_rhs)
          cases
    | Texp_let
        (_, vbs, ({ exp_desc = Texp_function _ | Texp_let _; _ } as body)) ->
        (* optional-argument defaults elaborate to lets threaded
           between the curried parameter functions *)
        List.iter scan_binding vbs;
        scan_fun_body body
    | _ -> scan e
  in
  let hot_bindings = ref [] in
  let vb_it sub (vb : value_binding) =
    if has_attr "opera.hot" vb.vb_attributes then
      hot_bindings := vb.vb_expr :: !hot_bindings;
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let expr_it sub e =
    if has_attr "opera.hot" e.exp_attributes then
      hot_bindings := e :: !hot_bindings;
    Tast_iterator.default_iterator.expr sub e
  in
  let it =
    { Tast_iterator.default_iterator with value_binding = vb_it; expr = expr_it }
  in
  it.structure it tstr;
  List.iter scan_fun_body (List.rev !hot_bindings)

(* ---- R8: resource safety ---------------------------------------------- *)

let resource_pass ctx tstr =
  let handled : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let loc_key (loc : Location.t) = (line_of loc, col_of loc) in
  let is_open e =
    match e.exp_desc with
    | Texp_apply (hd, _) -> key_in open_calls hd
    | _ -> false
  in
  let is_protect_app e =
    match e.exp_desc with
    | Texp_apply (hd, _) -> key_in protect_key hd
    | _ -> false
  in
  let is_close_on var e =
    match e.exp_desc with
    | Texp_apply (hd, args) when key_in close_calls hd ->
        List.exists
          (fun (_, a) ->
            match a with
            | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ->
                Ident.unique_name id = var
            | _ -> false)
          args
    | _ -> false
  in
  (* [e] closes the resource on every exit, normal or exceptional:
     Fun.protect's finally runs before any surrounding handler or
     continuation, so a try whose body heads into protect is covered
     no matter what its handlers do. *)
  let rec guarded e =
    is_protect_app e
    ||
    match e.exp_desc with Texp_try (body, _) -> guarded body | _ -> false
  in
  (* Every result path of [e] must either head into Fun.protect or
     close [var] before producing its value. *)
  let rec closes_on_all_paths var e =
    if guarded e then true
    else
      match e.exp_desc with
      | Texp_let (_, vbs, body) ->
          List.exists (fun vb -> guarded vb.vb_expr) vbs
          || closes_on_all_paths var body
      | Texp_sequence (a, b) ->
          guarded a || is_close_on var a || closes_on_all_paths var b
      | Texp_ifthenelse (_, t, Some f) ->
          closes_on_all_paths var t && closes_on_all_paths var f
      | Texp_match (_, cases, _) ->
          cases <> []
          && List.for_all (fun c -> closes_on_all_paths var c.c_rhs) cases
      | Texp_try (body, cases) ->
          closes_on_all_paths var body
          && List.for_all (fun c -> closes_on_all_paths var c.c_rhs) cases
      | _ -> false
  in
  let case_pattern_var (c : _ case) =
    let names =
      match c.c_lhs.pat_desc with
      | Tpat_value p -> pattern_var_names (p :> pattern)
      | _ -> []
    in
    match names with [ n ] -> Some n | _ -> None
  in
  let rec visit e =
    (match e.exp_desc with
    | Texp_let (_, [ vb ], body) when is_open vb.vb_expr -> (
        Hashtbl.replace handled (loc_key vb.vb_expr.exp_loc) ();
        match pattern_var_names vb.vb_pat with
        | [ var ] ->
            if not (closes_on_all_paths var body) then
              report ctx Resource_safety vb.vb_expr.exp_loc
                "channel may stay open on an exceptional path; wrap the body \
                 in Fun.protect or close in every branch"
        | _ ->
            report ctx Resource_safety vb.vb_expr.exp_loc
              "channel bound by a non-trivial pattern cannot be tracked; use \
               Fun.protect")
    | Texp_match (scrut, cases, _) when is_open scrut ->
        Hashtbl.replace handled (loc_key scrut.exp_loc) ();
        List.iter
          (fun c ->
            match c.c_lhs.pat_desc with
            | Tpat_exception _ -> ()
            | _ -> (
                match case_pattern_var c with
                | Some var ->
                    if not (closes_on_all_paths var c.c_rhs) then
                      report ctx Resource_safety scrut.exp_loc
                        "channel may stay open on an exceptional path; wrap \
                         the branch in Fun.protect or close it everywhere"
                | None -> ()))
          cases
    | _ when is_open e ->
        if not (Hashtbl.mem handled (loc_key e.exp_loc)) then
          report ctx Resource_safety e.exp_loc
            "channel opened outside a let/match that guarantees close; bind \
             it locally under Fun.protect"
    | _ -> ());
    iter_children visit e
  in
  let it = { Tast_iterator.default_iterator with expr = (fun _ e -> visit e) } in
  it.structure it tstr

(* ---- entry point ------------------------------------------------------ *)

(* Run the typedtree passes for one file.  Returns findings (unwaived;
   waivers are applied by the engine, which owns the source text) and
   the head lines of the parallel closures seen by R2. *)
let run_passes cfg ~file ~is_exe (tstr : structure) :
    finding list * int list =
  let ctx =
    {
      cfg;
      file;
      base = Filename.basename file;
      is_exe;
      findings = [];
      race_closures = [];
    }
  in
  ident_checks ctx tstr;
  race_pass ctx tstr;
  hot_pass ctx tstr;
  resource_pass ctx tstr;
  let findings =
    List.sort_uniq compare (List.rev ctx.findings)
  in
  (findings, List.sort_uniq compare ctx.race_closures)
