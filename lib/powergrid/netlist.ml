exception Parse_error of int * string

type parsed = { circuit : Circuit.t; node_names : string array }

let parse_value s =
  let s = String.lowercase_ascii (String.trim s) in
  if s = "" then failwith "Netlist.parse_value: empty token";
  (* Split the longest numeric prefix from the suffix. *)
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '+' || c = '-' || c = 'e' in
  let n = String.length s in
  let rec prefix_end i =
    if i >= n then i
    else if is_num s.[i] then
      (* 'e' only counts as numeric when followed by a digit or sign *)
      if s.[i] = 'e' && not (i + 1 < n && (is_num s.[i + 1] || s.[i + 1] = '+' || s.[i + 1] = '-'))
      then i
      else prefix_end (i + 1)
    else i
  in
  let cut = prefix_end 0 in
  if cut = 0 then failwith (Printf.sprintf "Netlist.parse_value: %S is not a number" s);
  let base =
    match float_of_string_opt (String.sub s 0 cut) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Netlist.parse_value: %S is not a number" s)
  in
  let suffix = String.sub s cut (n - cut) in
  let multiplier =
    match suffix with
    | "" -> 1.0
    | "f" -> 1e-15
    | "p" -> 1e-12
    | "n" -> 1e-9
    | "u" -> 1e-6
    | "m" -> 1e-3
    | "k" -> 1e3
    | "meg" -> 1e6
    | "g" -> 1e9
    | "t" -> 1e12
    | _ ->
        (* Trailing unit letters like "9k" vs "9kohm": accept a few units. *)
        if suffix = "ohm" || suffix = "ohms" || suffix = "v" || suffix = "a" || suffix = "s" then 1.0
        else failwith (Printf.sprintf "Netlist.parse_value: unknown suffix %S" suffix)
  in
  base *. multiplier

(* Tokenize a card, keeping parenthesized groups together:
   "I1 n1 0 PULSE(0 1m 0 1n 1n 2n 4n)" ->
   ["I1"; "n1"; "0"; "PULSE(0 1m 0 1n 1n 2n 4n)"] *)
let tokenize line =
  let n = String.length line in
  let tokens = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = line.[i] in
    if c = '(' then begin
      incr depth;
      Buffer.add_char buf c
    end
    else if c = ')' then begin
      decr depth;
      Buffer.add_char buf c
    end
    else if (c = ' ' || c = '\t') && !depth = 0 then flush ()
    else Buffer.add_char buf c
  done;
  flush ();
  List.rev !tokens

let parse_paren_group lineno token =
  (* "PULSE(a b c)" -> ("pulse", [a; b; c]) *)
  match String.index_opt token '(' with
  | None -> raise (Parse_error (lineno, "expected FUNC(...) waveform"))
  | Some open_pos ->
      let name = String.lowercase_ascii (String.sub token 0 open_pos) in
      let close =
        match String.rindex_opt token ')' with
        | Some close when close > open_pos -> close
        | _ -> raise (Parse_error (lineno, "unbalanced parentheses in " ^ token))
      in
      let inner = String.sub token (open_pos + 1) (close - open_pos - 1) in
      let args =
        String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) inner)
        |> List.filter (fun s -> s <> "")
      in
      (name, args)

let parse_string text =
  let node_table = Hashtbl.create 64 in
  let node_names = ref [] in
  let next_node = ref 0 in
  let node_of lineno tok =
    let t = String.lowercase_ascii tok in
    if t = "0" || t = "gnd" then Circuit.ground
    else
      match Hashtbl.find_opt node_table t with
      | Some id -> id
      | None ->
          let id = !next_node in
          incr next_node;
          Hashtbl.replace node_table t id;
          node_names := tok :: !node_names;
          ignore lineno;
          id
  in
  let value lineno tok =
    try parse_value tok with Failure msg -> raise (Parse_error (lineno, msg))
  in
  let resistors = ref [] and capacitors = ref [] in
  let isources = ref [] and vsources = ref [] in
  let inductors = ref [] in
  let keyword_arg tokens key =
    List.find_map
      (fun tok ->
        let t = String.lowercase_ascii tok in
        let prefix = key ^ "=" in
        if String.length t > String.length prefix && String.sub t 0 (String.length prefix) = prefix
        then Some (String.sub t (String.length prefix) (String.length t - String.length prefix))
        else None)
      tokens
  in
  let lines = String.split_on_char '\n' text in
  let ended = ref false in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if (not !ended) && line <> "" && line.[0] <> '*' then begin
        if String.lowercase_ascii line = ".end" then ended := true
        else if line.[0] = '.' then () (* other dot-cards ignored *)
        else begin
          match tokenize line with
          | [] -> ()
          | name :: rest -> begin
              let kind_char = Char.lowercase_ascii name.[0] in
              match (kind_char, rest) with
              | 'r', n1 :: n2 :: v :: extra ->
                  let rkind =
                    match Option.map String.lowercase_ascii (keyword_arg extra "kind") with
                    | Some "via" -> Circuit.Via
                    | Some "package" -> Circuit.Package
                    | Some "metal" | None -> Circuit.Metal
                    | Some other ->
                        raise (Parse_error (lineno, "unknown resistor kind " ^ other))
                  in
                  resistors :=
                    { Circuit.rnode1 = node_of lineno n1; rnode2 = node_of lineno n2;
                      ohms = value lineno v; rkind }
                    :: !resistors
              | 'c', n1 :: n2 :: v :: extra ->
                  let ckind =
                    match Option.map String.lowercase_ascii (keyword_arg extra "kind") with
                    | Some "gate" -> Circuit.Gate
                    | Some "fixed" | None -> Circuit.Fixed
                    | Some other ->
                        raise (Parse_error (lineno, "unknown capacitor kind " ^ other))
                  in
                  capacitors :=
                    { Circuit.cnode1 = node_of lineno n1; cnode2 = node_of lineno n2;
                      farads = value lineno v; ckind }
                    :: !capacitors
              | 'l', n1 :: n2 :: v :: _ ->
                  inductors :=
                    { Circuit.lnode1 = node_of lineno n1; lnode2 = node_of lineno n2;
                      henries = value lineno v }
                    :: !inductors
              | 'i', n1 :: n2 :: spec :: extra ->
                  let a = node_of lineno n1 and b = node_of lineno n2 in
                  let inode, sign =
                    if b = Circuit.ground then (a, 1.0)
                    else if a = Circuit.ground then (b, -1.0)
                    else raise (Parse_error (lineno, "current source must touch ground"))
                  in
                  let wave =
                    if String.contains spec '(' then begin
                      match parse_paren_group lineno spec with
                      | "pulse", [ base; peak; delay; rise; fall; width; period ] ->
                          Waveform.Pulse
                            {
                              base = value lineno base;
                              peak = value lineno peak;
                              delay = value lineno delay;
                              rise = value lineno rise;
                              fall = value lineno fall;
                              width = value lineno width;
                              period = value lineno period;
                            }
                      | "pulse", _ -> raise (Parse_error (lineno, "PULSE needs 7 arguments"))
                      | "pwl", args ->
                          let rec pairs = function
                            | [] -> []
                            | t :: v :: rest -> (value lineno t, value lineno v) :: pairs rest
                            | [ _ ] -> raise (Parse_error (lineno, "PWL needs time/value pairs"))
                          in
                          Waveform.Pwl (Array.of_list (pairs args))
                      | other, _ -> raise (Parse_error (lineno, "unknown waveform " ^ other))
                    end
                    else Waveform.Dc (value lineno spec)
                  in
                  let wave = if Util.Floats.equal_exact sign 1.0 then wave else Waveform.scale sign wave in
                  let region =
                    match keyword_arg extra "region" with
                    | Some r -> (
                        match int_of_string_opt r with
                        | Some r -> r
                        | None -> raise (Parse_error (lineno, "REGION must be an integer")))
                    | None -> 0
                  in
                  isources := { Circuit.inode; wave; region } :: !isources
              | 'v', np :: nm :: v :: extra ->
                  let p = node_of lineno np and m = node_of lineno nm in
                  if m <> Circuit.ground then
                    raise (Parse_error (lineno, "supply pads must reference ground"));
                  let series_ohms =
                    match keyword_arg extra "rs" with Some r -> value lineno r | None -> 0.0
                  in
                  vsources :=
                    { Circuit.vnode = p; volts = value lineno v; series_ohms } :: !vsources
              | _ -> raise (Parse_error (lineno, "unrecognized card: " ^ line))
            end
        end
      end)
    lines;
  let circuit =
    try
      Circuit.make
        ~inductors:(List.rev !inductors)
        ~num_nodes:(Int.max 1 !next_node) ~resistors:(List.rev !resistors)
        ~capacitors:(List.rev !capacitors) ~isources:(List.rev !isources)
        ~vsources:(List.rev !vsources) ()
    with Invalid_argument msg -> raise (Parse_error (0, msg))
  in
  { circuit; node_names = Array.of_list (List.rev !node_names) }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text

let load_file path =
  match parse_file path with
  | parsed -> Ok parsed
  | exception Sys_error msg ->
      (* a failed open names the file, a failed read does not *)
      Error (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)
  | exception Parse_error (0, msg) -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Parse_error (line, msg) -> Error (Printf.sprintf "%s:%d: %s" path line msg)

(* The writer appends straight to one buffer.  Values go through
   [caml_format_float "%.9g"], the primitive Printf's [%.9g] conversion
   calls, so the bytes are Printf's without its per-field format
   interpretation and intermediate strings. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf v = Buffer.add_string buf (format_float "%.9g" v)

let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_node buf i =
  if i = Circuit.ground then Buffer.add_char buf '0'
  else begin
    Buffer.add_char buf 'n';
    add_int buf i
  end

(* [name k a b]: the card name, its index and two node fields. *)
let add_card buf name k a b =
  Buffer.add_string buf name;
  add_int buf k;
  Buffer.add_char buf ' ';
  add_node buf a;
  Buffer.add_char buf ' ';
  add_node buf b;
  Buffer.add_char buf ' '

let add_wave buf = function
  | Waveform.Dc v -> add_float buf v
  | Waveform.Pulse p ->
      Buffer.add_string buf "PULSE(";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ' ';
          add_float buf v)
        [ p.base; p.peak; p.delay; p.rise; p.fall; p.width; p.period ];
      Buffer.add_char buf ')'
  | Waveform.Pwl points ->
      Buffer.add_string buf "PWL(";
      Array.iteri
        (fun i (t, v) ->
          if i > 0 then Buffer.add_char buf ' ';
          add_float buf t;
          Buffer.add_char buf ' ';
          add_float buf v)
        points;
      Buffer.add_char buf ')'

let to_string ?(title = "generated by opera") (c : Circuit.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("* " ^ title ^ "\n");
  Array.iteri
    (fun k (r : Circuit.resistor) ->
      add_card buf "R" k r.rnode1 r.rnode2;
      add_float buf r.ohms;
      Buffer.add_string buf
        (match r.rkind with
        | Circuit.Metal -> " KIND=metal\n"
        | Circuit.Via -> " KIND=via\n"
        | Circuit.Package -> " KIND=package\n"))
    c.resistors;
  Array.iteri
    (fun k (cap : Circuit.capacitor) ->
      add_card buf "C" k cap.cnode1 cap.cnode2;
      add_float buf cap.farads;
      Buffer.add_string buf
        (match cap.ckind with Circuit.Gate -> " KIND=gate\n" | Circuit.Fixed -> " KIND=fixed\n"))
    c.capacitors;
  Array.iteri
    (fun k (src : Circuit.current_source) ->
      add_card buf "I" k src.inode Circuit.ground;
      add_wave buf src.wave;
      Buffer.add_string buf " REGION=";
      add_int buf src.region;
      Buffer.add_char buf '\n')
    c.isources;
  Array.iteri
    (fun k (l : Circuit.inductor) ->
      add_card buf "L" k l.lnode1 l.lnode2;
      add_float buf l.henries;
      Buffer.add_char buf '\n')
    c.inductors;
  Array.iteri
    (fun k (v : Circuit.vsource) ->
      add_card buf "V" k v.vnode Circuit.ground;
      add_float buf v.volts;
      Buffer.add_string buf " RS=";
      add_float buf v.series_ohms;
      Buffer.add_char buf '\n')
    c.vsources;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path ?title c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string ?title c);
      close_out oc)
