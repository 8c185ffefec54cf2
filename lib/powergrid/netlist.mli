(** SPICE-subset netlist reader/writer.

    Supported cards (case-insensitive, [*] comments, [.end] terminator):

    - [R<name> n1 n2 value [KIND=metal|via|package]]
    - [C<name> n1 n2 value [KIND=gate|fixed]]
    - [L<name> n1 n2 value]
    - [I<name> n1 n2 value] — DC current from n1 to n2
    - [I<name> n1 n2 PULSE(base peak delay rise fall width period)]
    - [I<name> n1 n2 PWL(t1 v1 t2 v2 ...)]
    - [V<name> n+ 0 value [RS=ohms]] — supply pad with series resistance

    Values accept SI suffixes [f p n u m k meg g t].  Node [0] (or [gnd])
    is ground; other names are assigned indices in order of appearance.
    Current sources must have one terminal grounded (power-drain model). *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

type parsed = { circuit : Circuit.t; node_names : string array }

val parse_string : string -> parsed

val parse_file : string -> parsed

val load_file : string -> (parsed, string) result
(** {!parse_file} with an unreadable file or a malformed card returned as
    a one-line message naming the file (and the line, when known).  A
    netlist the nodal analysis ({!Mna.assemble}) cannot take — a supply
    pad without a positive [RS=], or any inductor — is an [Error] too,
    naming the file and the element's nodes.  {!parse_file} accepts
    both, for {!Mna.Full}. *)

val to_string : ?title:string -> Circuit.t -> string
(** Render a circuit back to netlist text (nodes named [n<i>]).
    PWL waveforms are emitted exactly; [random_activity] profiles
    round-trip because they are PWL underneath. *)

val write_file : string -> ?title:string -> Circuit.t -> unit

val parse_value : string -> float
(** Parse one SI-suffixed number (exposed for tests). Raises [Failure]. *)
