(** Leveled stderr logging shared by the library and the CLI.

    Solver-health warnings (non-converged PCG steps, invalid environment
    configuration) go through this module so the CLI's [--log-level] flag
    controls them uniformly.  The default level is [Warn]: errors and
    warnings print, informational and debug messages are suppressed. *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit

val level : unit -> level

val enabled : level -> bool
(** [enabled l] is true when a message at level [l] would print. *)

val errorf : ('a, unit, string, unit) format4 -> 'a

val warnf : ('a, unit, string, unit) format4 -> 'a

val infof : ('a, unit, string, unit) format4 -> 'a

val debugf : ('a, unit, string, unit) format4 -> 'a
(** Printf-style; a ["[opera <level>] "] prefix and a newline are added.
    Formatting of the arguments happens even when the level is disabled
    (messages are cheap; keep heavyweight work out of the arguments). *)
