type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let tag = function Error -> "error" | Warn -> "warn" | Info -> "info" | Debug -> "debug"

let current = ref Warn

let set_level l = current := l

let level () = !current

let enabled l = severity l <= severity !current

let logf l fmt =
  let k msg = if enabled l then Printf.eprintf "[opera %s] %s\n%!" (tag l) msg in
  Printf.ksprintf k fmt

let errorf fmt = logf Error fmt

let warnf fmt = logf Warn fmt

let infof fmt = logf Info fmt

let debugf fmt = logf Debug fmt
