type warning = { context : string; detail : string; fallback : string }

let lock = Mutex.create ()
let store : warning list ref = ref []

let record ~context ~detail ~fallback =
  Mutex.protect lock (fun () ->
      store := { context; detail; fallback } :: !store)

let drain () =
  Mutex.protect lock (fun () ->
      let ws = List.rev !store in
      store := [];
      ws)

let peek () = Mutex.protect lock (fun () -> List.rev !store)

let protect ~context ~recover f =
  try f ()
  with e -> (
    match recover e with
    | None -> raise e
    | Some (fallback, v) ->
        record ~context ~detail:(Printexc.to_string e) ~fallback;
        v)

let pp_warning ppf w =
  Format.fprintf ppf "%s: %s -> fell back to %s" w.context w.detail w.fallback
