(* Workers are spawned per [map] call and joined before it returns: a
   domain spawn costs ~0.1 ms, negligible next to the sweeps this pool
   runs, and it keeps the pool free of long-lived shared state (no
   condition-variable protocol to get wrong). [create] records the
   parallelism degree; [shutdown] only flags the pool as closed. *)

type t = { domains : int; mutable closed : bool }

let default_domains () = min 8 (Domain.recommended_domain_count ())

let create ?domains () =
  let domains =
    match domains with
    | None -> default_domains ()
    | Some d ->
        if d < 1 then invalid_arg "Pool.create: domains < 1";
        d
  in
  { domains; closed = false }

let domains t = t.domains

exception Worker_failure of exn

let run_tasks t ~count ~run =
  if t.closed then invalid_arg "Pool: used after shutdown";
  if count > 0 then begin
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= count || Atomic.get failure <> None then continue := false
        else begin
          try run i
          with e ->
            (* Keep the first failure; losing subsequent ones is fine,
               the caller only re-raises one. *)
            ignore (Atomic.compare_and_set failure None (Some e))
        end
      done
    in
    let helpers =
      List.init (min (t.domains - 1) (count - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    match Atomic.get failure with
    | Some e -> raise (Worker_failure e)
    | None -> ()
  end

(* Shared accounting for [mapi] and [try_mapi]: completed results are
   kept in [results] even when a task fails, so a failure never discards
   finished work — [mapi] merely chooses to re-raise instead of exposing
   the partial array. *)
let collect_mapi t ~f xs =
  let count = Array.length xs in
  let results = Array.make count None in
  let failure =
    try
      run_tasks t ~count ~run:(fun i -> results.(i) <- Some (f i xs.(i)));
      None
    with Worker_failure e -> Some e
  in
  (results, failure)

let mapi t ~f xs =
  if Array.length xs = 0 then [||]
  else begin
    let results, failure = collect_mapi t ~f xs in
    match failure with
    | Some e -> raise e
    | None ->
        Array.map
          (function
            | Some y -> y
            | None -> failwith "Pool.mapi: missing result (worker aborted)")
          results
  end

let map t ~f xs = mapi t ~f:(fun _ x -> f x) xs

let try_mapi t ~f xs =
  let count = Array.length xs in
  if count = 0 then [||]
  else begin
    let results =
      Array.make count (Error (Failure "Pool.try_mapi: task not run"))
    in
    (* The per-task wrapper never raises, so [run_tasks] never flags a
       failure and every task is scheduled and recorded. *)
    run_tasks t ~count ~run:(fun i ->
        results.(i) <- (try Ok (f i xs.(i)) with e -> Error e));
    results
  end

let try_map t ~f xs = try_mapi t ~f:(fun _ x -> f x) xs

let shutdown t = t.closed <- true

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
