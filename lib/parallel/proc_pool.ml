(* Workers are forked per [try_mapi] call, like [Pool] spawns its
   domains per [map]: the children see the caller's state at call time
   through copy-on-write memory, so only the task index travels down the
   request pipe and only the result comes back (length-prefixed Marshal
   frames). The parent is the supervisor: it dispatches from a queue,
   selects on the response pipes with a heartbeat, SIGKILLs workers
   whose task outlived [task_timeout], and respawns on demand. *)

type t = {
  workers : int;
  task_timeout : float option;
  attempts : int;
  heartbeat : float;
  mutable closed : bool;
}

exception Task_failed of { index : int; detail : string }
exception Task_timeout of { index : int; timeout : float; attempts : int }
exception Worker_crashed of { index : int; detail : string }
exception Cancelled
exception Fork_refused

let () =
  Printexc.register_printer (function
    | Task_failed { index; detail } ->
        Some (Printf.sprintf "Proc_pool.Task_failed: task %d raised: %s" index detail)
    | Task_timeout { index; timeout; attempts } ->
        Some
          (Printf.sprintf
             "Proc_pool.Task_timeout: task %d exceeded %gs on each of %d \
              dispatch attempt(s); worker killed"
             index timeout attempts)
    | Worker_crashed { index; detail } ->
        Some
          (Printf.sprintf
             "Proc_pool.Worker_crashed: worker died while running task %d: %s"
             index detail)
    | Cancelled -> Some "Proc_pool.Cancelled: not dispatched (budget exhausted)"
    | Fork_refused ->
        Some
          "Proc_pool.Fork_refused: cannot fork a worker: this process has \
           already spawned an OCaml domain, and the OCaml 5 runtime refuses \
           fork after that, even once the domain is joined"
    | _ -> None)

let default_workers () = min 8 (Domain.recommended_domain_count ())

let create ?workers ?task_timeout ?(attempts = 1) ?(heartbeat = 0.05) () =
  let workers =
    match workers with
    | None -> default_workers ()
    | Some w ->
        if w < 1 then invalid_arg "Proc_pool.create: workers < 1";
        w
  in
  (match task_timeout with
  | Some l when l <= 0.0 -> invalid_arg "Proc_pool.create: task_timeout <= 0"
  | _ -> ());
  if attempts < 1 then invalid_arg "Proc_pool.create: attempts < 1";
  if heartbeat <= 0.0 then invalid_arg "Proc_pool.create: heartbeat <= 0";
  { workers; task_timeout; attempts; heartbeat; closed = false }

(* ---- framed transport over pipes ---- *)

let rec write_all fd buf ofs len =
  if len > 0 then
    match Unix.write fd buf ofs len with
    | n -> write_all fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf ofs len

(* [None] on end-of-file, including mid-buffer: the torn last write of a
   killed worker must read as "no frame", never as a short frame. *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec go ofs =
    if ofs = n then Some buf
    else
      match Unix.read fd buf ofs (n - ofs) with
      | 0 -> None
      | k -> go (ofs + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
  in
  go 0

let write_frame fd payload =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  write_all fd buf 0 (4 + n)

let read_frame fd =
  match really_read fd 4 with
  | None -> None
  | Some hdr -> really_read fd (Int32.to_int (Bytes.get_int32_be hdr 0))

type worker = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  mutable job : (int * int * float) option;
      (* task index, dispatch attempt, dispatched-at (wall clock) *)
}

let try_mapi t ?(should_stop = fun () -> false) ?on_result ~f xs =
  if t.closed then invalid_arg "Proc_pool: used after shutdown";
  let count = Array.length xs in
  if count = 0 then [||]
  else begin
    let results = Array.make count None in
    let settled = ref 0 in
    let settle i outcome =
      if Option.is_none results.(i) then begin
        incr settled;
        let outcome =
          (* A failing [on_result] (e.g. a journal append under fault
             injection) fails the task, matching the in-process backend
             where the commit runs inside the task body. *)
          match (outcome, on_result) with
          | Ok v, Some g -> ( match g i v with () -> outcome | exception e -> Error e)
          | _ -> outcome
        in
        results.(i) <- Some outcome
      end
    in
    let pending = Queue.create () in
    Array.iteri (fun i _ -> Queue.add (i, 0) pending) xs;
    let cancel_pending () =
      let rec drain () =
        match Queue.take_opt pending with
        | None -> ()
        | Some (i, _) ->
            settle i (Error Cancelled);
            drain ()
      in
      drain ()
    in
    (* The child's whole life: serve dispatches until the request pipe
       closes, then hard-exit — never run the parent's at_exit or flush
       its buffered channels from the child. *)
    let serve req res =
      let rec loop () =
        match read_frame req with
        | None -> ()
        | Some frame ->
            let (i, attempt) : int * int = Marshal.from_bytes frame 0 in
            let outcome : (_, string) result =
              match f ~attempt i xs.(i) with
              | v -> Ok v
              | exception e -> Error (Printexc.to_string e)
            in
            let payload =
              match Marshal.to_string (i, outcome) [] with
              | s -> s
              | exception _ ->
                  Marshal.to_string
                    (i, (Error "Proc_pool: result not marshallable" : (_, string) result))
                    []
            in
            write_frame res payload;
            loop ()
      in
      loop ()
    in
    let spawn () =
      let req_r, req_w = Unix.pipe () in
      let res_r, res_w = Unix.pipe () in
      match Unix.fork () with
      | exception Failure _ ->
          (* The runtime's refusal once a domain was ever spawned. *)
          List.iter Unix.close [ req_r; req_w; res_r; res_w ];
          raise Fork_refused
      | 0 ->
          Unix.close req_w;
          Unix.close res_r;
          (try serve req_r res_w with _ -> ());
          Unix._exit 0
      | pid ->
          Unix.close req_r;
          Unix.close res_w;
          { pid; to_child = req_w; from_child = res_r; job = None }
    in
    let reap pid =
      let rec go () =
        match Unix.waitpid [] pid with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      go ()
    in
    let close_fds w =
      (try Unix.close w.to_child with Unix.Unix_error _ -> ());
      (try Unix.close w.from_child with Unix.Unix_error _ -> ())
    in
    let kill w =
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap w.pid;
      close_fds w
    in
    let n_workers = min t.workers count in
    let ws : worker option array = Array.make n_workers None in
    let kill_all () =
      Array.iteri
        (fun k w ->
          match w with
          | None -> ()
          | Some w ->
              kill w;
              ws.(k) <- None)
        ws
    in
    (* Hand the idle worker in slot [k] its next task. A worker that died
       while idle surfaces here as EPIPE on the dispatch write: replace
       it and retry with the same task. *)
    let rec dispatch k =
      match ws.(k) with
      | Some w when w.job = None -> (
          if should_stop () then cancel_pending ()
          else
            match Queue.take_opt pending with
            | None -> ()
            | Some (i, attempt) -> (
                match write_frame w.to_child (Marshal.to_string (i, attempt) []) with
                | () -> w.job <- Some (i, attempt, Unix.gettimeofday ())
                | exception Unix.Unix_error _ ->
                    kill w;
                    Queue.add (i, attempt) pending;
                    ws.(k) <- Some (spawn ());
                    dispatch k))
      | _ -> ()
    in
    let requeue_or ~mk i attempt =
      if attempt + 1 < t.attempts then Queue.add (i, attempt + 1) pending
      else settle i (Error (mk ()))
    in
    let handle_death k w detail =
      kill w;
      (match w.job with
      | Some (i, attempt, _) ->
          requeue_or i attempt ~mk:(fun () -> Worker_crashed { index = i; detail })
      | None -> ());
      ws.(k) <- None
    in
    let handle_readable k w =
      match read_frame w.from_child with
      | None -> handle_death k w "worker process died"
      | exception Unix.Unix_error _ -> handle_death k w "response pipe failed"
      | Some frame -> (
          match (Marshal.from_bytes frame 0 : int * (_, string) result) with
          | i, outcome ->
              (match outcome with
              | Ok v -> settle i (Ok v)
              | Error detail -> settle i (Error (Task_failed { index = i; detail })));
              w.job <- None
          | exception _ -> handle_death k w "unreadable result frame")
    in
    let check_timeouts () =
      match t.task_timeout with
      | None -> ()
      | Some limit ->
          let now = Unix.gettimeofday () in
          Array.iteri
            (fun k w ->
              match w with
              | Some ({ job = Some (i, attempt, since); _ } as w)
                when now -. since >= limit ->
                  kill w;
                  requeue_or i attempt ~mk:(fun () ->
                      Task_timeout { index = i; timeout = limit; attempts = t.attempts });
                  ws.(k) <- None
              | _ -> ())
            ws
    in
    let select_timeout () =
      match t.task_timeout with
      | None -> t.heartbeat
      | Some limit ->
          let now = Unix.gettimeofday () in
          let next =
            Array.fold_left
              (fun acc w ->
                match w with
                | Some { job = Some (_, _, since); _ } ->
                    Float.min acc (since +. limit -. now)
                | _ -> acc)
              t.heartbeat ws
          in
          Float.max 0.0 (Float.min next t.heartbeat)
    in
    (* A worker killed mid-write must not SIGPIPE the parent; dispatch
       writes surface EPIPE instead and take the respawn path. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    Fun.protect
      ~finally:(fun () ->
        kill_all ();
        match old_sigpipe with
        | Some h -> Sys.set_signal Sys.sigpipe h
        | None -> ())
      (fun () ->
        while !settled < count do
          Array.iteri
            (fun k w ->
              match w with
              | Some _ -> dispatch k
              | None ->
                  if (not (Queue.is_empty pending)) && not (should_stop ()) then begin
                    ws.(k) <- Some (spawn ());
                    dispatch k
                  end)
            ws;
          if should_stop () && not (Queue.is_empty pending) then cancel_pending ();
          if !settled < count then begin
            let busy =
              Array.to_list ws
              |> List.filter_map (function
                   | Some w when w.job <> None -> Some w.from_child
                   | _ -> None)
            in
            if busy <> [] then begin
              (match Unix.select busy [] [] (select_timeout ()) with
              | readable, _, _ ->
                  List.iter
                    (fun fd ->
                      Array.iteri
                        (fun k w ->
                          match w with
                          | Some w when w.from_child = fd && w.job <> None ->
                              handle_readable k w
                          | _ -> ())
                        ws)
                    readable
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              check_timeouts ()
            end
          end
        done;
        Array.map
          (function Some r -> r | None -> Error Cancelled)
          results)
  end

let try_map t ~f xs = try_mapi t ~f:(fun ~attempt:_ _ x -> f x) xs

let shutdown t = t.closed <- true

let with_pool ?workers ?task_timeout ?attempts fn =
  let t = create ?workers ?task_timeout ?attempts () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> fn t)
