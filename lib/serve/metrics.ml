type t = {
  accepted : int Atomic.t;
  shed : int Atomic.t;
  requests : int Atomic.t;
  answered : int Atomic.t;
  timeouts : int Atomic.t;
  failed : int Atomic.t;
  batches : int Atomic.t;
  idle_closed : int Atomic.t;
}

let create () =
  {
    accepted = Atomic.make 0;
    shed = Atomic.make 0;
    requests = Atomic.make 0;
    answered = Atomic.make 0;
    timeouts = Atomic.make 0;
    failed = Atomic.make 0;
    batches = Atomic.make 0;
    idle_closed = Atomic.make 0;
  }

let bump c = Atomic.incr c
let incr_accepted t = bump t.accepted
let incr_shed t = bump t.shed
let incr_requests t = bump t.requests
let incr_answered t = bump t.answered
let incr_timeouts t = bump t.timeouts
let incr_failed t = bump t.failed
let incr_batches t = bump t.batches
let incr_idle_closed t = bump t.idle_closed

(* New fields go at the end: drill scripts match the head of this line
   with substring greps. *)
let summary t =
  Printf.sprintf
    "accepted=%d shed=%d requests=%d answered=%d timeouts=%d failed=%d \
     batches=%d idle-closed=%d"
    (Atomic.get t.accepted) (Atomic.get t.shed) (Atomic.get t.requests)
    (Atomic.get t.answered) (Atomic.get t.timeouts) (Atomic.get t.failed)
    (Atomic.get t.batches) (Atomic.get t.idle_closed)
