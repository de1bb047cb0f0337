type t = { mutable offsets : float array; mutable len : int }

let create () = { offsets = Array.make 16 0.0; len = 0 }

let clear p = p.len <- 0

let reserve p n =
  let cap = Array.length p.offsets in
  if n > cap then begin
    let bigger = Array.make (max n (2 * cap)) 0.0 in
    Array.blit p.offsets 0 bigger 0 p.len;
    p.offsets <- bigger
  end

let to_list p = List.init p.len (fun i -> p.offsets.(i))
