(* In-memory span recorder for the traced run.  Spans are recorded from
   the benchmark's own code, around its calls into each layer; nothing in
   the verifier is instrumented.  They are written out once, at the end,
   as Chrome trace-event JSON (viewable in Perfetto or chrome://tracing). *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** 0 for a root span *)
  t0 : float;
  t1 : float;
  tid : int;
}

let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

(* Open spans of the benchmark's main thread, innermost first.  A span
   opened on another thread (the daemon's connection thread) names its
   parent explicitly and leaves this stack alone. *)
let stack : int list ref = ref []

(* Seconds on the monotonic clock: spans must nest even if the wall
   clock is stepped mid-run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let record s = Mutex.protect lock (fun () -> spans := s :: !spans)

let span ?parent ~job name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let explicit = parent <> None in
  let parent =
    match parent with Some p -> p | None -> ( match !stack with p :: _ -> p | [] -> 0)
  in
  if not explicit then stack := id :: !stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    if not explicit then stack := List.tl !stack;
    record { id; name; job; parent; t0; t1; tid = Thread.id (Thread.self ()) }
  in
  Fun.protect ~finally:finish f

(* The id the next [span] call on the main thread will take as parent. *)
let current () = match !stack with p :: _ -> p | [] -> 0

let all () = List.rev !spans

(* Vbase.Json prints floats to 6 significant digits, so times are written
   as whole microseconds.  Both ends of a span are rounded, which keeps
   children inside their parents. *)
let to_chrome_json () =
  let all = all () in
  let base = List.fold_left (fun acc s -> min acc s.t0) infinity all in
  let us t = Float.to_int (Float.round ((t -. base) *. 1e6)) in
  Vbase.Json.Obj
    [
      ( "traceEvents",
        Vbase.Json.List
          (List.map
             (fun s ->
               Vbase.Json.Obj
                 [
                   ("name", Vbase.Json.String s.name);
                   ("cat", Vbase.Json.String "vbench");
                   ("ph", Vbase.Json.String "X");
                   ("ts", Vbase.Json.Int (us s.t0));
                   ("dur", Vbase.Json.Int (us s.t1 - us s.t0));
                   ("pid", Vbase.Json.Int 1);
                   ("tid", Vbase.Json.Int s.tid);
                   ( "args",
                     Vbase.Json.Obj
                       [
                         ("id", Vbase.Json.Int s.id);
                         ("parent", Vbase.Json.Int s.parent);
                         ("job", Vbase.Json.Int s.job);
                       ] );
                 ])
             all) );
      ("displayTimeUnit", Vbase.Json.String "ms");
    ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Vbase.Json.to_string ~indent:false (to_chrome_json ())))
