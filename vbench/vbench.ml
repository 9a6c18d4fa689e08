(* The in-process half of the verifier benchmark (run.py is the entry
   point and owns the statistics and the verdict oracle).

     vbench.exe MODE --seed N --seconds S --trace 0|1 --work DIR --out FILE
                [--jobs PROGRAM:PROFILE,...]

   MODE is one of
   - daemon_warm     an in-process verusd (2 domains, shared cache,
                     lint=warn, prescreen on) and one client connection in
                     a closed loop over the decided Verus programs;
   - certified_fill  Driver.verify_program on the Verus suite with jobs=2,
                     certification, the escalate ladder, and a fresh cache
                     directory per pass;
   - cli_trace       the traced, in-process replay of cli_cold's jobs
                     (the timed cli_cold runs are verus_cli processes).

   The raw samples (per-job times, verdicts, digests and their references,
   set-up times, memory, layer counters) are written as one JSON document
   to --out.  With --trace 1 the spans go to DIR/trace.json as Chrome
   trace events. *)

open Verus
module J = Vbase.Json
module Rpc = Verusd.Rpc

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("vbench: " ^ m); exit 2) fmt

(* ----------------------------- options ------------------------------ *)

let mode = ref ""
let seed = ref 1
let seconds = ref 10.0
let tracing = ref false
let work = ref ""
let out = ref ""
let cli_jobs = ref []

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := Option.value (int_of_string_opt v) ~default:(-1);
      if !seed < 0 then die "--seed expects a non-negative integer";
      go rest
    | "--seconds" :: v :: rest ->
      seconds := Option.value (float_of_string_opt v) ~default:0.0;
      if !seconds <= 0.0 then die "--seconds expects a positive number";
      go rest
    | "--trace" :: v :: rest ->
      tracing := v = "1";
      go rest
    | "--work" :: v :: rest ->
      work := v;
      go rest
    | "--out" :: v :: rest ->
      out := v;
      go rest
    | "--jobs" :: v :: rest ->
      cli_jobs :=
        List.map
          (fun s ->
            match String.split_on_char ':' s with
            | [ p; f ] -> (p, f)
            | _ -> die "--jobs expects PROGRAM:PROFILE,...")
          (String.split_on_char ',' v);
      go rest
    | m :: rest when !mode = "" ->
      mode := m;
      go rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  if !work = "" || !out = "" then die "--work and --out are required"

(* ------------------------------ helpers ----------------------------- *)

let now = Trace.now

let program name =
  match Vservice.find_program name with Ok p -> p | Error e -> die "%s" e

let profile name =
  match Vservice.find_profile name with Ok p -> p | Error e -> die "%s" e

let fresh_dir name =
  let d = Filename.concat !work name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  (match Vcache.clear ~dir:d with Ok () -> () | Error e -> die "%s: %s" d e);
  d

let shuffled rng l =
  let a = Array.of_list l in
  Vbase.Rng.shuffle rng a;
  Array.to_list a

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

(* The first failing function in program order, if any. *)
let first_failing_fn (prog : Vir.program) failing =
  List.find_map
    (fun (fd : Vir.fndecl) -> if List.mem fd.Vir.fname failing then Some fd.Vir.fname else None)
    prog.Vir.functions

let result_failing_fn (r : Driver.program_result) =
  match Driver.first_failure r with
  | Some (where, _, _) when not r.Driver.pr_ok -> Some where
  | _ -> None

(* Vbase.Json prints floats to 6 significant digits; times go out as
   whole nanoseconds. *)
let ns s = J.Int (Float.to_int (Float.round (s *. 1e9)))

let opt_str = function Some s -> J.String s | None -> J.Null

let jobs_out : J.t list ref = ref []

let record_job ?(block = 0) ~phase ~program ~profile ~ok ~failure_fn ~digest ~reference ~time_s
    () =
  jobs_out :=
    J.Obj
      [
        ("phase", J.String phase);
        ("block", J.Int block);
        ("program", J.String program);
        ("profile", J.String profile);
        ("ok", J.Bool ok);
        ("failure_fn", opt_str failure_fn);
        ("digest", opt_str digest);
        ("reference", opt_str reference);
        ("time_ns", ns time_s);
      ]
    :: !jobs_out

(* Per-job deltas of the runtime's own counters, taken around the real
   call (not the replay). *)
let with_gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  Replay.add "gc.minor" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  Replay.add "gc.major" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  Replay.add "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  r

let with_sched_delta pool f =
  let s0 = Verusd.Sched.stats pool in
  let r = f () in
  let s1 = Verusd.Sched.stats pool in
  let sum = List.fold_left ( + ) 0 in
  Replay.add "sched.submitted" (float_of_int (s1.Verusd.Sched.sd_submitted - s0.Verusd.Sched.sd_submitted));
  Replay.add "sched.executed"
    (float_of_int (sum s1.Verusd.Sched.sd_executed - sum s0.Verusd.Sched.sd_executed));
  Replay.add "sched.stolen" (float_of_int (s1.Verusd.Sched.sd_stolen - s0.Verusd.Sched.sd_stolen));
  r

(* Σ vcr_time_s over the obligations this run actually worked on (a
   cache hit's vcr_time_s is the filling run's solve time). *)
let busy_s (r : Driver.program_result) =
  List.fold_left
    (fun acc (f : Driver.fn_result) ->
      List.fold_left
        (fun acc (v : Driver.vc_result) ->
          if v.Driver.vcr_source = Driver.Src_cache then acc else acc +. v.Driver.vcr_time_s)
        acc f.Driver.fnr_vcs)
    0.0 r.Driver.pr_fns

let next_job = ref 0

let new_job () =
  incr next_job;
  !next_job

(* Time the real driver call, then replay it layer by layer.  [run]
   performs the real call inside the "driver.verify_program" span. *)
let traced_in_process ~label ~settings ?pool p prog run =
  let job = new_job () in
  Trace.span ~job ("job " ^ label) (fun () ->
      let t0 = now () in
      let r =
        Trace.span ~job "driver.verify_program" (fun () ->
            with_gc_delta (fun () ->
                match pool with Some pl -> with_sched_delta pl run | None -> run ()))
      in
      let wall = now () -. t0 in
      Replay.add "sched.busy_ns" (busy_s r *. 1e9);
      Trace.span ~job "replay" (fun () ->
          Replay.run ~job ~label settings p prog (Replay.expected_of_result r));
      (r, wall))

(* ---------------------------- cli_trace ----------------------------- *)

(* cli_cold's jobs, in process, with verus_cli verify's defaults (jobs=1,
   no lint, no cache, no ladder, no certification). *)
let cli_trace () =
  let settings =
    { Replay.lint = Driver.Lint_ignore; certify = false; analyze = false; cache_dir = None; ladder = None }
  in
  List.iter
    (fun (pname, fname) ->
      let p = profile fname and prog = program pname in
      let label = pname ^ "/" ^ fname in
      let r, wall =
        traced_in_process ~label ~settings p prog (fun () ->
            Driver.verify_program p prog)
      in
      record_job ~phase:"traced" ~program:pname ~profile:fname ~ok:r.Driver.pr_ok
        ~failure_fn:(result_failing_fn r) ~digest:None ~reference:None ~time_s:wall ())
    !cli_jobs;
  []

(* -------------------------- certified_fill -------------------------- *)

(* The decided Verus programs: every bundled one except break_index,
   which runs for minutes (cli_cold covers it under a limit). *)
let suite = [ "singly_linked"; "doubly_linked"; "mem4"; "dlock"; "break_pop"; "vstd_seq"; "const_cond" ]

(* certified_fill's fast rounds: the suite without mem4, which takes
   seconds where the others take milliseconds.  They give the per-job
   latency statistics more samples of the fast programs; this many
   follow every full pass. *)
let fast_rounds = 2

(* Cycles (a full pass and its fast rounds) in a timed certified_fill
   run, at least: run.py reports the best cycle, so that a disturbance
   of the machine that lasts up to three cycles does not move it. *)
let min_cycles = 4

let certified_fill () =
  let rng = Vbase.Rng.create ~seed:!seed in
  let verus = profile "Verus" in
  let progs = List.map (fun n -> (n, program n)) suite in
  let config ~dir =
    Driver.Config.(
      default |> with_jobs 2 |> with_certify true |> with_ladder Vladder.Ladder.escalate
      |> with_cache dir)
  in
  (* Set-up: the determinism references, i.e. the first run in this
     process of each program with the workload's settings at jobs=1. *)
  let t0 = now () in
  let refs =
    List.map
      (fun (n, prog) ->
        let cfg = Driver.Config.with_jobs 1 (config ~dir:(fresh_dir "ref")) in
        (n, Driver.result_digest (Driver.verify_program ~config:cfg verus prog)))
      progs
  in
  let setup = [ now () -. t0 ] in
  let check ?block ~phase n (r : Driver.program_result) time_s =
    record_job ?block ~phase ~program:n ~profile:"Verus" ~ok:r.Driver.pr_ok
      ~failure_fn:(result_failing_fn r)
      ~digest:(Some (Driver.result_digest r))
      ~reference:(List.assoc_opt n refs) ~time_s ()
  in
  let passes = ref [] in
  if !tracing then begin
    let pool = Verusd.Sched.create ~domains:2 in
    Fun.protect
      ~finally:(fun () -> Verusd.Sched.shutdown pool)
      (fun () ->
        let dir = fresh_dir "pass" in
        let replay_dir = fresh_dir "replay" in
        let settings =
          {
            Replay.lint = Driver.Lint_ignore;
            certify = true;
            analyze = false;
            cache_dir = Some replay_dir;
            ladder = Some Vladder.Ladder.escalate;
          }
        in
        List.iter
          (fun (n, prog) ->
            let r, wall =
              traced_in_process ~label:(n ^ "/Verus") ~settings ~pool verus prog
                (fun () ->
                  Driver.verify_program
                    ~config:(Driver.Config.with_sched pool (config ~dir))
                    verus prog)
            in
            check ~phase:"traced" n r wall)
          (shuffled rng progs);
        Replay.set "vcache.store_bytes"
          (float_of_int (Vcache.disk_stats ~dir:replay_dir).Vcache.ds_bytes))
  end
  else begin
    (* Cycles until the time is spent, at least [min_cycles]: a full pass
       over the suite, then the fast rounds.  Each pass or round starts
       from a collected heap and a fresh cache directory. *)
    let run_pass ~block ~phase progs =
      let dir = fresh_dir "pass" in
      Gc.full_major ();
      let p0 = now () in
      List.iter
        (fun (n, prog) ->
          let j0 = now () in
          let r = Driver.verify_program ~config:(config ~dir) verus prog in
          check ~block ~phase n r (now () -. j0))
        (shuffled rng progs);
      now () -. p0
    in
    let fast = List.filter (fun (n, _) -> n <> "mem4") progs in
    let start = now () in
    while List.length !passes < min_cycles || now () -. start < !seconds do
      let block = List.length !passes + 1 in
      passes := run_pass ~block ~phase:"timed" progs :: !passes;
      for _ = 1 to fast_rounds do
        ignore (run_pass ~block ~phase:"fast" fast)
      done
    done
  end;
  [
    ("setup_ns", J.List (List.map ns setup));
    ("pass_walls_ns", J.List (List.rev_map ns !passes));
    ("peak_rss_kb", J.Int (vm_hwm_kb ()));
  ]

(* ---------------------------- daemon_warm --------------------------- *)

(* Each block's warm stream is a fixed job list: the daemon's heap grows
   with every request, so a longer stream would also be a slower one.
   The three blocks give 1,050 requests, so p99 over all of them has ten
   samples beyond it. *)
let stream_requests = 350

(* Requests in the traced run: each is followed by its replay. *)
let traced_requests = 100

type daemon = {
  engine : Vservice.t;
  server : Verusd.Server.t;
  thread : Thread.t;
  client : Verusd.Client.t;
  cache_dir : string;
}

(* The traced run wraps the service handler: a span in the connection
   thread (parented on the client's call span) and a byte count of every
   frame it writes. *)
let handler_parent = ref 0
let handler_job = ref 0
let frame_bytes = Atomic.make 0

let wrap_handler h : Verusd.Server.handler =
 fun ~emit req ->
  let traced = !handler_job <> 0 in
  let emit j =
    if traced then ignore (Atomic.fetch_and_add frame_bytes (4 + String.length (J.to_string j)));
    emit j
  in
  if not traced then h ~emit req
  else Trace.span ~parent:!handler_parent ~job:!handler_job "verusd.handler" (fun () -> h ~emit req)

let start_daemon () =
  let cache_dir = fresh_dir "daemon-cache" in
  let socket_path = Filename.concat !work "verusd.sock" in
  let engine = Vservice.create ~domains:2 ~cache_dir () in
  let server =
    match Verusd.Server.create (Verusd.Server.default_config ~socket_path) with
    | Ok s -> s
    | Error e -> die "daemon: %s" e
  in
  let h = Vservice.handler engine in
  let h = if !tracing then wrap_handler h else h in
  let thread = Thread.create (fun () -> Verusd.Server.serve server h) () in
  let client =
    match Verusd.Client.connect ~socket_path with Ok c -> c | Error e -> die "connect: %s" e
  in
  { engine; server; thread; client; cache_dir }

let stop_daemon d =
  Verusd.Client.close d.client;
  Verusd.Server.shutdown d.server;
  Thread.join d.thread;
  Vservice.shutdown d.engine

let next_id = ref 0

type reply = {
  rp_ok : bool;
  rp_expected : Replay.expected;
      (** the streamed per-VC answers, grouped by function in arrival
          order (a function's obligations run in encoding order) *)
  rp_digest : string option;
  rp_failing : string list;  (** functions whose fn event reported not ok *)
  rp_fresh : int;  (** obligations not served from the cache *)
  rp_busy_s : float;  (** Σ time_s of the obligations not served from cache *)
}

let call d name =
  incr next_id;
  let q = Rpc.query ~profile:"Verus" ~lint:Rpc.Lint_warn ~analyze:true ~cache:true Rpc.Verify name in
  let req = Rpc.request ~id:!next_id (Rpc.M_job q) in
  if !handler_job <> 0 then
    ignore (Atomic.fetch_and_add frame_bytes (4 + String.length (J.to_string (Rpc.request_to_json req))));
  let failing = ref [] and busy = ref 0.0 and vcs = ref [] in
  let on_event = function
    | Rpc.E_fn { fn; ok = false; _ } -> failing := fn :: !failing
    | Rpc.E_vc { fn; vc; answer; cached; time_s; _ } ->
      if not cached then busy := !busy +. time_s;
      vcs := (fn, (vc, answer, [])) :: !vcs
    | _ -> ()
  in
  match Verusd.Client.call d.client ~on_event req with
  | Ok (Rpc.E_done j) ->
    let field k = J.member k j in
    let int_at path = match J.path path j with Some (J.Int n) -> n | _ -> 0 in
    let fns = List.sort_uniq compare (List.map fst !vcs) in
    let front_end =
      match field "front_end_errors" with
      | Some (J.List l) -> List.filter_map (function J.String e -> Some e | _ -> None) l
      | _ -> []
    in
    {
      rp_ok = (match field "ok" with Some (J.Bool b) -> b | _ -> false);
      rp_expected =
        {
          Replay.x_front_end = front_end;
          x_fns =
            List.map
              (fun f -> (f, List.rev (List.filter_map (fun (g, v) -> if g = f then Some v else None) !vcs)))
              fns;
        };
      rp_digest = (match field "digest" with Some (J.String s) -> Some s | _ -> None);
      rp_failing = !failing;
      rp_fresh = int_at [ "vcs" ] - int_at [ "cache"; "hits" ];
      rp_busy_s = !busy;
    }
  | Ok (Rpc.E_error e) -> die "daemon %s: %s: %s" name e.Rpc.code e.Rpc.message
  | Ok _ -> die "daemon %s: unexpected terminal event" name
  | Error e -> die "daemon %s: %s" name e

let daemon_warm () =
  let rng = Vbase.Rng.create ~seed:!seed in
  let verus = profile "Verus" in
  let progs = List.map (fun n -> (n, program n)) suite in
  (* Determinism references before anything else runs in this process. *)
  let ref_config = Driver.Config.(default |> with_lint Driver.Lint_warn |> with_analyze true) in
  let refs =
    List.map
      (fun (n, prog) -> (n, Driver.result_digest (Driver.verify_program ~config:ref_config verus prog)))
      progs
  in
  let check ?block ~phase n rp time_s =
    record_job ?block ~phase ~program:n ~profile:"Verus" ~ok:rp.rp_ok
      ~failure_fn:(first_failing_fn (List.assoc n progs) rp.rp_failing)
      ~digest:rp.rp_digest ~reference:(List.assoc_opt n refs) ~time_s ()
  in
  (* The traced run traces the set-up's fill pass and then the warm
     requests.  The replay keeps a cache of its own, which goes through
     the same fill-then-hit history as the daemon's. *)
  let settings =
    {
      Replay.lint = Driver.Lint_warn;
      certify = false;
      analyze = true;
      cache_dir = Some (fresh_dir "replay-cache");
      ladder = None;
    }
  in
  let request ~traced d name =
    if not traced then call d name
    else begin
      let job = new_job () in
      let label = name ^ "/Verus" in
      Trace.span ~job ("job " ^ label) (fun () ->
          let rp =
            Trace.span ~job "verusd.client_call" (fun () ->
                handler_parent := Trace.current ();
                handler_job := job;
                let rp =
                  with_gc_delta (fun () ->
                      with_sched_delta (Vservice.sched d.engine) (fun () -> call d name))
                in
                handler_job := 0;
                rp)
          in
          Replay.add "sched.busy_ns" (rp.rp_busy_s *. 1e9);
          Replay.incr "verusd.requests";
          Trace.span ~job "replay" (fun () ->
              Replay.run ~job ~label settings verus (List.assoc name progs)
                rp.rp_expected);
          rp)
    end
  in
  (* Set-up: start a daemon on an empty cache and run one fill pass in
     which every request does fresh work (break_pop shares most of its
     obligations with singly_linked, so it may hit on those). *)
  let setup_once ~block =
    let t0 = now () in
    let d = start_daemon () in
    List.iter
      (fun (n, _) ->
        let j0 = now () in
        let rp = request ~traced:!tracing d n in
        if rp.rp_fresh = 0 then die "fill request for %s was served from the cache" n;
        check ~block ~phase:"fill" n rp (now () -. j0))
      (shuffled rng progs);
    (d, now () -. t0)
  in
  (* The stream: seeded permutations of the programs, back to back, so
     every program is requested equally often and the seed sets the
     order. *)
  let pending = ref [] in
  let rec draw () =
    match !pending with
    | n :: rest ->
      pending := rest;
      n
    | [] ->
      pending := shuffled rng suite;
      draw ()
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let n = if !tracing then traced_requests else stream_requests in
  (* A block is a set-up and then the stream, on a daemon of its own, so
     every stream runs on the heap of a single set-up.  The timed runs
     make three blocks; run.py reports the best one. *)
  let block b =
    let d, setup = setup_once ~block:b in
    let w0 = live () in
    let start = now () in
    for _ = 1 to n do
      let name = draw () in
      let j0 = now () in
      let rp = request ~traced:!tracing d name in
      check ~block:b ~phase:(if !tracing then "traced" else "timed") name rp (now () -. j0)
    done;
    let wall = now () -. start in
    let growth = live () - w0 in
    if !tracing then begin
      Replay.set "verusd.frame_bytes" (float_of_int (Atomic.get frame_bytes));
      Replay.set "vcache.store_bytes"
        (float_of_int (Vcache.disk_stats ~dir:d.cache_dir).Vcache.ds_bytes)
    end;
    stop_daemon d;
    (setup, wall, growth)
  in
  let blocks = List.init (if !tracing then 1 else 3) (fun b -> block (b + 1)) in
  [
    ("setup_ns", J.List (List.map (fun (t, _, _) -> ns t) blocks));
    ("peak_rss_kb", J.Int (vm_hwm_kb ()));
    ("pass_walls_ns", J.List (List.map (fun (_, t, _) -> ns t) blocks));
    ("heap_growth_words", J.List (List.map (fun (_, _, g) -> J.Int g) blocks));
    ("requests", J.Int n);
  ]

(* ------------------------------- main ------------------------------- *)

let () =
  parse_args ();
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let extra =
    match !mode with
    | "daemon_warm" -> daemon_warm ()
    | "certified_fill" -> certified_fill ()
    | "cli_trace" -> cli_trace ()
    | m -> die "unknown mode %S (daemon_warm, certified_fill, cli_trace)" m
  in
  let trace_file = Filename.concat !work "trace.json" in
  if !tracing then Trace.write_chrome trace_file;
  let doc =
    J.Obj
      ([
         ("mode", J.String !mode);
         ("seed", J.Int !seed);
         ("jobs", J.List (List.rev !jobs_out));
         ( "counters",
           J.Obj
             (Hashtbl.fold
                (fun k v acc -> (k, J.Int (Float.to_int (Float.round v))) :: acc)
                Replay.counters []
             |> List.sort compare) );
         ("mismatches", J.List (List.rev_map (fun m -> J.String m) !Replay.mismatches));
         ("trace_file", if !tracing then J.String trace_file else J.Null);
       ]
      @ extra)
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~indent:false doc);
  close_out oc
