(* Command-line driver with a small subcommand interface: verify,
   analyze, profile, lint, cache, daemon, client, list, codes, ladders and
   help (`verus_cli help` prints each with its options).

   Every subcommand parses its argv with Stdlib.Arg over one set of
   shared option specs (below), so a flag spelled the same means the
   same thing everywhere, and both `verus_cli help` and
   `verus_cli <command> --help` render option lists from those specs.

   The verification cache directory comes from --cache DIR or, when the
   flag is absent, the VERUS_CACHE environment variable; --no-cache turns
   caching off regardless.

   Exit codes: 0 ok, 1 findings / verification failure (a refutation, a
   front-end error, or a strict-mode lint), 2 usage error, 3 budget
   exhausted — every failed obligation is Unknown (solver deadline /
   round budget), none refuted.  Distinguishing 3 from 1 lets CI retry
   with a stronger ladder, e.g. --ladder deep, instead of reporting a
   counterexample.  The cache subcommands use 4 for I/O problems
   (unreadable/corrupt store, failed delete) — distinct from 0 so
   scripts notice, distinct from 1 so it is never mistaken for a
   verification failure.  Under --certify, 5 means a certificate
   rejection (VC003): the solver said Unsat but the independent Vcheck
   kernel would not replay its proof — a solver bug or a damaged
   certificate, categorically different from both a counterexample (1)
   and a timeout (3).  The daemon/client pair uses 6
   for connection or protocol failures (no daemon at the socket, framing
   errors, RPC-level rejections): an environment problem, never a
   verdict — a client run that reaches a verdict mirrors the daemon's
   exit_code field, so 0/1/3/5 mean the same thing in both modes.

   The bundled program and profile tables, and the verdict-to-exit-code
   mapping, live in Verus.Vservice — one table for the CLI and the
   daemon, so both resolve the same names to the same computations, and
   a `verus_cli client` run exits with the same code as a local one. *)

let programs = Verus.Vservice.programs
let profile_names = Verus.Vservice.profile_names

let die_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      prerr_endline "run 'verus_cli help' for usage";
      exit 2)
    fmt

(* ---------------------------- options ----------------------------- *)

(* One process runs one subcommand, so its options live in module-level
   refs; each spec fragment below writes one of them, and a subcommand's
   option list is the fragments it accepts. *)

let fn_filter = ref None
let jobs = ref 1
let lint = ref None
let ladder = ref None
let rung = ref None
let cache_dir = ref None
let no_cache = ref false
let certify = ref false
let prescreen = ref false
let json = ref false
let liberal = ref false
let top = ref 10
let strict = ref false
let all = ref false
let socket = ref None
let domains = ref 4
let stream = ref true

(* An integer option with a lower bound; out of range is a usage error. *)
let int_at_least key lo set doc =
  ( key,
    Arg.Int
      (fun n ->
        if n >= lo then set n
        else raise (Arg.Bad (Printf.sprintf "%s expects an integer >= %d, got %d" key lo n))),
    doc )

(* The one lint-level vocabulary, in the driver's and the protocol's terms. *)
let lint_levels =
  [
    ("ignore", (Verus.Driver.Lint_ignore, Verusd.Rpc.Lint_off));
    ("warn", (Verus.Driver.Lint_warn, Verusd.Rpc.Lint_warn));
    ("strict", (Verus.Driver.Lint_strict, Verusd.Rpc.Lint_strict));
  ]

let fn_spec =
  ( "--fn",
    Arg.String (fun v -> fn_filter := Some v),
    "NAME only this exec/proof function (spec functions stay)" )

let jobs_spec =
  int_at_least "--jobs" 1 (fun n -> jobs := n) "N verify on N domains (default 1)"

let lint_spec =
  ( "--lint",
    Arg.Symbol (List.map fst lint_levels, fun s -> lint := List.assoc_opt s lint_levels),
    " when Vlint findings fail the run (strict: also warnings)" )

let ladder_specs =
  [
    ( "--ladder",
      Arg.String (fun v -> ladder := Some v),
      "NAME climb each obligation up a built-in ladder (see `verus_cli ladders`)" );
    int_at_least "--rung" 0
      (fun n -> rung := Some n)
      "N pin every obligation to rung N of the ladder (default escalate)";
  ]

let cache_spec =
  ( "--cache",
    Arg.String (fun v -> cache_dir := Some v),
    "DIR reuse VC results across runs (default: $VERUS_CACHE)" )

let no_cache_spec = ("--no-cache", Arg.Set no_cache, " turn the verification cache off")

let certify_spec =
  ( "--certify",
    Arg.Set certify,
    " replay Unsat certificates through Vcheck (exit 5 on rejection)" )

let prescreen_spec =
  ( "--prescreen",
    Arg.Set prescreen,
    " run the Vflow prescreen first; what it proves skips SMT" )

let json_spec = ("--json", Arg.Set json, " emit the versioned JSON document instead of text")

let liberal_spec =
  ( "--liberal",
    Arg.Set liberal,
    " degrade to Dafny-style broad triggers (the VL010 configuration)" )

let socket_spec =
  ( "--socket",
    Arg.String (fun v -> socket := Some v),
    "PATH daemon socket (default: $VERUSD_SOCKET, else verusd.sock)" )

let verify_specs =
  [ fn_spec; jobs_spec; lint_spec ] @ ladder_specs
  @ [ cache_spec; no_cache_spec; certify_spec; prescreen_spec ]

let profile_specs =
  [ fn_spec; jobs_spec ] @ ladder_specs
  @ [
      cache_spec;
      no_cache_spec;
      json_spec;
      int_at_least "--top" 1 (fun n -> top := n) "K rows per hot-spot table (default 10)";
      liberal_spec;
    ]

let lint_specs =
  [
    ("--all", Arg.Set all, " every bundled program (the default with none named)");
    ("--strict", Arg.Set strict, " also fail on Warn findings");
    liberal_spec;
    json_spec;
  ]

let daemon_specs =
  [
    socket_spec;
    int_at_least "--domains" 1 (fun n -> domains := n) "N worker domains (default 4)";
    cache_spec;
  ]

let client_specs =
  [ socket_spec; lint_spec; certify_spec; prescreen_spec; no_cache_spec ]
  @ ladder_specs
  @ [ ("--no-stream", Arg.Clear stream, " send only the final verdict, not per-VC events") ]

(* Positional arguments, in order. *)
let positional = ref []

let program_and_profile () =
  match !positional with
  | [] -> ("singly_linked", "Verus")
  | [ prog ] -> (prog, "Verus")
  | [ prog; profile ] -> (prog, profile)
  | _ :: _ :: extra :: _ -> die_usage "unexpected argument %s" extra

let find_profile name =
  match Verus.Vservice.find_profile name with
  | Ok p -> p
  | Error msg -> die_usage "%s" msg

let find_program name =
  match Verus.Vservice.find_program name with
  | Ok p -> p
  | Error msg -> die_usage "%s" msg

(* The one resolver for automation strength, shared with the daemon's
   request handler: --ladder names a built-in, --rung pins one rung. *)
let resolve_ladder () =
  match Verus.Vservice.resolve_ladder ~ladder:!ladder ~rung:!rung with
  | Ok l -> l
  | Error msg -> die_usage "%s" msg

(* --cache DIR wins; otherwise VERUS_CACHE; --no-cache beats both. *)
let resolve_cache_dir () =
  if !no_cache then None
  else
    match !cache_dir with
    | Some d -> Some d
    | None -> (
      match Sys.getenv_opt "VERUS_CACHE" with Some "" | None -> None | Some d -> Some d)

let cache_config () = Option.map (fun dir -> { Verus.Vcache.dir }) (resolve_cache_dir ())

let cmd_list () =
  print_endline "programs:";
  List.iter (fun (n, _) -> print_endline ("  " ^ n)) programs;
  print_endline "profiles:";
  List.iter (fun n -> print_endline ("  " ^ n)) profile_names;
  exit 0

let cmd_codes () =
  Printf.printf "%-7s %-6s %s\n" "code" "sev" "description";
  List.iter
    (fun (code, sev, descr) ->
      Printf.printf "%-7s %-6s %s\n" code (Verus.Vlint.severity_to_string sev) descr)
    Verus.Vlint.code_table;
  exit 0

let cmd_ladders () =
  List.iter
    (fun (name, l) ->
      Printf.printf "%s (%d rung%s)\n" name
        (Verus.Driver.Ladder.length l)
        (if Verus.Driver.Ladder.length l = 1 then "" else "s");
      Array.iteri
        (fun i (r : Verus.Driver.Rung.t) ->
          Printf.printf "  %d  %-8s %s\n" i r.Verus.Driver.Rung.r_name
            (Verus.Driver.Rung.fingerprint r))
        (Verus.Driver.Ladder.rungs l))
    Verus.Driver.Ladder.builtins;
  print_endline "(--rung N pins every obligation to rung N)";
  exit 0

let cache_summary_line (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_cache with
  | None -> ()
  | Some cs ->
    Printf.printf "cache: %d hit(s), %d miss(es), %d invalidation(s), %d store(s)%s\n"
      cs.Verus.Vcache.hits cs.Verus.Vcache.misses cs.Verus.Vcache.invalidations
      cs.Verus.Vcache.stores
      (if cs.Verus.Vcache.corrupt_load then " — store was corrupt at load, rebuilt" else "")

let ladder_summary_line (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_ladder with
  | None -> ()
  | Some ls ->
    let per_rung a =
      String.concat "/" (List.map string_of_int (Array.to_list a))
    in
    Printf.printf
      "ladder: %s (%d rungs): attempts %s, wins %s, %d escalation(s), %d steered, %d \
       cache hit(s), %d warm rung jump(s)\n"
      ls.Verus.Driver.ls_ladder ls.Verus.Driver.ls_rungs
      (per_rung ls.Verus.Driver.ls_attempts)
      (per_rung ls.Verus.Driver.ls_wins)
      ls.Verus.Driver.ls_escalations ls.Verus.Driver.ls_steered
      ls.Verus.Driver.ls_cache_hits ls.Verus.Driver.ls_hint_starts

(* Restrict verification to one exec/proof function (debugging aid);
   spec functions stay, the others' axioms may be needed. *)
let apply_fn_filter prog = function
  | None -> prog
  | Some keep ->
    {
      prog with
      Verus.Vir.functions =
        List.filter
          (fun (fd : Verus.Vir.fndecl) ->
            fd.Verus.Vir.fmode = Verus.Vir.Spec || String.equal fd.Verus.Vir.fname keep)
          prog.Verus.Vir.functions;
    }

(* --------------------------- verify ------------------------------- *)

let cmd_verify () =
  let prog_name, profile_name = program_and_profile () in
  let profile = find_profile profile_name in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  let config =
    {
      Verus.Driver.Config.default with
      Verus.Driver.Config.jobs = !jobs;
      lint = Option.fold ~none:Verus.Driver.Lint_ignore ~some:fst !lint;
      certify = !certify;
      analyze = !prescreen;
      ladder = resolve_ladder ();
      cache = cache_config ();
    }
  in
  let r = Verus.Driver.verify_program ~config profile prog in
  List.iter
    (fun d -> Printf.printf "lint: %s\n" (Verus.Vlint.diag_to_string d))
    r.Verus.Driver.pr_lint;
  List.iter (fun e -> Printf.printf "front-end error: %s\n" e) r.Verus.Driver.pr_front_end_errors;
  List.iter
    (fun (fnr : Verus.Driver.fn_result) ->
      Printf.printf "%-24s %s  (%.3fs, %d bytes)\n" fnr.Verus.Driver.fnr_name
        (if fnr.Verus.Driver.fnr_ok then "OK" else "FAIL")
        fnr.Verus.Driver.fnr_time_s fnr.Verus.Driver.fnr_bytes;
      List.iter
        (fun (vr : Verus.Driver.vc_result) ->
          let status =
            match (vr.Verus.Driver.vcr_answer, vr.Verus.Driver.vcr_cert) with
            | Smt.Solver.Unsat, Verus.Driver.Cert_rejected (code, reason) ->
              Printf.sprintf "CERT REJECTED (%s: %s)" code reason
            | Smt.Solver.Unsat, Verus.Driver.Cert_unavailable why ->
              "CERT MISSING (" ^ why ^ ")"
            | Smt.Solver.Unsat, Verus.Driver.Cert_checked _ -> "proved+cert"
            | Smt.Solver.Unsat, Verus.Driver.Cert_cached _ -> "proved+cert(cached)"
            | Smt.Solver.Unsat, _
              when vr.Verus.Driver.vcr_source = Verus.Driver.Src_prescreen ->
              "proved(prescreen)"
            | Smt.Solver.Unsat, _ -> "proved"
            | Smt.Solver.Sat, _ -> "COUNTEREXAMPLE"
            | Smt.Solver.Unknown m, _ -> "UNKNOWN: " ^ m
          in
          Printf.printf "    %-60s %-10s %.3fs  [%s]\n" vr.Verus.Driver.vcr_name status
            vr.Verus.Driver.vcr_time_s vr.Verus.Driver.vcr_detail)
        fnr.Verus.Driver.fnr_vcs)
    r.Verus.Driver.pr_fns;
  (match Verus.Driver.first_failure r with
  | Some (where, what, code) when not r.Verus.Driver.pr_ok ->
    Printf.printf "first failure: [%s] %s: %s\n" code where what
  | _ -> ());
  cache_summary_line r;
  ladder_summary_line r;
  (if !prescreen then
     let total =
       List.fold_left
         (fun acc (fnr : Verus.Driver.fn_result) ->
           acc + List.length fnr.Verus.Driver.fnr_vcs)
         0 r.Verus.Driver.pr_fns
     in
     Printf.printf "prescreen: discharged %d of %d obligation(s) without SMT\n"
       (Verus.Driver.prescreen_discharged r)
       total);
  (* A run that failed *only* on Unknown answers (solver deadline /
     instantiation budget) is a budget exhaustion, not a refutation: exit
     3 so callers can distinguish "retry with a stronger ladder, e.g.
     --ladder deep" from "has a counterexample". *)
  Printf.printf "== %s / %s: %s in %.3fs, %d query bytes\n" prog_name
    profile.Verus.Profiles.name
    (if r.Verus.Driver.pr_ok then if !certify then "VERIFIED (certified)" else "VERIFIED"
     else if Verus.Vservice.cert_failed r then "CERTIFICATE REJECTED"
     else if Verus.Vservice.budget_only r then "UNKNOWN (solver budget exhausted)"
     else "FAILED")
    r.Verus.Driver.pr_time_s r.Verus.Driver.pr_bytes;
  exit (Verus.Vservice.result_exit_code r)

(* --------------------------- analyze ------------------------------ *)

(* The prescreen alone, made visible: per-obligation rung-0 verdicts with
   the facts that would ship to SMT on fall-through, then the VL04x flow
   findings.  No solver runs; informational, always exit 0 (use
   `verify --prescreen` for a verdict). *)
let cmd_analyze () =
  let prog_name, profile_name = program_and_profile () in
  let profile = find_profile profile_name in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  let targets =
    List.filter
      (fun (fd : Verus.Vir.fndecl) ->
        fd.Verus.Vir.fmode <> Verus.Vir.Spec && fd.Verus.Vir.body <> None)
      prog.Verus.Vir.functions
  in
  let total = ref 0 and proved = ref 0 in
  Printf.printf "== analyze: %s / %s (Vflow %s) ==\n" prog_name profile.Verus.Profiles.name
    Vflow.version;
  List.iter
    (fun (fd : Verus.Vir.fndecl) ->
      let vcs = Verus.Encode.encode_function profile prog fd in
      Printf.printf "%s: %d obligation(s)\n" fd.Verus.Vir.fname (List.length vcs);
      List.iter
        (fun (vc : Verus.Encode.vc) ->
          incr total;
          let context = Verus.Driver.context_for profile prog vc in
          let r =
            Vflow.Prescreen.check ~hyps:(context @ vc.Verus.Encode.vc_hyps)
              ~goal:vc.Verus.Encode.vc_goal ()
          in
          let verdict = r.Vflow.Prescreen.verdict in
          if verdict = Vflow.Prescreen.Proved then incr proved;
          Printf.printf "    %-60s %-8s%s\n" vc.Verus.Encode.vc_name
            (Vflow.Prescreen.verdict_string verdict)
            (if r.Vflow.Prescreen.vacuous then "  (hypotheses contradictory)"
             else if verdict = Vflow.Prescreen.Proved then
               Printf.sprintf "  (%d passes)" r.Vflow.Prescreen.passes
             else
               Printf.sprintf "  (%d fact(s), %d droppable hyp(s))"
                 (List.length r.Vflow.Prescreen.facts)
                 (List.length r.Vflow.Prescreen.drop));
          List.iter
            (fun f -> Printf.printf "        fact: %s\n" (Smt.Term.to_string f))
            r.Vflow.Prescreen.facts)
        vcs)
    targets;
  let findings = Vflow.Absint.analyze_program prog in
  if findings <> [] then begin
    print_endline "flow findings:";
    List.iter
      (fun (f : Vflow.Absint.finding) ->
        Printf.printf "  %s [%s] %s\n" f.Vflow.Absint.f_code f.Vflow.Absint.f_fn
          f.Vflow.Absint.f_msg)
      findings
  end;
  Printf.printf "== prescreen would discharge %d of %d obligation(s) without SMT\n" !proved
    !total;
  exit 0

(* --------------------------- profile ------------------------------ *)

let cmd_profile () =
  let prog_name, profile_name = program_and_profile () in
  let profile = find_profile profile_name in
  let profile = if !liberal then Verus.Profiles.liberal profile else profile in
  let prog = apply_fn_filter (find_program prog_name) !fn_filter in
  (* Lint in warn mode so the VL010 cross-check has findings to compare
     the measured hot-spots against; warn never aborts the run. *)
  let config =
    {
      Verus.Driver.Config.default with
      Verus.Driver.Config.jobs = !jobs;
      lint = Verus.Driver.Lint_warn;
      profile = true;
      ladder = resolve_ladder ();
      cache = cache_config ();
    }
  in
  let r = Verus.Driver.verify_program ~config profile prog in
  if !json then
    print_endline (Vbase.Json.to_string ~indent:true (Verus.Profile_report.to_json ~prog_name r))
  else begin
    List.iter
      (fun e -> Printf.printf "front-end error: %s\n" e)
      r.Verus.Driver.pr_front_end_errors;
    print_string (Verus.Profile_report.render_text ~top:!top ~prog_name r);
    cache_summary_line r;
    ladder_summary_line r
  end;
  exit (Verus.Vservice.result_exit_code r)

(* ---------------------------- lint -------------------------------- *)

let cmd_lint () =
  let prog_names, profile_names =
    List.partition (fun a -> List.mem_assoc a programs) !positional
  in
  let profile_name = List.fold_left (fun _ p -> p) "Verus" profile_names in
  let prog_names = if !all || prog_names = [] then List.map fst programs else prog_names in
  let profile = find_profile profile_name in
  let profile = if !liberal then Verus.Profiles.liberal profile else profile in
  if !json then begin
    (* One versioned document per invocation: the schema has a single
       "program" key, so --json covers exactly one program. *)
    let name =
      match prog_names with
      | [ n ] -> n
      | _ -> die_usage "lint --json expects exactly one program"
    in
    let ds = Verus.Vlint.lint profile (find_program name) in
    print_endline
      (Vbase.Json.to_string ~indent:true
         (Verus.Vlint.report_to_json ~prog_name:name
            ~profile_name:profile.Verus.Profiles.name ds));
    let n_err = List.length (Verus.Vlint.errors ds) in
    let n_warn =
      List.length (List.filter (fun d -> d.Verus.Vlint.severity = Verus.Vlint.Warn) ds)
    in
    exit (if n_err > 0 || (!strict && n_warn > 0) then 1 else 0)
  end;
  let n_err = ref 0 and n_warn = ref 0 and n_info = ref 0 in
  List.iter
    (fun name ->
      let prog = find_program name in
      let ds = Verus.Vlint.lint profile prog in
      Printf.printf "%-16s %s: %d finding(s)\n" name profile.Verus.Profiles.name
        (List.length ds);
      List.iter
        (fun (d : Verus.Vlint.diag) ->
          (match d.Verus.Vlint.severity with
          | Verus.Vlint.Error -> incr n_err
          | Verus.Vlint.Warn -> incr n_warn
          | Verus.Vlint.Info -> incr n_info);
          print_endline ("  " ^ Verus.Vlint.diag_to_string d))
        ds)
    prog_names;
  Printf.printf "== lint: %d error(s), %d warning(s), %d info\n" !n_err !n_warn !n_info;
  let failing = !n_err > 0 || (!strict && !n_warn > 0) in
  exit (if failing then 1 else 0)

(* ---------------------------- cache ------------------------------- *)

(* Exit 4 ("cache I/O problem") is deliberately distinct from both 0 and
   1: a corrupt or undeletable store is an environment problem, not a
   verification verdict, and scripts must not mistake one for the other. *)
let exit_cache_io = 4

let cmd_cache () =
  let action, dir_arg =
    match !positional with
    | [ a ] when a = "stats" || a = "clear" -> (a, None)
    | [ a; d ] when a = "stats" || a = "clear" -> (a, Some d)
    | a :: _ when a <> "stats" && a <> "clear" ->
      die_usage "cache expects stats or clear, got %s" a
    | _ -> die_usage "usage: verus_cli cache stats|clear [DIR]"
  in
  let dir =
    cache_dir := dir_arg;
    match resolve_cache_dir () with
    | Some d -> d
    | None -> die_usage "cache %s needs a directory (argument or VERUS_CACHE)" action
  in
  match action with
  | "clear" -> (
    match Verus.Vcache.clear ~dir with
    | Ok () ->
      Printf.printf "cache cleared: %s\n" (Filename.concat dir Verus.Vcache.file_name);
      exit 0
    | Error e ->
      Printf.eprintf "cache clear failed: %s\n" e;
      exit exit_cache_io)
  | _ ->
    let ds = Verus.Vcache.disk_stats ~dir in
    Printf.printf "cache %s (schema %s)\n"
      (Filename.concat dir Verus.Vcache.file_name)
      Verus.Vcache.schema_version;
    if not ds.Verus.Vcache.ds_exists then begin
      Printf.printf "  no store present (a cached verify run will create it)\n";
      exit 0
    end
    else begin
      Printf.printf "  entries: %d (%d bytes on disk)\n" ds.Verus.Vcache.ds_entries
        ds.Verus.Vcache.ds_bytes;
      List.iter
        (fun (kind, n) -> Printf.printf "    %-8s %d\n" kind n)
        ds.Verus.Vcache.ds_answers;
      if ds.Verus.Vcache.ds_dropped > 0 then
        Printf.printf "  malformed entries: %d (dropped at load)\n" ds.Verus.Vcache.ds_dropped;
      if ds.Verus.Vcache.ds_corrupt then
        Printf.printf "  store is CORRUPT (verify runs degrade to cold and rebuild it)\n";
      if ds.Verus.Vcache.ds_corrupt || ds.Verus.Vcache.ds_dropped > 0 then exit exit_cache_io
      else exit 0
    end

(* ---------------------------- daemon ------------------------------- *)

(* Exit 6 ("daemon connection or protocol failure") is an environment
   problem, like the cache subcommands' 4: no daemon at the socket, an
   unreadable frame, an RPC-level rejection.  Never a verdict — verdicts
   arrive in the done event and the client mirrors their exit_code. *)
let exit_daemon_io = 6

let default_socket () =
  match Sys.getenv_opt "VERUSD_SOCKET" with
  | Some p when p <> "" -> p
  | _ -> "verusd.sock"

let cmd_daemon () =
  if !positional <> [] then die_usage "unexpected daemon argument %s" (List.hd !positional);
  let socket_path = match !socket with Some p -> p | None -> default_socket () in
  let cache_dir = resolve_cache_dir () in
  Printf.printf "verusd: listening on %s (%d domain%s%s)\n%!" socket_path !domains
    (if !domains = 1 then "" else "s")
    (match cache_dir with Some d -> ", cache " ^ d | None -> ", no cache");
  match Verus.Vservice.serve ~socket_path ~domains:!domains ?cache_dir () with
  | Ok () ->
    Printf.printf "verusd: shut down\n%!";
    exit 0
  | Error e ->
    Printf.eprintf "verusd: %s\n" e;
    exit exit_daemon_io

(* ---------------------------- client ------------------------------- *)

let print_stream_event = function
  | Verusd.Rpc.E_vc { fn; vc; answer; reason; time_s; cached; rung } ->
    Printf.printf "vc  %-16s %-44s %-8s %.3fs%s%s%s\n%!" fn vc answer time_s
      (if cached then "  (cached)" else "")
      (match rung with Some r -> Printf.sprintf "  (rung %d)" r | None -> "")
      (match reason with Some r -> "  [" ^ r ^ "]" | None -> "")
  | Verusd.Rpc.E_fn { fn; ok; time_s; vcs } ->
    Printf.printf "fn  %-16s %-44s %-8s %.3fs\n%!" fn
      (Printf.sprintf "(%d vc%s)" vcs (if vcs = 1 then "" else "s"))
      (if ok then "OK" else "FAIL")
      time_s
  | _ -> ()

let done_int j key = match Vbase.Json.member key j with Some (Vbase.Json.Int n) -> Some n | _ -> None
let done_str j key = match Vbase.Json.member key j with Some (Vbase.Json.String s) -> Some s | _ -> None

let print_done j =
  let s key = Option.value ~default:"?" (done_str j key) in
  match done_str j "kind" with
  | Some "shutdown" -> print_endline "daemon shut down"
  | _ ->
    let time_s =
      match Vbase.Json.member "time_s" j with
      | Some v -> Option.value ~default:0.0 (Vbase.Json.to_float v)
      | None -> 0.0
    in
    let verdict =
      match done_int j "exit_code" with
      | Some 0 -> "VERIFIED"
      | Some 3 -> "UNKNOWN (solver budget exhausted)"
      | Some 5 -> "CERTIFICATE REJECTED"
      | _ -> "FAILED"
    in
    let verdict = match done_str j "kind" with Some "lint" -> (match done_int j "exit_code" with Some 0 -> "CLEAN" | _ -> "FINDINGS") | _ -> verdict in
    (match Vbase.Json.member "cache" j with
    | Some (Vbase.Json.Obj _ as c) ->
      let ci k = Option.value ~default:0 (done_int c k) in
      Printf.printf "cache: %d hit(s), %d miss(es), %d invalidation(s), %d store(s)\n"
        (ci "hits") (ci "misses") (ci "invalidations") (ci "stores")
    | _ -> ());
    Printf.printf "== %s / %s: %s in %.3fs (digest %s)\n" (s "program") (s "profile") verdict
      time_s (s "digest")

let cmd_client () =
  let meth, prog_name, profile_name =
    match !positional with
    | [] -> (None, None, None)
    | [ m ] -> (Some m, None, None)
    | [ m; prog ] -> (Some m, Some prog, None)
    | [ m; prog; profile ] -> (Some m, Some prog, Some profile)
    | _ :: _ :: _ :: extra :: _ -> die_usage "unexpected argument %s" extra
  in
  let socket_path = match !socket with Some p -> p | None -> default_socket () in
  let job kind =
    let program = Option.value ~default:"singly_linked" prog_name in
    Verusd.Rpc.M_job
      (Verusd.Rpc.query ?profile:profile_name ?lint:(Option.map snd !lint)
         ~certify:!certify ~analyze:!prescreen ~cache:(not !no_cache) ?ladder:!ladder
         ?rung:!rung ~stream:!stream kind program)
  in
  let method_ =
    match meth with
    | Some "ping" -> Verusd.Rpc.M_ping
    | Some "status" -> Verusd.Rpc.M_status
    | Some "shutdown" -> Verusd.Rpc.M_shutdown
    | Some "verify" -> job Verusd.Rpc.Verify
    | Some "lint" -> job Verusd.Rpc.Lint
    | Some "profile" -> job Verusd.Rpc.Profile
    | Some m -> die_usage "unknown client method %s" m
    | None -> die_usage "client needs a method (ping|status|shutdown|verify|lint|profile)"
  in
  match Verusd.Client.connect ~socket_path with
  | Error e ->
    Printf.eprintf "client: %s\n" e;
    exit exit_daemon_io
  | Ok c -> (
    let r = Verusd.Client.call c ~on_event:print_stream_event (Verusd.Rpc.request method_) in
    Verusd.Client.close c;
    match r with
    | Error e ->
      Printf.eprintf "client: %s\n" e;
      exit exit_daemon_io
    | Ok (Verusd.Rpc.E_pong) ->
      print_endline "pong";
      exit 0
    | Ok (Verusd.Rpc.E_status j) ->
      print_endline (Vbase.Json.to_string ~indent:true j);
      exit 0
    | Ok (Verusd.Rpc.E_done j) ->
      print_done j;
      exit (Option.value ~default:0 (done_int j "exit_code"))
    | Ok (Verusd.Rpc.E_error { code; message }) ->
      Printf.eprintf "client: daemon error %s: %s\n" code message;
      exit exit_daemon_io
    | Ok _ ->
      Printf.eprintf "client: unexpected terminal event\n";
      exit exit_daemon_io)

(* ----------------------------- main ------------------------------- *)

type command = {
  name : string;
  args : string;  (** positional synopsis *)
  specs : (Arg.key * Arg.spec * Arg.doc) list;
  run : unit -> unit;
  about : string;
}

let command name args specs run about = { name; args; specs; run; about }

let commands =
  [
    command "verify" "<program> [<profile>]" verify_specs cmd_verify
      "verify one bundled program under a profile (default: Verus)";
    command "analyze" "<program> [<profile>]" [ fn_spec ] cmd_analyze
      "run only the Vflow prescreen: per-obligation verdicts (proved /\n\
       refuted-hypothetical / unknown), derived facts shipped to SMT on\n\
       fall-through, and the VL04x flow findings — no solver runs";
    command "profile" "<program> [<profile>]" profile_specs cmd_profile
      "verify with the solver profiler on and print instantiation /\n\
       phase-time hot-spot tables (--json: the verus-profile document)";
    command "lint" "[<program>...] [<profile>]" lint_specs cmd_lint
      "run the Vlint static analyses; exit 1 on Error findings (--json:\n\
       one program only, the versioned verus-lint/1 report)";
    command "cache" "stats|clear [DIR]" [] cmd_cache
      "inspect or delete the verification cache in DIR (or VERUS_CACHE);\n\
       exit 4 on I/O problems (unreadable or corrupt store, failed delete)";
    command "daemon" "" daemon_specs cmd_daemon
      "run the persistent verification daemon in the foreground: binds a\n\
       Unix-domain socket speaking verus-rpc/1 (docs/PROTOCOL.md), keeps a\n\
       warm work-stealing pool and a shared verification cache across\n\
       requests, serves until a client sends shutdown";
    command "client" "ping|status|shutdown|verify|lint|profile [<program> [<profile>]]"
      client_specs cmd_client
      "send one request to a running daemon; job verdicts stream as they\n\
       land and the process exits with the daemon's exit_code (the same\n\
       0/1/3/5 as local verify), or 6 on connection/protocol failure";
    command "list" "" [] cmd_list "list bundled programs and profiles";
    command "codes" "" [] cmd_codes "print the VL0xx diagnostic-code table";
    command "ladders" "" [] cmd_ladders
      "print the built-in escalation ladders, rung by rung, with each\n\
       rung's semantic fingerprint";
  ]

let header c =
  String.concat "\n    "
    (String.concat " " (List.filter (( <> ) "") [ "verus_cli"; c.name; c.args ])
    :: String.split_on_char '\n' c.about)

(* A command's entry in the top-level help: its header, then the option
   list Arg renders from its specs, minus the -help / --help lines Arg
   adds to every list (kept with a blank doc, they are not printed). *)
let command_usage c =
  let blank (k, spec, doc) = if k = "-help" || k = "--help" then (k, spec, "") else (k, spec, doc) in
  Arg.usage_string (List.map blank (Arg.align c.specs)) (header c)

let usage oc =
  output_string oc "usage: verus_cli <command> [args]  (verus_cli <command> --help: one command)\n\n";
  List.iter (fun c -> output_string oc (command_usage c ^ "\n")) commands;
  Printf.fprintf oc
    "verus_cli help\n\
    \    this message\n\n\
     programs: %s\n\
     profiles: %s (case-insensitive; 'fstar' and 'lowstar' also accepted)\n\
     exit codes: 0 ok / 1 findings or failure / 2 usage / 3 solver budget exhausted\n\
    \            (3 = every failed obligation is Unknown: a timeout is not a refutation;\n\
    \            retry with a stronger ladder, e.g. --ladder deep)\n\
    \            / 4 cache I/O problem (cache subcommands only)\n\
    \            / 5 certificate rejected under --certify (VC003: the kernel\n\
    \            would not replay an Unsat's proof — not a counterexample)\n\
    \            / 6 daemon connection or protocol failure (client/daemon only)\n"
    (String.concat ", " (List.map fst programs))
    (String.concat ", " profile_names)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | _ :: ("help" | "--help" | "-h") :: _ ->
    usage stdout;
    exit 0
  | _ :: name :: _ -> (
    let name = if name = "--list" then "list" else name in
    match List.find_opt (fun c -> c.name = name) commands with
    | None ->
      prerr_endline ("unknown command " ^ name);
      usage stderr;
      exit 2
    | Some c ->
      let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
      argv.(0) <- "verus_cli " ^ name;
      (try
         Arg.parse_argv ~current:(ref 0) argv (Arg.align c.specs)
           (fun a -> positional := !positional @ [ a ])
           ("usage: " ^ header c)
       with
      | Arg.Help msg ->
        print_string msg;
        exit 0
      | Arg.Bad msg ->
        prerr_string msg;
        exit 2);
      c.run ())
  | [] -> exit 2
