(* Replays one verification job through the layers' public entry points,
   with a span around each call, in the order Driver.verify_program's
   sequential path makes them.  The driver itself is not instrumented:
   the benchmark times the real driver call first and then attributes
   that job's time to layers by replaying it here.  Whatever the replay's
   layer self times do not cover is the driver residue.

   The replay follows the driver's own decisions where it cannot make
   them itself (which ladder rungs an obligation climbed), and records
   every per-VC answer that differs from the driver's. *)

open Verus
module Ladder = Vladder.Ladder
module Rung = Vladder.Rung
module T = Smt.Term

type settings = {
  lint : Driver.lint_mode;
  certify : bool;
  analyze : bool;
  cache_dir : string option;
  ladder : Ladder.t option;
}

(* Counters summed over every replayed job of the run.  Times are kept
   in nanoseconds (keys ending in "_ns"), so every counter is written as
   a whole number. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add k v =
  Hashtbl.replace counters k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters k))

let incr k = add k 1.0
let set k v = Hashtbl.replace counters k v

(* One line per replayed answer that differs from the driver's. *)
let mismatches : string list ref = ref []

let answer_kind = function
  | Smt.Solver.Unsat -> "unsat"
  | Smt.Solver.Sat -> "sat"
  | Smt.Solver.Unknown _ -> "unknown"

let outcome_answer = function
  | Modes.Proved -> Smt.Solver.Unsat
  | Modes.Refuted _ -> Smt.Solver.Sat
  | Modes.Unsupported m -> Smt.Solver.Unknown m

let bytes ts = List.fold_left (fun acc t -> acc + T.printed_size t) 0 ts

let record_solve (r : Smt.Solver.result) =
  let ph = r.Smt.Solver.profile.Smt.Profile.phase in
  add "smt.sat_ns" (ph.Smt.Profile.ph_sat *. 1e9);
  add "smt.euf_ns" (ph.Smt.Profile.ph_euf *. 1e9);
  add "smt.lia_ns" (ph.Smt.Profile.ph_lia *. 1e9);
  add "smt.comb_ns" (ph.Smt.Profile.ph_comb *. 1e9);
  add "smt.ematch_ns" (ph.Smt.Profile.ph_ematch *. 1e9);
  add "smt.instances" (float_of_int r.Smt.Solver.stats.Smt.Solver.instances);
  add "smt.conflicts" (float_of_int r.Smt.Solver.stats.Smt.Solver.conflicts)

(* One solver attempt at [rung], dispatched on the VC's hint exactly as
   the driver dispatches it. *)
let attempt ~job (s : settings) (p : Profiles.t) prog ~axioms ~context ~eff_hyps ~facts ~drop
    (rung : Rung.t) (vc : Encode.vc) =
  let sp name f = Trace.span ~job name f in
  let base_ctx =
    match rung.Rung.r_pruning with
    | Rung.P_profile -> context
    | Rung.P_prune ->
      if p.Profiles.pruning then context
      else sp "prune" (fun () -> Driver.context_for { p with Profiles.pruning = true } prog vc)
    | Rung.P_full -> axioms
  in
  let eff_context =
    if drop = [] then base_ctx
    else List.filter (fun h -> not (List.exists (T.equal h) drop)) base_ctx
  in
  let cfg =
    Rung.apply_config rung
      (if s.certify then { p.Profiles.solver_config with Smt.Solver.certify = true }
       else p.Profiles.solver_config)
  in
  let budget = cfg.Smt.Solver.budget in
  let mode name plain cert =
    sp ("modes." ^ name) (fun () ->
        if s.certify then
          let o, c = cert () in
          (outcome_answer o, c)
        else (outcome_answer (plain ()), None))
  in
  let goal = vc.Encode.vc_goal in
  match vc.Encode.vc_hint with
  | Vir.H_default ->
    let r =
      if p.Profiles.epr_only then
        let all = base_ctx @ vc.Encode.vc_hyps @ [ T.not_ goal ] in
        match Smt.Epr.check_fragment all with
        | Error e -> Error e
        | Ok () -> Ok (sp "smt.epr" (fun () -> Smt.Epr.solve ~config:cfg all))
      else
        Ok
          (sp "smt.check_valid" (fun () ->
               Smt.Solver.check_valid ~config:cfg ~hyps:(eff_context @ eff_hyps @ facts) goal))
    in
    (match r with
    | Error e -> (Smt.Solver.Unknown ("outside EPR: " ^ e), None)
    | Ok r ->
      record_solve r;
      (r.Smt.Solver.answer, r.Smt.Solver.cert))
  | Vir.H_bit_vector ->
    mode "bit_vector"
      (fun () -> Modes.prove_bit_vector ~budget goal)
      (fun () -> Modes.prove_bit_vector_cert ~budget goal)
  | Vir.H_nonlinear ->
    mode "nonlinear"
      (fun () -> Modes.prove_nonlinear ~budget goal)
      (fun () -> Modes.prove_nonlinear_cert ~budget goal)
  | Vir.H_integer_ring ->
    mode "integer_ring"
      (fun () -> Modes.prove_integer_ring ~budget goal)
      (fun () -> Modes.prove_integer_ring_cert ~budget goal)
  | Vir.H_compute -> (
    match vc.Encode.vc_expr with
    | Some e ->
      mode "compute"
        (fun () -> Modes.prove_compute ~budget prog e)
        (fun () -> Modes.prove_compute_cert ~budget prog e)
    | None -> (Smt.Solver.Unknown "compute assert lost its expression", None))

(* Certificate emission and kernel replay for a certified Unsat; returns
   the digest the driver would store with the cache entry. *)
let certify ~job cert =
  let sp name f = Trace.span ~job name f in
  match cert with
  | None ->
    incr "vcheck.rejected";
    None
  | Some c -> (
    let json = sp "smt.cert" (fun () -> Smt.Cert.to_json c) in
    match sp "vcheck.check" (fun () -> Vcheck.check json) with
    | Vcheck.Checked st ->
      let replayed =
        st.Vcheck.inputs + st.Vcheck.rup + st.Vcheck.euf + st.Vcheck.farkas
        + st.Vcheck.trichotomy
      in
      add "vcheck.steps" (float_of_int (replayed + st.Vcheck.trusted));
      add "vcheck.trusted" (float_of_int st.Vcheck.trusted);
      Some (sp "smt.cert" (fun () -> Smt.Cert.digest c))
    | Vcheck.Rejected _ ->
      incr "vcheck.rejected";
      None)

let replay_vc ~job (s : settings) (p : Profiles.t) prog ~axioms ~cache ~rungs ~driver_tried
    (vc : Encode.vc) =
  let sp name f = Trace.span ~job name f in
  let context = sp "prune" (fun () -> Driver.context_for p prog vc) in
  add "prune.kept_axioms" (float_of_int (List.length context));
  add "prune.total_axioms" (float_of_int (List.length axioms));
  add "prune.query_bytes" (float_of_int (bytes ((vc.Encode.vc_goal :: vc.Encode.vc_hyps) @ context)));
  let analyze = s.analyze && not s.certify in
  let pre =
    if not analyze then None
    else (
      incr "vflow.checked";
      Some
        (sp "vflow.prescreen" (fun () ->
             Vflow.Prescreen.check ~hyps:(context @ vc.Encode.vc_hyps) ~goal:vc.Encode.vc_goal ())))
  in
  match pre with
  | Some pr when pr.Vflow.Prescreen.verdict = Vflow.Prescreen.Proved ->
    incr "vflow.proved";
    Smt.Solver.Unsat
  | _ -> (
    let facts, drop =
      match pre with
      | Some pr -> (pr.Vflow.Prescreen.facts, pr.Vflow.Prescreen.drop)
      | None -> ([], [])
    in
    let eff_hyps =
      if drop = [] then vc.Encode.vc_hyps
      else List.filter (fun h -> not (List.exists (T.equal h) drop)) vc.Encode.vc_hyps
    in
    let fp =
      Option.map
        (fun _ ->
          let fp_context =
            match s.ladder with
            | Some l when Ladder.widens l && p.Profiles.pruning -> axioms
            | _ -> context
          in
          sp "vcache.fingerprint" (fun () ->
              Vcache.fingerprint ~analyze
                ?ladder:(Option.map Ladder.fingerprint s.ladder)
                ~profile:p ~prog ~context:fp_context vc))
        cache
    in
    let hit =
      match (cache, fp) with
      | Some c, Some fp ->
        incr "vcache.lookups";
        sp "vcache.lookup" (fun () ->
            Vcache.lookup c ~name:vc.Encode.vc_name ~fp ~profile_wanted:false
              ~certified_wanted:s.certify)
      | _ -> None
    in
    match hit with
    | Some e ->
      incr "vcache.hits";
      e.Vcache.e_answer
    | None ->
      let t0 = Trace.now () in
      let solve rung =
        attempt ~job s p prog ~axioms ~context ~eff_hyps ~facts ~drop rung vc
      in
      (* An explicit ladder replays the rungs the driver climbed; the
         implicit one is a single attempt at the profile's own rung. *)
      let final_rung, (answer, cert) =
        match s.ladder with
        | None -> (None, solve rungs.(0))
        | Some _ ->
          let tried = if driver_tried = [] then [ 0 ] else driver_tried in
          let rec climb = function
            | [] -> assert false
            | i :: rest ->
              incr "vladder.attempts";
              let a = sp "vladder.attempt" (fun () -> solve rungs.(i)) in
              if rest = [] then (Some i, a)
              else (
                incr "vladder.escalations";
                climb rest)
          in
          let r = climb tried in
          incr "vladder.wins";
          r
      in
      (match answer with Smt.Solver.Unknown _ -> incr "smt.unknowns" | _ -> ());
      let cert_digest =
        if s.certify && answer = Smt.Solver.Unsat then certify ~job cert else None
      in
      (match (cache, fp) with
      | Some c, Some fp ->
        sp "vcache.store" (fun () ->
            Vcache.store c ~name:vc.Encode.vc_name ~fp
              {
                Vcache.e_answer = answer;
                e_detail = "";
                e_bytes = 0;
                e_time_s = Trace.now () -. t0;
                e_profile = None;
                e_cert_digest = cert_digest;
                e_rung = final_rung;
              })
      | _ -> ());
      answer)

(* What the real run decided: front-end errors, and per function, in
   encoding order, each obligation's name, answer kind and the ladder
   rungs it climbed. *)
type expected = {
  x_front_end : string list;
  x_fns : (string * (string * string * int list) list) list;
}

let expected_of_result (r : Driver.program_result) =
  {
    x_front_end = r.Driver.pr_front_end_errors;
    x_fns =
      List.map
        (fun (f : Driver.fn_result) ->
          ( f.Driver.fnr_name,
            List.map
              (fun (v : Driver.vc_result) ->
                (v.Driver.vcr_name, answer_kind v.Driver.vcr_answer, v.Driver.vcr_rungs_tried))
              f.Driver.fnr_vcs ))
        r.Driver.pr_fns;
  }

let run ~job ~label (s : settings) (p : Profiles.t) (prog : Vir.program) (x : expected) =
  let sp name f = Trace.span ~job name f in
  let mismatch fmt = Printf.ksprintf (fun m -> mismatches := (label ^ ": " ^ m) :: !mismatches) fmt in
  if s.lint <> Driver.Lint_ignore then ignore (sp "vlint" (fun () -> Vlint.lint p prog));
  let errs = function Ok () -> [] | Error es -> es in
  let fe =
    errs (sp "typecheck" (fun () -> Typecheck.check_program prog))
    @ errs (sp "ownership" (fun () -> Ownership.check_program prog))
  in
  if fe <> x.x_front_end then mismatch "front-end errors differ";
  if fe = [] then begin
    let cache =
      Option.map (fun dir -> sp "vcache.open" (fun () -> Vcache.open_ { Vcache.dir })) s.cache_dir
    in
    let axioms = sp "encode" (fun () -> Encode.program_axioms p prog) in
    let rungs = Ladder.rungs (Option.value s.ladder ~default:Ladder.identity) in
    (match s.ladder with
    | Some l when Ladder.length l > 1 ->
      ignore (sp "vlint" (fun () -> Vlint.vl010_heads (Vlint.check_axioms p axioms)))
    | _ -> ());
    let targets =
      List.filter (fun fd -> fd.Vir.fmode <> Vir.Spec && fd.Vir.body <> None) prog.Vir.functions
    in
    List.iter
      (fun (fd : Vir.fndecl) ->
        let vcs = sp "encode" (fun () -> Encode.encode_function p prog fd) in
        add "encode.vcs" (float_of_int (List.length vcs));
        let dvcs = Option.value ~default:[] (List.assoc_opt fd.Vir.fname x.x_fns) in
        if List.length dvcs <> List.length vcs then
          mismatch "%s: %d obligations replayed, driver had %d" fd.Vir.fname (List.length vcs)
            (List.length dvcs);
        List.iteri
          (fun i vc ->
            let dv = List.nth_opt dvcs i in
            let driver_tried = match dv with Some (_, _, t) -> t | None -> [] in
            let a = replay_vc ~job s p prog ~axioms ~cache ~rungs ~driver_tried vc in
            match dv with
            | Some (_, k, _) when k <> answer_kind a ->
              mismatch "%s: driver %s, replay %s" vc.Encode.vc_name k (answer_kind a)
            | _ -> ())
          vcs)
      targets;
    Option.iter
      (fun c ->
        match sp "vcache.flush" (fun () -> Vcache.flush c) with
        | Ok () -> ()
        | Error e -> mismatch "cache flush failed: %s" e)
      cache
  end
