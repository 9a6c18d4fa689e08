(* CI smoke for the Vladder escalation ladder (`dune build @ladder`):

   1. verdict agreement: for a suite of program x profile combinations,
      an escalate-ladder run's result digest equals the monolithic
      (ladder-free) run's — the ladder may change cost, never truth
      (the escalate ladder's top rung is the untouched profile, so even
      obligations that climb all the way answer identically);
   2. winning rungs stand alone: every obligation's recorded winning
      rung, re-run pinned ([Ladder.pin]) as a single-rung ladder, must
      reproduce the same answer — a win is a property of the rung's
      configuration, not of the climb that led there;
   3. the winning-rung jump: a cold escalate run over a program with
      real escalations fills the cache; a warm identical run serves
      every obligation from it with an identical digest; and a warm
      profiled run — whose lookups are gated out because the cold
      entries carry no profile — must jump straight to each recorded
      winning rung, wasting zero lower-rung attempts.

   Exit 0 when all hold, 1 with a message otherwise. *)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("ladder_smoke: FAIL: " ^ m); exit 1) fmt

let check name cond = if not cond then fail "%s" name else Printf.printf "  ok: %s\n%!" name

let digest = Verus.Driver.result_digest

let vcs_of (r : Verus.Driver.program_result) =
  List.concat_map (fun (f : Verus.Driver.fn_result) -> f.Verus.Driver.fnr_vcs)
    r.Verus.Driver.pr_fns

(* Attempts spent at rungs strictly below the winning rung. *)
let wasted r =
  List.fold_left
    (fun acc (v : Verus.Driver.vc_result) ->
      match v.Verus.Driver.vcr_rung with
      | Some w ->
        acc + List.length (List.filter (fun t -> t < w) v.Verus.Driver.vcr_rungs_tried)
      | None -> acc)
    0 (vcs_of r)

let suite =
  [
    ("singly_linked", Verus.Bench_programs.singly_linked, Verus.Profiles.verus);
    ("singly_linked", Verus.Bench_programs.singly_linked, Verus.Profiles.dafny);
    ( "singly_linked",
      Verus.Bench_programs.singly_linked,
      Verus.Profiles.liberal Verus.Profiles.verus );
    ("const_cond", Verus.Bench_programs.const_cond, Verus.Profiles.verus);
    ("break_pop", Verus.Bench_programs.break_pop, Verus.Profiles.verus);
  ]

let () =
  let ladder = Verus.Driver.Ladder.escalate in
  (* 1 + 2: digest agreement, then every winning rung re-verified pinned. *)
  List.iter
    (fun (name, prog, (p : Verus.Profiles.t)) ->
      let tag = Printf.sprintf "%s / %s" name p.Verus.Profiles.name in
      let mono = Verus.Driver.verify_program p prog in
      let lad =
        Verus.Driver.verify_program
          ~config:Verus.Driver.Config.(default |> with_ladder ladder)
          p prog
      in
      check (tag ^ ": ladder digest equals monolithic digest")
        (String.equal (digest mono) (digest lad));
      (* Group obligations by winning rung; one pinned run per rung. *)
      let rungs =
        List.sort_uniq compare
          (List.filter_map (fun (v : Verus.Driver.vc_result) -> v.Verus.Driver.vcr_rung)
             (vcs_of lad))
      in
      check (tag ^ ": every obligation records a winning rung")
        (List.for_all
           (fun (v : Verus.Driver.vc_result) -> v.Verus.Driver.vcr_rung <> None)
           (vcs_of lad));
      List.iter
        (fun w ->
          let pinned =
            match Verus.Driver.Ladder.pin ladder w with
            | Ok l -> l
            | Error e -> fail "%s: pin %d: %s" tag w e
          in
          let pr =
            Verus.Driver.verify_program
              ~config:Verus.Driver.Config.(default |> with_ladder pinned)
              p prog
          in
          (* Obligation names can repeat (two assertions in one body), so
             match positionally: [fnr_vcs] is back in encoding order in
             both runs. *)
          let lad_vcs = vcs_of lad and pin_vcs = vcs_of pr in
          if List.length lad_vcs <> List.length pin_vcs then
            fail "%s: pinned run has %d obligation(s), ladder run %d" tag
              (List.length pin_vcs) (List.length lad_vcs);
          List.iter2
            (fun (v : Verus.Driver.vc_result) (pv : Verus.Driver.vc_result) ->
              if not (String.equal v.Verus.Driver.vcr_name pv.Verus.Driver.vcr_name) then
                fail "%s: obligation order differs (%S vs %S)" tag v.Verus.Driver.vcr_name
                  pv.Verus.Driver.vcr_name;
              if
                v.Verus.Driver.vcr_rung = Some w
                && v.Verus.Driver.vcr_answer <> pv.Verus.Driver.vcr_answer
              then
                fail "%s: %S won at rung %d but answers differently when pinned there"
                  tag v.Verus.Driver.vcr_name w)
            lad_vcs pin_vcs;
          Printf.printf "  ok: %s: rung-%d winners reproduce pinned\n%!" tag w)
        rungs)
    suite;

  (* 3: the winning-rung jump, over a program with real escalations
     (break_pop's refuted obligation must climb to the top rung — a Sat
     from a pruned, conservatively-triggered rung is never final). *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-ladder-smoke-%d" (Unix.getpid ()))
  in
  (match Verus.Vcache.clear ~dir with Ok () -> () | Error _ -> ());
  let run ~profile () =
    Verus.Driver.verify_program
      ~config:
        Verus.Driver.Config.(
          default |> with_ladder ladder |> with_cache dir |> with_profile profile)
      Verus.Profiles.verus Verus.Bench_programs.break_pop
  in
  let cold = run ~profile:false () in
  check "cold break_pop run escalates (wasted lower-rung attempts > 0)" (wasted cold > 0);
  let warm = run ~profile:false () in
  let hits =
    match warm.Verus.Driver.pr_ladder with
    | Some ls -> ls.Verus.Driver.ls_cache_hits
    | None -> 0
  in
  check
    (Printf.sprintf "warm run serves all %d obligation(s) from the cache"
       (List.length (vcs_of warm)))
    (hits = List.length (vcs_of warm));
  check "warm digest equals cold digest" (String.equal (digest cold) (digest warm));
  let jump = run ~profile:true () in
  let hint_starts =
    match jump.Verus.Driver.pr_ladder with
    | Some ls -> ls.Verus.Driver.ls_hint_starts
    | None -> 0
  in
  check "warm profiled run jumps to a recorded winning rung" (hint_starts > 0);
  check "warm profiled run wastes zero lower-rung attempts" (wasted jump = 0);
  check "warm profiled digest equals cold digest" (String.equal (digest cold) (digest jump));

  print_endline "ladder_smoke: all checks passed"
