(* The paper-reproduction benchmark harness: one section per table/figure
   of the evaluation (§4).  Run everything:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- fig7a fig14 --quick

   --quick shrinks sweeps (used in CI-ish runs).  Every section prints the
   measured numbers next to what the paper reports; EXPERIMENTS.md records
   a full run.  Absolute numbers are expected to differ (our substrate is a
   from-scratch OCaml solver on a 1-CPU container); the shapes are the
   reproduction target. *)

let quick = ref false

let header title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n%!" s) fmt

(* ------------------------------------------------------------------ *)
(* Verification-side helpers                                           *)
(* ------------------------------------------------------------------ *)

let verify_time ?(jobs = 1) profile prog =
  let config = Verus.Driver.Config.(with_jobs jobs default) in
  let r = Verus.Driver.verify_program ~config profile prog in
  (r.Verus.Driver.pr_ok, r.Verus.Driver.pr_time_s, r.Verus.Driver.pr_bytes)

(* ------------------------------------------------------------------ *)
(* Solver-profile collection                                           *)
(*                                                                     *)
(* The timed runs above stay profile-off (the opt-in costs nothing     *)
(* when off, but the bench numbers should measure exactly what the     *)
(* figures measured before).  Sections that want instantiation         *)
(* attribution run [verify_profiled] — a separate profiled pass whose  *)
(* wall-clock is never reported as a figure number — and every         *)
(* document collected this way is written to BENCH_profile.json at     *)
(* exit, in the same versioned verus-profile schema the CLI emits and  *)
(* test/test_profile.ml validates.                                     *)
(* ------------------------------------------------------------------ *)

let profile_docs : (string * Vbase.Json.t) list ref = ref []

let verify_profiled ?(jobs = 1) ~section ~prog_name (p : Verus.Profiles.t) prog =
  let config =
    Verus.Driver.Config.(
      default |> with_jobs jobs |> with_lint Verus.Driver.Lint_warn |> with_profile true)
  in
  let r = Verus.Driver.verify_program ~config p prog in
  if r.Verus.Driver.pr_prof <> None then
    profile_docs := (section, Verus.Profile_report.to_json ~prog_name r) :: !profile_docs;
  r

(* A three-line hot-spot digest: enough to see *which* axiom dominated a
   row without the full `verus_cli profile` table. *)
let profile_digest ?(top = 3) (r : Verus.Driver.program_result) =
  match r.Verus.Driver.pr_prof with
  | None -> ()
  | Some pp ->
    let smt = pp.Verus.Driver.pp_smt in
    let ph = smt.Smt.Profile.phase in
    Printf.printf
      "    %d instantiation(s) over %d round(s); euf %.2fs lia %.2fs ematch %.3fs\n"
      (Smt.Profile.total_instances smt)
      smt.Smt.Profile.inst_rounds ph.Smt.Profile.ph_euf ph.Smt.Profile.ph_lia
      ph.Smt.Profile.ph_ematch;
    List.iteri
      (fun i (q : Smt.Profile.quant_profile) ->
        let label = q.Smt.Profile.q_label in
        let label =
          if String.length label > 84 then String.sub label 0 81 ^ "..." else label
        in
        Printf.printf "      #%d %6d inst  %s\n" (i + 1) q.Smt.Profile.q_instances label)
      (Smt.Profile.top top smt);
    flush stdout

let write_profile_json () =
  if !profile_docs <> [] then begin
    let doc =
      Vbase.Json.Obj
        [
          ("schema", Vbase.Json.String "verus-profile-bench/1");
          ("per_document_schema", Vbase.Json.String Verus.Profile_report.schema_version);
          ( "documents",
            Vbase.Json.List
              (List.rev_map
                 (fun (section, d) ->
                   Vbase.Json.Obj
                     [ ("section", Vbase.Json.String section); ("profile", d) ])
                 !profile_docs) );
        ]
    in
    let oc = open_out "BENCH_profile.json" in
    output_string oc (Vbase.Json.to_string ~indent:true doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %d profile document(s) to BENCH_profile.json\n%!"
      (List.length !profile_docs)
  end

(* Verification timings on small programs are noisy (hashtable iteration
   orders steer the search); report the best of three runs, as benchmark
   harnesses for solvers usually do. *)
let verify_time3 ?jobs profile prog =
  let runs = List.init (if !quick then 1 else 3) (fun _ -> verify_time ?jobs profile prog) in
  List.fold_left
    (fun (bok, bt, bb) (ok, t, b) -> if t < bt then (ok, t, b) else (bok, bt, bb))
    (List.hd runs) (List.tl runs)

let status_cell (ok, time, _) = if ok then Printf.sprintf "%8.2fs" time else "   FAIL "

(* A per-profile verification-time budget: heavyweight profiles that blow
   through it are reported as "timeout" (which is itself the result the
   paper reports for some tools, e.g. Low* on the memory benchmark). *)
let with_deadline seconds f =
  let result = ref None in
  let d = Domain.spawn (fun () -> result := Some (f ())) in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    if !result <> None then Domain.join d
    else if Unix.gettimeofday () -. t0 > seconds then raise Exit
    else begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  (try wait () with Exit -> ());
  !result
[@@warning "-unused-value-declaration"]

(* ------------------------------------------------------------------ *)
(* fig7a: linked-list verification times across frameworks             *)
(* ------------------------------------------------------------------ *)

let fig7a () =
  header "Figure 7a: verification time (s), singly / doubly linked list";
  Printf.printf "  paper: Verus 0.66/1.15  Creusot 1.88/30.8  Dafny 3.83/28.1  Low* 7.16/70.2  Prusti 18.8/n-a  (Ivy: cannot express)\n\n";
  Printf.printf "  %-10s %-14s %-14s\n" "profile" "single" "double";
  let profiles = Verus.Profiles.all in
  List.iter
    (fun (p : Verus.Profiles.t) ->
      let cell prog =
        let r = verify_time3 p prog in
        let ok, t, _ = r in
        if ok then Printf.sprintf "%.2fs" t
        else begin
          (* Distinguish 'cannot express' (Ivy) from slow/failed. *)
          let pr = Verus.Driver.verify_program p prog in
          match Verus.Driver.first_failure pr with
          | Some (_, _, _) when p.Verus.Profiles.epr_only -> "n/a (EPR)"
          | _ -> Printf.sprintf "fail(%.0fs)" t
        end
      in
      let single = cell Verus.Bench_programs.singly_linked in
      let double =
        if p.Verus.Profiles.epr_only then "n/a (EPR)"
        else cell Verus.Bench_programs.doubly_linked
      in
      Printf.printf "  %-10s %-14s %-14s\n%!" p.Verus.Profiles.name single double)
    profiles;
  (* Where the time goes: a profiled pass (not counted in the numbers
     above) for the two encodings the paper contrasts most directly. *)
  Printf.printf "\n  instantiation hot-spots (singly linked; profiled pass, untimed):\n";
  List.iter
    (fun (p : Verus.Profiles.t) ->
      Printf.printf "  %s:\n" p.Verus.Profiles.name;
      profile_digest
        (verify_profiled ~section:"fig7a" ~prog_name:"singly_linked" p
           Verus.Bench_programs.singly_linked))
    [ Verus.Profiles.verus; Verus.Profiles.dafny ]

(* ------------------------------------------------------------------ *)
(* fig7b: memory reasoning, time vs pushes                              *)
(* ------------------------------------------------------------------ *)

let fig7b () =
  header "Figure 7b: memory-reasoning verification time vs number of pushes";
  Printf.printf
    "  paper: Verus stays linear (~1.6 ms/push); Dafny grows dramatically; Low* fails beyond one push.\n\n";
  let pushes = if !quick then [ 2; 4 ] else [ 4; 8; 12; 16 ] in
  (* Bound each verification condition at 20s so the sweep terminates;
     profiles that exceed it report failure — the counterpart of "Low*
     fails to return beyond one push" in the paper. *)
  let cap (p : Verus.Profiles.t) =
    Verus.Profiles.with_budget { (Verus.Profiles.budget p) with Smt.Solver.deadline_s = 20.0 } p
  in
  let profiles =
    List.map cap
      [ Verus.Profiles.verus; Verus.Profiles.creusot; Verus.Profiles.prusti; Verus.Profiles.dafny ]
  in
  Printf.printf "  %-10s" "pushes";
  List.iter (fun n -> Printf.printf " %10d" n) pushes;
  Printf.printf "\n";
  List.iter
    (fun (p : Verus.Profiles.t) ->
      Printf.printf "  %-10s" p.Verus.Profiles.name;
      List.iter
        (fun n ->
          (* Single runs: these verifications are long enough that noise
             is small relative to the trend. *)
          let r = verify_time p (Verus.Bench_programs.memory_reasoning n) in
          Printf.printf " %10s" (status_cell r);
          flush stdout)
        pushes;
      Printf.printf "\n%!")
    profiles

(* ------------------------------------------------------------------ *)
(* fig8: time to report an error on broken proofs                       *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "Figure 8: time to failure report on broken proofs (pop / index)";
  Printf.printf
    "  paper: Verus/Dafny/Prusti report errors as fast as success; Low* and Creusot degrade.\n\n";
  Printf.printf "  %-10s %-12s %-12s %-12s\n" "profile" "success" "break pop" "break index";
  List.iter
    (fun (p : Verus.Profiles.t) ->
      if not p.Verus.Profiles.epr_only then begin
        let _, t_ok, _ = verify_time3 p Verus.Bench_programs.singly_linked in
        let time_broken prog =
          let r = Verus.Driver.verify_program p prog in
          (* Failure expected; report wall time to the failure. *)
          (Verus.Driver.first_failure r <> None, r.Verus.Driver.pr_time_s)
        in
        let failed1, t1 = time_broken Verus.Bench_programs.break_pop in
        let failed2, t2 = time_broken Verus.Bench_programs.break_index in
        Printf.printf "  %-10s %10.2fs %10.2fs%s %10.2fs%s\n%!" p.Verus.Profiles.name t_ok t1
          (if failed1 then "" else "!")
          t2
          (if failed2 then "" else "!")
      end)
    [ Verus.Profiles.verus; Verus.Profiles.creusot; Verus.Profiles.dafny; Verus.Profiles.fstar; Verus.Profiles.prusti ]

(* ------------------------------------------------------------------ *)
(* fig9: macrobenchmark table                                           *)
(* ------------------------------------------------------------------ *)

let count_lines dir =
  (* Source lines of the library implementing a case study. *)
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.fold_left
         (fun acc f ->
           let ic = open_in (Filename.concat dir f) in
           let n = ref 0 in
           (try
              while true do
                ignore (input_line ic);
                incr n
              done
            with End_of_file -> ());
           close_in ic;
           acc + !n)
         0
  with Sys_error _ -> 0

let fig9 () =
  header "Figure 9: macrobenchmark statistics (per case study)";
  Printf.printf
    "  paper: Verus verifies each ported/new system 10-100x faster than the original tools,\n";
  Printf.printf "  with ~95%% smaller SMT queries; see EXPERIMENTS.md for the line-count mapping.\n\n";
  Printf.printf "  %-12s %8s %10s %10s %10s  %s\n" "system" "LoC" "obligs" "1-core" "8-core" "notes";
  let row name dir f =
    let loc = count_lines dir in
    let t0 = Unix.gettimeofday () in
    let n_ob, ok = f 1 in
    let t1 = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    let _ = f 8 in
    let t8 = Unix.gettimeofday () -. t0 in
    Printf.printf "  %-12s %8d %10d %9.2fs %9.2fs  %s\n%!" name loc n_ob t1 t8
      (if ok then "all proved" else "FAILURES")
  in
  (* IronKV: the delegation-map EPR proof plus the default-mode distributed
     lock (its protocol cousin). *)
  row "IronKV" "lib/ironkv" (fun _jobs ->
      let obs = Ironkv.Delegation_proof.run () in
      let marsh = Ironkv.Marshal_proofs.run () in
      let lock = Verus.Dlock_epr.run () in
      let r = Verus.Driver.verify_program Verus.Profiles.verus Verus.Bench_programs.dlock_default in
      ( List.length obs + List.length marsh + List.length lock
        + List.length (List.concat_map (fun f -> f.Verus.Driver.fnr_vcs) r.Verus.Driver.pr_fns),
        Ironkv.Delegation_proof.all_proved obs
        && Ironkv.Marshal_proofs.all_proved marsh
        && Verus.Dlock_epr.all_proved lock && r.Verus.Driver.pr_ok ));
  (* NR: the VerusSync protocol obligations + refinement to the atomic
     log spec. *)
  row "NR" "lib/nr" (fun _jobs ->
      let rep = Nr_lib.Nr_model.check ~replicas:4 () in
      let refn = Nr_lib.Nr_model.check_refinement ~replicas:4 () in
      ( List.length rep.Verus.Vsync.obligations + List.length refn.Verus.Vsync.obligations,
        rep.Verus.Vsync.ok && refn.Verus.Vsync.ok ));
  (* Page table: the 3.3-mode battery + the DLL program and the vstd seq
     lemma library stand in for its data-structure proofs. *)
  row "Page table" "lib/pagetable" (fun jobs ->
      let obs = Pagetable.Pagetable_proofs.run () in
      let config = Verus.Driver.Config.(with_jobs jobs default) in
      let r = Verus.Driver.verify_program ~config Verus.Profiles.verus Verus.Bench_programs.doubly_linked in
      let r2 = Verus.Vstd_seq.verify () in
      ( List.length obs
        + List.length (List.concat_map (fun f -> f.Verus.Driver.fnr_vcs) r.Verus.Driver.pr_fns)
        + List.length (List.concat_map (fun f -> f.Verus.Driver.fnr_vcs) r2.Verus.Driver.pr_fns),
        Pagetable.Pagetable_proofs.all_proved obs && r.Verus.Driver.pr_ok && r2.Verus.Driver.pr_ok ));
  (* Mimalloc: delayed-free protocol + the memory-reasoning program. *)
  row "Mimalloc" "lib/valloc" (fun jobs ->
      let rep = Valloc.Alloc_model.check ~capacity:4096 () in
      let config = Verus.Driver.Config.(with_jobs jobs default) in
      let r = Verus.Driver.verify_program ~config Verus.Profiles.verus (Verus.Bench_programs.memory_reasoning 4) in
      ( List.length rep.Verus.Vsync.obligations
        + List.length (List.concat_map (fun f -> f.Verus.Driver.fnr_vcs) r.Verus.Driver.pr_fns),
        rep.Verus.Vsync.ok && r.Verus.Driver.pr_ok ));
  (* Persistent log: the CRC table by(compute), all 256 entries. *)
  row "P. log" "lib/plog" (fun _jobs ->
      let rs = Plog.Crc_proof.check_all () in
      (List.length rs, Plog.Crc_proof.all_proved rs))

(* ------------------------------------------------------------------ *)
(* fig10: IronKV throughput                                             *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Figure 10: IronKV throughput (kop/s), Get/Set x payload size";
  Printf.printf
    "  paper: the Verus port performs comparably to the IronFleet original (both ~2-4 kop/s there).\n\n";
  let ops = if !quick then 3_000 else 20_000 in
  Printf.printf "  %-22s %10s %10s %10s\n" "workload" "128B" "256B" "512B";
  List.iter
    (fun (label, style, get_ratio) ->
      Printf.printf "  %-22s" label;
      List.iter
        (fun payload ->
          let r = Ironkv.Workload.run ~style ~payload ~ops ~get_ratio () in
          Printf.printf " %9.1fk" r.Ironkv.Workload.kops_per_s;
          flush stdout)
        [ 128; 256; 512 ];
      Printf.printf "\n%!")
    [
      ("Get (Verus port)", `Inplace, 1.0);
      ("Get (IronFleet-style)", `Copying, 1.0);
      ("Set (Verus port)", `Inplace, 0.0);
      ("Set (IronFleet-style)", `Copying, 0.0);
    ]

(* ------------------------------------------------------------------ *)
(* fig10-faults: IronKV under an adversarial network                    *)
(* ------------------------------------------------------------------ *)

let fig10_faults () =
  header "Figure 10 (faults): IronKV throughput (kop/s) under message drop + duplication";
  Printf.printf
    "  deterministic fault plan (seeded); clients retransmit with exponential backoff,\n\
    \  hosts absorb duplicates via the at-most-once reply cache.\n\n";
  let ops = if !quick then 2_000 else 10_000 in
  Printf.printf "  %-14s %10s %14s %12s\n" "drop+dup %" "kop/s" "retransmits" "net msgs";
  List.iter
    (fun pct ->
      let r =
        Ironkv.Workload.run ~style:`Inplace ~ops ~payload:128 ~get_ratio:0.5 ~drop_pct:pct
          ~net_dup_pct:pct ~fault_seed:(100 + pct) ()
      in
      let sent =
        match List.assoc_opt "sent" r.Ironkv.Workload.net_stats with Some n -> n | None -> 0
      in
      Printf.printf "  %-14d %9.1fk %14d %12d\n%!" pct r.Ironkv.Workload.kops_per_s
        r.Ironkv.Workload.retransmissions sent)
    [ 0; 1; 5; 20 ]

(* ------------------------------------------------------------------ *)
(* kv: durable IronKV — group commit, storms, recovery                  *)
(* ------------------------------------------------------------------ *)

let kv_bench () =
  header "Durable IronKV: group commit throughput, crash+partition storms, recovery";
  Printf.printf
    "  Hosts persist every acknowledged mutation to per-host logs over simulated PMEM\n\
    \  (group commit, deferred sends); storms crash/partition hosts mid-workload and\n\
    \  every crash recovers by replaying the committed log prefix.  acked_write_loss\n\
    \  comes from the storm crosscheck's readback sweep and must be 0.\n\n";
  let module W = Ironkv.Workload in
  let ops = if !quick then 2_000 else 12_000 in
  let zkeys = if !quick then 100_000 else 1_000_000 in
  let dur group = { W.du_group = group; du_mem_bytes = 1 lsl 24 } in
  Printf.printf "  %-24s %9s %9s %9s %8s %6s %9s\n" "configuration" "kop/s" "p50 ms" "p99 ms"
    "crashes" "recov" "replayed";
  let rows = ref [] in
  let add name r loss =
    Printf.printf "  %-24s %8.1fk %9.4f %9.4f %8d %6d %9d\n%!" name r.W.kops_per_s
      r.W.lat_p50_ms r.W.lat_p99_ms r.W.crashes r.W.recoveries r.W.replayed;
    rows := W.kv_bench_row ~name ~acked_write_loss:loss r :: !rows
  in
  add "volatile" (W.run ~style:`Inplace ~ops ()) 0;
  add "durable group=1" (W.run ~style:`Inplace ~ops ~durability:(dur 1) ()) 0;
  add "durable group=8" (W.run ~style:`Inplace ~ops ~durability:(dur 8) ()) 0;
  add
    (Printf.sprintf "durable zipf %dk keys" (zkeys / 1000))
    (W.run ~style:`Inplace ~ops ~keys:zkeys ~durability:(dur 8) ~dist:(`Zipf 1.1) ())
    0;
  (* The storm row's acked_write_loss is pinned by a paired differential
     crosscheck under the same fault classes: its closing readback sweep
     re-reads every acknowledged write after the storm. *)
  let report, verdict =
    W.crosscheck_report
      ~ops:(if !quick then 300 else 800)
      ~seed:29 ~fault_seed:78 ~durability:(dur 4) ~crash_pct:2 ~partition_pct:1 ~torn_pct:1 ()
  in
  let loss = match verdict with Ok () -> 0 | Error _ -> 1 in
  add "storm crash+part+torn"
    (W.run ~style:`Inplace ~ops:(ops / 2) ~durability:(dur 4) ~crash_pct:1 ~partition_pct:1
       ~torn_pct:1 ~fault_seed:77 ())
    loss;
  (match verdict with
  | Ok () ->
    Printf.printf
      "  storm crosscheck: %d acked writes re-verified, 0 lost (%d crashes, %d recoveries)\n%!"
      report.W.sr_readback
      (report.W.sr_crashes + report.W.sr_torn)
      report.W.sr_recoveries
  | Error e -> Printf.printf "  !! storm crosscheck FAILED: %s\n%!" e);
  Printf.printf "\n  recovery time vs. log size (isolated probe, group=64):\n";
  Printf.printf "  %-12s %12s %14s\n" "records" "recover s" "records/s";
  let probes =
    List.map
      (fun records ->
        let secs, replayed = W.recovery_probe ~records ~payload:64 ~group:64 () in
        Printf.printf "  %-12d %12.4f %14.0f\n%!" records secs
          (float_of_int replayed /. max secs 1e-9);
        Vbase.Json.Obj
          [ ("records", Vbase.Json.Int records); ("seconds", Vbase.Json.Float secs) ])
      (if !quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ])
  in
  let doc =
    match W.kv_bench_doc (List.rev !rows) with
    | Vbase.Json.Obj fields ->
      Vbase.Json.Obj (fields @ [ ("recovery_probe", Vbase.Json.List probes) ])
    | j -> j
  in
  (match W.validate_kv_bench doc with
  | Ok () -> ()
  | Error e -> Printf.printf "  !! BENCH_kv.json failed self-validation: %s\n%!" e);
  let oc = open_out "BENCH_kv.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote %d row(s) to BENCH_kv.json\n%!" (List.length !rows)

(* ------------------------------------------------------------------ *)
(* fig11: NR throughput                                                 *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Figure 11: NR throughput (Mop/s) vs threads, at 0%/10%/100% writes";
  Printf.printf
    "  paper: Verus-NR matches unverified NR, both far above a global lock for read-heavy loads.\n";
  note "this container exposes %d CPU(s); domain scaling is bounded by that (DESIGN.md)."
    (Domain.recommended_domain_count ());
  let threads = if !quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let ops = if !quick then 20_000 else 50_000 in
  List.iter
    (fun write_pct ->
      Printf.printf "\n  -- %d%% writes --\n" write_pct;
      Printf.printf "  %-14s" "threads";
      List.iter (fun t -> Printf.printf " %8d" t) threads;
      Printf.printf "\n";
      List.iter
        (fun (label, f) ->
          Printf.printf "  %-14s" label;
          List.iter
            (fun t ->
              let r = f ~threads:t ~ops_per_thread:ops ~write_pct in
              Printf.printf " %8.2f" r.Nr_lib.Nr_bench.mops_per_s;
              flush stdout)
            threads;
          Printf.printf "\n%!")
        [
          ("Verus-NR", Nr_lib.Nr_bench.nr);
          ("NR (unverif.)", Nr_lib.Nr_bench.nr_unverified);
          ("global mutex", Nr_lib.Nr_bench.mutex_baseline);
        ])
    [ 0; 10; 100 ]

(* ------------------------------------------------------------------ *)
(* fig12: page table latency                                            *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "Figure 12: page table map/unmap mean latency";
  Printf.printf
    "  paper: verified map matches the unverified reference; verified unmap is slower because it\n";
  Printf.printf "  reclaims empty directories (disabling reclamation restores parity).\n\n";
  let n = if !quick then 20_000 else 100_000 in
  let run_map_unmap make_pt map unmap =
    let mem = Pagetable.Phys_mem.create ~frames:(4 * n) () in
    let pt = make_pt mem in
    let vas = Array.init n (fun i -> 0x1000_0000 + (i * 4096)) in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun va -> ignore (map pt ~va ~frame:7 ~writable:true)) vas;
    let t_map = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9 in
    let t0 = Unix.gettimeofday () in
    Array.iter (fun va -> ignore (unmap pt ~va)) vas;
    let t_unmap = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9 in
    (t_map, t_unmap)
  in
  let rows =
    [
      ( "verified",
        run_map_unmap (fun m -> Pagetable.Impl.create m) Pagetable.Impl.map4k Pagetable.Impl.unmap4k );
      ( "verified, no reclaim",
        run_map_unmap
          (fun m -> Pagetable.Impl.create ~reclaim:false m)
          Pagetable.Impl.map4k Pagetable.Impl.unmap4k );
      ( "unverified reference",
        run_map_unmap (fun m -> Pagetable.Baseline.create m) Pagetable.Baseline.map4k
          Pagetable.Baseline.unmap4k );
    ]
  in
  Printf.printf "  %-24s %12s %12s\n" "implementation" "map4k (ns)" "unmap4k (ns)";
  List.iter
    (fun (label, (m, u)) -> Printf.printf "  %-24s %12.0f %12.0f\n%!" label m u)
    rows

(* ------------------------------------------------------------------ *)
(* fig13: allocator workloads                                           *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header "Figure 13: allocator benchmarks (seconds; lower is better)";
  Printf.printf
    "  paper: Verus-mimalloc is 1-14x slower than C mimalloc per workload; here 'unchecked' plays\n";
  Printf.printf
    "  the unverified original and 'checked' carries the verified version's bookkeeping.\n\n";
  let threads = if !quick then 2 else 4 in
  Printf.printf "  %-18s %12s %12s %14s\n" "workload" "unchecked" "checked" "single-heap";
  List.iter
    (fun name ->
      let t_un = Valloc.Workloads.run ~name { checked = false; heaps = 4; threads } in
      let t_ck = Valloc.Workloads.run ~name { checked = true; heaps = 4; threads } in
      let t_1h = Valloc.Workloads.run ~name { checked = false; heaps = 1; threads } in
      Printf.printf "  %-18s %11.2fs %11.2fs %13.2fs\n%!" name t_un t_ck t_1h)
    Valloc.Workloads.names

(* ------------------------------------------------------------------ *)
(* fig14: persistent log append throughput                              *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  header "Figure 14: log append throughput (MiB/s) vs append size";
  Printf.printf
    "  paper: the latest verified log matches libpmemlog despite computing CRCs (it uses no locks);\n";
  Printf.printf "  the initial copy-heavy version is slower on small appends.\n\n";
  let sizes = [ 128; 256; 512; 1024; 4096; 8192; 65536 ] in
  let total = if !quick then 8 * 1024 * 1024 else 64 * 1024 * 1024 in
  let throughput style size =
    let region = 16 * 1024 * 1024 in
    let mem = Plog.Pmem.create ~size:(region + Plog.Log.header_bytes) () in
    Plog.Log.format mem ~base:0 ~len:(region + Plog.Log.header_bytes);
    let log = Result.get_ok (Plog.Log.attach ~style mem ~base:0 ~len:(region + Plog.Log.header_bytes)) in
    let payload = String.make size 'd' in
    let n = total / size in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      (match Plog.Log.append log payload with
      | Ok () -> ()
      | Error _ ->
        (* Wrap: free half the log and retry. *)
        ignore (Plog.Log.advance_head log (Plog.Log.tail log - (region / 2)));
        ignore (Plog.Log.append log payload));
      ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (n * size) /. dt /. (1024.0 *. 1024.0)
  in
  Printf.printf "  %-12s" "append size";
  List.iter (fun s -> Printf.printf " %9s" (if s >= 1024 then Printf.sprintf "%dKiB" (s / 1024) else Printf.sprintf "%dB" s)) sizes;
  Printf.printf "\n";
  List.iter
    (fun (label, style) ->
      Printf.printf "  %-12s" label;
      List.iter
        (fun s ->
          Printf.printf " %9.0f" (throughput style s);
          flush stdout)
        sizes;
      Printf.printf "\n%!")
    [ ("PMDK-style", `Pmdk); ("initial", `Initial); ("latest", `Latest) ]

(* ------------------------------------------------------------------ *)
(* tab-epr: distributed lock, default vs EPR mode                      *)
(* ------------------------------------------------------------------ *)

let tab_epr () =
  header "Table (4.1.3): distributed lock - default mode vs EPR mode";
  let t0 = Unix.gettimeofday () in
  let r = Verus.Driver.verify_program Verus.Profiles.verus Verus.Bench_programs.dlock_default in
  let t_default = Unix.gettimeofday () -. t0 in
  Printf.printf "  default mode: %s in %.2fs (inductive invariant + helper assertion, ~25 proof lines)\n"
    (if r.Verus.Driver.pr_ok then "proved" else "FAILED")
    t_default;
  let t0 = Unix.gettimeofday () in
  let lock_obs = Verus.Dlock_epr.run () in
  let t_lock = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  EPR mode (lock, hand-off + message protocol): %d obligations decided automatically in %.2fs %s\n"
    (List.length lock_obs) t_lock
    (if Verus.Dlock_epr.all_proved lock_obs then "" else "(FAILURES)");
  Printf.printf "  abstraction boilerplate: ~%d lines (paper: ~100 lines for the lock)\n"
    Verus.Dlock_epr.boilerplate_lines;
  let t0 = Unix.gettimeofday () in
  let obs = Ironkv.Delegation_proof.run () in
  let t_epr = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  EPR mode (delegation map, Fig. 3): %d obligations decided automatically in %.2fs\n"
    (List.length obs) t_epr;
  Printf.printf
    "  => EPR trades boilerplate for fully automatic invariant checking, as in the paper.\n%!"

(* ------------------------------------------------------------------ *)
(* ablations: each design choice of §3.1 isolated                      *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: isolating the design choices of §3.1 (on the singly linked list)";
  Printf.printf
    "  Each row toggles ONE choice off the Verus profile; time and instantiation work show its cost.\n\n";
  let base = Verus.Profiles.verus in
  let variants =
    [
      ("Verus (all on)", base);
      ( "liberal triggers",
        {
          base with
          Verus.Profiles.name = "V-libtrig";
          trigger_policy = Smt.Triggers.Liberal;
          curated_triggers = false;
          solver_config =
            { base.Verus.Profiles.solver_config with trigger_policy = Smt.Triggers.Liberal };
        } );
      ("no pruning", { base with Verus.Profiles.name = "V-noprune"; pruning = false });
      ("heap encoding", { base with Verus.Profiles.name = "V-heap"; encoding = Verus.Profiles.Heap });
      ( "prophecy encoding",
        { base with Verus.Profiles.name = "V-prophecy"; encoding = Verus.Profiles.Prophecy } );
      ( "effect wrappers (depth 2)",
        { base with Verus.Profiles.name = "V-wrap"; wrapper_depth = 2 } );
    ]
  in
  Printf.printf "  %-26s %10s %14s %14s\n" "variant" "time" "query bytes" "instances";
  List.iter
    (fun (label, p) ->
      (* One profiled run per variant: the ablation's whole point is to
         show the instantiation work each disabled mechanism causes, so
         here the "instances" column is measured on the same run as the
         time (the counters are always-on matcher fields; the only
         profiled-run overhead is the final aggregation). *)
      let r =
        verify_profiled ~section:"ablation" ~prog_name:"singly_linked" p
          Verus.Bench_programs.singly_linked
      in
      let insts =
        match r.Verus.Driver.pr_prof with
        | Some pp -> Smt.Profile.total_instances pp.Verus.Driver.pp_smt
        | None -> 0
      in
      Printf.printf "  %-26s %9.2fs %14d %14d%s\n%!" label r.Verus.Driver.pr_time_s
        r.Verus.Driver.pr_bytes insts
        (if r.Verus.Driver.pr_ok then "" else "  (FAILED)"))
    variants

(* ------------------------------------------------------------------ *)
(* lint: Vlint static-analysis cost vs verification cost               *)
(* ------------------------------------------------------------------ *)

let lint_bench () =
  header "Vlint: static-analysis time vs verification time (Verus profile)";
  Printf.printf
    "  The lint passes (termination SCCs, instantiation-graph matching-loop scan,\n";
  Printf.printf
    "  mode + hygiene checks) run before any SMT work; they should be noise next\n";
  Printf.printf "  to verification, which is what makes --lint strict free to leave on.\n\n";
  let programs =
    [
      ("singly_linked", Verus.Bench_programs.singly_linked);
      ("doubly_linked", Verus.Bench_programs.doubly_linked);
      ("mem8", Verus.Bench_programs.memory_reasoning 8);
      ("dlock", Verus.Bench_programs.dlock_default);
      ("vstd_seq", Verus.Vstd_seq.program);
    ]
  in
  let reps = if !quick then 10 else 100 in
  Printf.printf "  %-16s %12s %12s %10s\n" "program" "lint (ms)" "verify (s)" "findings";
  List.iter
    (fun (name, prog) ->
      let t0 = Unix.gettimeofday () in
      let ds = ref [] in
      for _ = 1 to reps do
        ds := Verus.Vlint.lint Verus.Profiles.verus prog
      done;
      let t_lint = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e3 in
      let _, t_verify, _ = verify_time Verus.Profiles.verus prog in
      Printf.printf "  %-16s %12.2f %11.2fs %10d\n%!" name t_lint t_verify
        (List.length !ds))
    programs

(* ------------------------------------------------------------------ *)
(* cache: cold vs warm re-verification through Vcache                   *)
(* ------------------------------------------------------------------ *)

let cache_bench () =
  header "Vcache: cold vs warm re-verification (persistent VC-result cache)";
  Printf.printf
    "  Each row verifies a program twice through the same cache directory: the cold run\n\
    \  fills the store, the warm run must serve every obligation from it.  'digest' says\n\
    \  whether the two runs' result digests (every decision: per-VC answers, verdicts,\n\
    \  lint and front-end output) are identical — the cache must be observationally\n\
    \  invisible.\n\n";
  let base_dir = Filename.concat (Filename.get_temp_dir_name ()) "verus-bench-cache" in
  let cases =
    [
      ("singly_linked", Verus.Bench_programs.singly_linked);
      ("doubly_linked", Verus.Bench_programs.doubly_linked);
      ("mem8", Verus.Bench_programs.memory_reasoning 8);
      ("vstd_seq", Verus.Vstd_seq.program);
      ("dlock", Verus.Bench_programs.dlock_default);
    ]
  in
  let cases = if !quick then [ List.hd cases ] else cases in
  Printf.printf "  %-16s %10s %10s %9s %9s %7s %7s\n" "program" "cold" "warm" "speedup"
    "hit rate" "entries" "digest";
  let rows =
    List.map
      (fun (name, prog) ->
        let dir = Filename.concat base_dir name in
        (match Verus.Vcache.clear ~dir with Ok () -> () | Error _ -> ());
        let config = Verus.Driver.Config.(with_cache dir default) in
        let run () = Verus.Driver.verify_program ~config Verus.Profiles.verus prog in
        let cold = run () in
        let warm = run () in
        let stats r =
          match r.Verus.Driver.pr_cache with
          | Some s -> s
          | None -> failwith "cache bench: run carried no cache stats"
        in
        let ws = stats warm in
        let looked = ws.Verus.Vcache.hits + ws.Verus.Vcache.misses + ws.Verus.Vcache.invalidations in
        let hit_rate =
          if looked = 0 then 0.0 else float_of_int ws.Verus.Vcache.hits /. float_of_int looked
        in
        let digest_equal =
          String.equal (Verus.Driver.result_digest cold) (Verus.Driver.result_digest warm)
        in
        let speedup =
          if warm.Verus.Driver.pr_time_s > 0.0 then
            cold.Verus.Driver.pr_time_s /. warm.Verus.Driver.pr_time_s
          else infinity
        in
        Printf.printf "  %-16s %9.3fs %9.3fs %8.1fx %8.0f%% %7d %7s\n%!" name
          cold.Verus.Driver.pr_time_s warm.Verus.Driver.pr_time_s speedup (100.0 *. hit_rate)
          ws.Verus.Vcache.entries_loaded
          (if digest_equal then "equal" else "DIFFERS");
        Vbase.Json.Obj
          [
            ("program", Vbase.Json.String name);
            ("profile", Vbase.Json.String Verus.Profiles.verus.Verus.Profiles.name);
            ("ok", Vbase.Json.Bool (cold.Verus.Driver.pr_ok && warm.Verus.Driver.pr_ok));
            ("cold_s", Vbase.Json.Float cold.Verus.Driver.pr_time_s);
            ("warm_s", Vbase.Json.Float warm.Verus.Driver.pr_time_s);
            ("speedup", Vbase.Json.Float speedup);
            ("hit_rate", Vbase.Json.Float hit_rate);
            ("hits", Vbase.Json.Int ws.Verus.Vcache.hits);
            ("misses", Vbase.Json.Int ws.Verus.Vcache.misses);
            ("invalidations", Vbase.Json.Int ws.Verus.Vcache.invalidations);
            ("entries", Vbase.Json.Int ws.Verus.Vcache.entries_loaded);
            ("digest_equal", Vbase.Json.Bool digest_equal);
          ])
      cases
  in
  let doc =
    Vbase.Json.Obj
      [
        ("schema", Vbase.Json.String "verus-cache-bench/1");
        ("store_schema", Vbase.Json.String Verus.Vcache.schema_version);
        ("rows", Vbase.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_cache.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote %d row(s) to BENCH_cache.json\n%!" (List.length rows)

(* ------------------------------------------------------------------ *)
(* certify: proof-certificate emission + kernel replay overhead         *)
(* ------------------------------------------------------------------ *)

let certify_bench () =
  header "Vcert/Vcheck: certificate emission + independent kernel replay overhead";
  Printf.printf
    "  Each row verifies a program twice: plain, then with --certify (solver records a\n\
    \  derivation log per Unsat, the Vcheck kernel replays each).  'overhead' is the\n\
    \  certified run's wall-clock over the plain run's; 'checked' counts obligations\n\
    \  whose certificate replayed to Checked (a single rejection fails the row).\n\n";
  let cases =
    [
      ("singly_linked", Verus.Bench_programs.singly_linked);
      ("doubly_linked", Verus.Bench_programs.doubly_linked);
      ("mem8", Verus.Bench_programs.memory_reasoning 8);
      ("vstd_seq", Verus.Vstd_seq.program);
      ("dlock", Verus.Bench_programs.dlock_default);
    ]
  in
  let cases = if !quick then [ List.hd cases ] else cases in
  Printf.printf "  %-16s %10s %10s %9s %8s %9s\n" "program" "plain" "certified" "overhead"
    "checked" "rejected";
  let rows =
    List.map
      (fun (name, prog) ->
        let run certify =
          let config = Verus.Driver.Config.(default |> with_certify certify) in
          Verus.Driver.verify_program ~config Verus.Profiles.verus prog
        in
        let plain = run false in
        let certified = run true in
        let checked = ref 0 and rejected = ref 0 in
        List.iter
          (fun (fnr : Verus.Driver.fn_result) ->
            List.iter
              (fun (v : Verus.Driver.vc_result) ->
                match v.Verus.Driver.vcr_cert with
                | Verus.Driver.Cert_checked _ -> incr checked
                | Verus.Driver.Cert_rejected _ | Verus.Driver.Cert_unavailable _ ->
                  incr rejected
                | _ -> ())
              fnr.Verus.Driver.fnr_vcs)
          certified.Verus.Driver.pr_fns;
        let overhead =
          if plain.Verus.Driver.pr_time_s > 0.0 then
            certified.Verus.Driver.pr_time_s /. plain.Verus.Driver.pr_time_s
          else 1.0
        in
        Printf.printf "  %-16s %9.3fs %9.3fs %8.2fx %8d %9d\n%!" name
          plain.Verus.Driver.pr_time_s certified.Verus.Driver.pr_time_s overhead !checked
          !rejected;
        Vbase.Json.Obj
          [
            ("program", Vbase.Json.String name);
            ("profile", Vbase.Json.String Verus.Profiles.verus.Verus.Profiles.name);
            ("ok", Vbase.Json.Bool certified.Verus.Driver.pr_ok);
            ("plain_s", Vbase.Json.Float plain.Verus.Driver.pr_time_s);
            ("certified_s", Vbase.Json.Float certified.Verus.Driver.pr_time_s);
            ("overhead", Vbase.Json.Float overhead);
            ("checked", Vbase.Json.Int !checked);
            ("rejected", Vbase.Json.Int !rejected);
          ])
      cases
  in
  let doc =
    Vbase.Json.Obj
      [
        ("schema", Vbase.Json.String "verus-certify-bench/1");
        ("cert_schema", Vbase.Json.String Smt.Cert.schema_version);
        ("rows", Vbase.Json.List rows);
      ]
  in
  let oc = open_out "BENCH_certify.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote %d row(s) to BENCH_certify.json\n%!" (List.length rows)

(* ------------------------------------------------------------------ *)
(* daemon: persistent verusd vs per-program jobs>1, burst latency       *)
(* ------------------------------------------------------------------ *)

(* Three measurements, written to BENCH_daemon.json (verus-daemon-bench/1,
   self-validated through Vservice.validate_daemon_bench):

   cold   — the whole suite verified through one persistent daemon (one
            client connection, requests served in order on a warm
            4-domain pool, cache off) vs the same suite as today's
            workflow: one [verus_cli verify <prog> --jobs 4] process
            per program, each paying process start-up, global table
            construction and its own domain spawn/join.  Best-of-3 on
            BOTH sides.  Each daemon digest must equal an in-process
            jobs=1 reference digest for the same program.
   warm   — a second client through the daemon's shared cache: a fill
            pass stores, the measured pass must hit (>= 90%).  Both
            passes submit sequentially: Vcache flushes whole-store
            atomically per run, so concurrent fills would clobber each
            other's stores (last-writer-wins) and understate the cache.
   burst  — scheduler-level queue latency: rounds of task bursts
            submitted to Sched pools of 1/4/8 domains, reporting
            p50/p90/p99 submit-to-execution-start latency. *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let daemon_bench () =
  header "Verusd: persistent daemon vs per-program jobs>1 runs";
  let domains = 4 in
  let suite =
    [
      ("singly_linked", Verus.Bench_programs.singly_linked);
      ("doubly_linked", Verus.Bench_programs.doubly_linked);
      ("mem4", Verus.Bench_programs.memory_reasoning 4);
      ("dlock", Verus.Bench_programs.dlock_default);
    ]
  in
  let suite = if !quick then [ List.hd suite; List.nth suite 3 ] else suite in
  let reps = if !quick then 1 else 3 in
  Printf.printf
    "  Cold: the suite through one persistent %d-domain daemon (one connection,\n\
    \  requests in order, cache off) vs today's workflow: one verus_cli verify\n\
    \  --jobs %d process per program.  Best-of-%d on both sides; every daemon\n\
    \  digest must equal an in-process jobs=1 reference digest.\n\n"
    domains domains reps;
  (* ---- reference digests: in-process jobs=1, the canonical order ---- *)
  let reference =
    List.map
      (fun (name, prog) ->
        let r =
          Verus.Driver.verify_program ~config:Verus.Driver.Config.default
            Verus.Profiles.verus prog
        in
        if not r.Verus.Driver.pr_ok then
          failwith (Printf.sprintf "daemon bench: reference %s failed" name);
        (name, Verus.Driver.result_digest r))
      suite
  in
  (* ---- baseline: per-program verus_cli subprocesses, external wall ---- *)
  let cli_exe =
    let beside =
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/verus_cli.exe"
    in
    if Sys.file_exists beside then beside
    else if Sys.file_exists "_build/default/bin/verus_cli.exe" then
      "_build/default/bin/verus_cli.exe"
    else failwith "daemon bench: verus_cli.exe not built (dune build bin/verus_cli.exe)"
  in
  let baseline =
    List.map
      (fun (name, _) ->
        let cmd =
          Printf.sprintf "%s verify %s --jobs %d --no-cache >/dev/null 2>&1"
            (Filename.quote cli_exe) name domains
        in
        let best = ref infinity in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          let rc = Sys.command cmd in
          let wall = Unix.gettimeofday () -. t0 in
          if rc <> 0 then
            failwith (Printf.sprintf "daemon bench: baseline %s exited %d" name rc);
          if wall < !best then best := wall
        done;
        (name, !best, List.assoc name reference))
      suite
  in
  let baseline_total = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 baseline in
  (* ---- daemon: one server, concurrent clients ---- *)
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-bench-daemon-%s-%d" tag (Unix.getpid ()))
  in
  let socket_path = tmp "sock" in
  let cache_dir = tmp "cache" in
  (match Verus.Vcache.clear ~dir:cache_dir with Ok () -> () | Error _ -> ());
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let served = ref (Ok ()) in
  let server_thread =
    Thread.create
      (fun () -> served := Verus.Vservice.serve ~socket_path ~domains ~cache_dir ())
      ()
  in
  let rec wait_up tries =
    if tries = 0 then failwith "daemon bench: daemon did not come up"
    else
      match Verusd.Client.connect ~socket_path with
      | Ok c -> Verusd.Client.close c
      | Error _ ->
        Thread.delay 0.05;
        wait_up (tries - 1)
  in
  wait_up 100;
  let request c ~id ~cache name =
    let req =
      Verusd.Rpc.request ~id
        (Verusd.Rpc.M_job (Verusd.Rpc.query ~cache ~stream:false Verusd.Rpc.Verify name))
    in
    let t0 = Unix.gettimeofday () in
    let r = Verusd.Client.call c req in
    let wall = Unix.gettimeofday () -. t0 in
    match r with
    | Ok (Verusd.Rpc.E_done j) -> (wall, j)
    | Ok (Verusd.Rpc.E_error e) ->
      failwith ("daemon bench: " ^ e.Verusd.Rpc.code ^ ": " ^ e.Verusd.Rpc.message)
    | Ok _ -> failwith "daemon bench: unexpected terminal event"
    | Error e -> failwith ("daemon bench: " ^ e)
  in
  let jstr j k =
    match Vbase.Json.member k j with
    | Some (Vbase.Json.String s) -> s
    | _ -> failwith ("daemon bench: done payload missing " ^ k)
  in
  let jint j k =
    match Vbase.Json.member k j with
    | Some (Vbase.Json.Int n) -> n
    | _ -> failwith ("daemon bench: payload missing " ^ k)
  in
  (* One suite pass: one client connection, one request per program, in
     order.  Sequential submission keeps runs' whole-store cache flushes
     from overwriting each other, and on this box concurrent requests
     would only time-share the same cores anyway. *)
  let suite_pass ~cache =
    match Verusd.Client.connect ~socket_path with
    | Error e -> failwith ("daemon bench: connect: " ^ e)
    | Ok c ->
      let t0 = Unix.gettimeofday () in
      let rows =
        List.mapi (fun i (name, _) -> (name, request c ~id:(i + 1) ~cache name)) suite
      in
      let total = Unix.gettimeofday () -. t0 in
      Verusd.Client.close c;
      (total, rows)
  in
  let best_daemon = ref infinity in
  let best_rows = ref [] in
  for _ = 1 to reps do
    let total, rows = suite_pass ~cache:false in
    if total < !best_daemon then begin
      best_daemon := total;
      best_rows := rows
    end
  done;
  let daemon_total = !best_daemon in
  Printf.printf "  %-16s %12s %12s %8s %7s\n" "program" "jobs=4" "daemon" "ratio" "digest";
  let rows_json =
    List.map
      (fun (name, base_t, base_digest) ->
        let wall, j = List.assoc name !best_rows in
        let d_digest = jstr j "digest" in
        let equal = String.equal base_digest d_digest in
        Printf.printf "  %-16s %11.3fs %11.3fs %7.2fx %7s\n" name base_t wall
          (base_t /. wall)
          (if equal then "equal" else "DIFFERS");
        Vbase.Json.Obj
          [
            ("program", Vbase.Json.String name);
            ("baseline_s", Vbase.Json.Float base_t);
            ("daemon_s", Vbase.Json.Float wall);
            ("digest_equal", Vbase.Json.Bool equal);
          ])
      baseline
  in
  Printf.printf "  %-16s %11.3fs %11.3fs %7.2fx   (suite wall-clock)\n" "TOTAL"
    baseline_total daemon_total
    (baseline_total /. daemon_total);
  (* ---- warm shared cache: fill pass, then the measured pass ---- *)
  let _ = suite_pass ~cache:true in
  let warm_total, warm_rows = suite_pass ~cache:true in
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (_, j)) ->
        match Vbase.Json.member "cache" j with
        | Some c -> (h + jint c "hits", m + jint c "misses")
        | None -> (h, m))
      (0, 0) warm_rows
  in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf
    "\n  warm second pass through the shared cache: %.3fs, %d/%d hits (%.0f%%)\n"
    warm_total hits (hits + misses) (100.0 *. hit_rate);
  (* shut the daemon down *)
  (match Verusd.Client.connect ~socket_path with
  | Ok c ->
    ignore (Verusd.Client.call c (Verusd.Rpc.request Verusd.Rpc.M_shutdown));
    Verusd.Client.close c
  | Error _ -> ());
  Thread.join server_thread;
  (match !served with Ok () -> () | Error e -> failwith ("daemon bench: serve: " ^ e));
  (* ---- burst queue latency at 1/4/8 domains ---- *)
  Printf.printf
    "\n  Burst queue latency (scheduler level): rounds of %d-task bursts, ~1ms tasks;\n\
    \  submit-to-execution-start percentiles.\n\n" 16;
  Printf.printf "  %-8s %6s %10s %10s %10s\n" "domains" "tasks" "p50" "p90" "p99";
  let burst_json =
    List.map
      (fun d ->
        let pool = Verusd.Sched.create ~domains:d in
        let rounds = if !quick then 10 else 40 in
        let burst = 16 in
        let n = rounds * burst in
        let lat = Array.make n 0.0 in
        (* warm-up round so domain start-up is not in the numbers *)
        let w = Verusd.Sched.batch () in
        for _ = 1 to burst do
          Verusd.Sched.submit pool w (fun () -> ())
        done;
        Verusd.Sched.await w;
        for round = 0 to rounds - 1 do
          let b = Verusd.Sched.batch () in
          for k = 0 to burst - 1 do
            let i = (round * burst) + k in
            let submitted = Unix.gettimeofday () in
            Verusd.Sched.submit pool b (fun () ->
                lat.(i) <- Unix.gettimeofday () -. submitted;
                let t = Unix.gettimeofday () in
                while Unix.gettimeofday () -. t < 0.001 do
                  ()
                done)
          done;
          Verusd.Sched.await b
        done;
        Verusd.Sched.shutdown pool;
        Array.sort compare lat;
        let us p = 1e6 *. percentile lat p in
        Printf.printf "  %-8d %6d %8.0fus %8.0fus %8.0fus\n" d n (us 0.50) (us 0.90)
          (us 0.99);
        Vbase.Json.Obj
          [
            ("domains", Vbase.Json.Int d);
            ("tasks", Vbase.Json.Int n);
            ("p50_us", Vbase.Json.Float (us 0.50));
            ("p90_us", Vbase.Json.Float (us 0.90));
            ("p99_us", Vbase.Json.Float (us 0.99));
          ])
      [ 1; 4; 8 ]
  in
  (* ---- emit + self-validate ---- *)
  let doc =
    Vbase.Json.Obj
      [
        ("schema", Vbase.Json.String "verus-daemon-bench/1");
        ("rpc_schema", Vbase.Json.String Verusd.Rpc.schema_version);
        ("domains", Vbase.Json.Int domains);
        ( "cold",
          Vbase.Json.Obj
            [
              ("baseline_jobs", Vbase.Json.Int domains);
              ("baseline_total_s", Vbase.Json.Float baseline_total);
              ("daemon_total_s", Vbase.Json.Float daemon_total);
              ("speedup", Vbase.Json.Float (baseline_total /. daemon_total));
              ("rows", Vbase.Json.List rows_json);
            ] );
        ( "warm",
          Vbase.Json.Obj
            [
              ("total_s", Vbase.Json.Float warm_total);
              ("hits", Vbase.Json.Int hits);
              ("misses", Vbase.Json.Int misses);
              ("hit_rate", Vbase.Json.Float hit_rate);
            ] );
        ("burst", Vbase.Json.List burst_json);
      ]
  in
  (match Verus.Vservice.validate_daemon_bench doc with
  | Ok () -> ()
  | Error e -> Printf.printf "  !! BENCH_daemon.json failed self-validation: %s\n%!" e);
  let oc = open_out "BENCH_daemon.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote BENCH_daemon.json (%s)\n%!" "verus-daemon-bench/1"

(* ------------------------------------------------------------------ *)
(* micro: bechamel microbenchmarks of the hot runtime paths             *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Microbenchmarks (bechamel): hot runtime operations";
  let open Bechamel in
  let open Toolkit in
  let os = Valloc.Os_mem.create () in
  let alloc = Valloc.Alloc.create ~checked:true ~heaps:1 os in
  let alloc_un = Valloc.Alloc.create ~checked:false ~heaps:1 os in
  let nr = Nr_lib.Nr.create ~replicas:1 () in
  let h = Nr_lib.Nr.register nr in
  let mem = Plog.Pmem.create ~size:(1 lsl 20) () in
  Plog.Log.format mem ~base:0 ~len:(1 lsl 20);
  let log = Result.get_ok (Plog.Log.attach mem ~base:0 ~len:(1 lsl 20)) in
  let payload = String.make 256 'x' in
  let dm = Ironkv.Delegation_map.create ~default_host:0 in
  Ironkv.Delegation_map.set_range dm ~lo:1000 ~hi:2000 ~host:1;
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"alloc/free (checked)" (Staged.stage (fun () ->
          let b = Valloc.Alloc.malloc alloc ~heap:0 64 in
          Valloc.Alloc.free alloc ~heap:0 b));
      Test.make ~name:"alloc/free (unchecked)" (Staged.stage (fun () ->
          let b = Valloc.Alloc.malloc alloc_un ~heap:0 64 in
          Valloc.Alloc.free alloc_un ~heap:0 b));
      Test.make ~name:"nr put" (Staged.stage (fun () ->
          incr counter;
          Nr_lib.Nr.execute_mut nr h (Nr_lib.Nr.Put (!counter land 1023, !counter))));
      Test.make ~name:"nr read" (Staged.stage (fun () -> ignore (Nr_lib.Nr.read nr h 7)));
      Test.make ~name:"log append 256B" (Staged.stage (fun () ->
          match Plog.Log.append log payload with
          | Ok () -> ()
          | Error _ ->
            ignore (Plog.Log.advance_head log (Plog.Log.tail log - 1024));
            ignore (Plog.Log.append log payload)));
      Test.make ~name:"delegation get" (Staged.stage (fun () ->
          ignore (Ironkv.Delegation_map.get dm 1500)));
      Test.make ~name:"crc32 256B" (Staged.stage (fun () ->
          ignore (Vbase.Crc32.digest_string payload)));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  List.iter
    (fun t ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ t ]) in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name r ->
          match Bechamel.Analyze.OLS.estimates r with
          | Some (est :: _) -> Printf.printf "  %-28s %12.0f ns/op\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* analyze: Vflow prescreen ablation (with vs without rung 0)           *)
(* ------------------------------------------------------------------ *)

let analyze_bench () =
  header "Vflow prescreen ablation: verification with vs without rung 0";
  Printf.printf
    "  Each row verifies a program twice, cold and cacheless: once plain, once with the\n\
    \  abstract-interpretation prescreen (--prescreen).  Discharged obligations skip the\n\
    \  solver and ship zero query bytes; everything else falls through to SMT carrying\n\
    \  the derived interval/congruence facts.  'verified' asserts the two runs reach the\n\
    \  same verdict on the same functions (the prescreen must change cost, never truth).\n\n";
  let cases =
    [
      (Verus.Profiles.verus, "const_cond", Verus.Bench_programs.const_cond);
      (Verus.Profiles.verus, "singly_linked", Verus.Bench_programs.singly_linked);
      (Verus.Profiles.verus, "mem8", Verus.Bench_programs.memory_reasoning 8);
      (Verus.Profiles.dafny, "singly_linked", Verus.Bench_programs.singly_linked);
      (Verus.Profiles.dafny, "const_cond", Verus.Bench_programs.const_cond);
    ]
  in
  let cases = if !quick then [ List.hd cases ] else cases in
  Printf.printf "  %-10s %-16s %5s %6s %10s %10s %9s %9s %9s\n" "profile" "program" "vcs"
    "disch" "base" "analyze" "speedup" "bytes-" "verified";
  let total_vcs = ref 0 and total_disch = ref 0 in
  let rows =
    List.map
      (fun ((p : Verus.Profiles.t), name, prog) ->
        let run analyze =
          Verus.Driver.verify_program
            ~config:Verus.Driver.Config.(with_analyze analyze default)
            p prog
        in
        let base = run false in
        let pre = run true in
        let vcs =
          List.fold_left
            (fun acc (f : Verus.Driver.fn_result) -> acc + List.length f.Verus.Driver.fnr_vcs)
            0 base.Verus.Driver.pr_fns
        in
        let disch = Verus.Driver.prescreen_discharged pre in
        total_vcs := !total_vcs + vcs;
        total_disch := !total_disch + disch;
        let verified_equal =
          base.Verus.Driver.pr_ok = pre.Verus.Driver.pr_ok
          && List.length base.Verus.Driver.pr_fns = List.length pre.Verus.Driver.pr_fns
        in
        let speedup =
          if pre.Verus.Driver.pr_time_s > 0.0 then
            base.Verus.Driver.pr_time_s /. pre.Verus.Driver.pr_time_s
          else infinity
        in
        Printf.printf "  %-10s %-16s %5d %6d %9.3fs %9.3fs %8.2fx %9d %9s\n%!"
          p.Verus.Profiles.name name vcs disch base.Verus.Driver.pr_time_s
          pre.Verus.Driver.pr_time_s speedup
          (base.Verus.Driver.pr_bytes - pre.Verus.Driver.pr_bytes)
          (if verified_equal then "equal" else "DIFFERS");
        Vbase.Json.Obj
          [
            ("profile", Vbase.Json.String p.Verus.Profiles.name);
            ("program", Vbase.Json.String name);
            ("vcs", Vbase.Json.Int vcs);
            ("discharged", Vbase.Json.Int disch);
            ("base_s", Vbase.Json.Float base.Verus.Driver.pr_time_s);
            ("analyze_s", Vbase.Json.Float pre.Verus.Driver.pr_time_s);
            ("base_bytes", Vbase.Json.Int base.Verus.Driver.pr_bytes);
            ("analyze_bytes", Vbase.Json.Int pre.Verus.Driver.pr_bytes);
            ("verified_equal", Vbase.Json.Bool verified_equal);
          ])
      cases
  in
  let doc =
    Vbase.Json.Obj
      [
        ("schema", Vbase.Json.String Vflow.bench_schema);
        ("analysis", Vbase.Json.String Vflow.version);
        ("rows", Vbase.Json.List rows);
        ( "totals",
          Vbase.Json.Obj
            [
              ("total_vcs", Vbase.Json.Int !total_vcs);
              ("total_discharged", Vbase.Json.Int !total_disch);
              ( "discharge_rate",
                Vbase.Json.Float
                  (if !total_vcs = 0 then 0.0
                   else float_of_int !total_disch /. float_of_int !total_vcs) );
            ] );
      ]
  in
  (match Vflow.validate_analyze_bench doc with
  | Ok () -> ()
  | Error e -> Printf.printf "  !! BENCH_analyze.json failed self-validation: %s\n%!" e);
  let oc = open_out "BENCH_analyze.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote %d row(s) to BENCH_analyze.json (%s)\n%!" (List.length rows)
    Vflow.bench_schema

(* ------------------------------------------------------------------ *)
(* ladder: per-VC escalation ladder vs the monolithic configuration     *)
(* ------------------------------------------------------------------ *)

(* Written to BENCH_ladder.json (verus-ladder-bench/1, self-validated
   through Vladder.validate_ladder_bench):

   rows — each program x profile verified three ways, per-VC:
          * monolithic: the profile configuration as-is, no ladder;
          * cold ladder: the escalate ladder, climbing from the quick
            rung, filling a fresh cache as it goes.  The top rung is
            the untouched profile, so this arm's result digest must be
            identical to the monolithic one — the ladder may only
            change cost, never truth.  wins_per_rung says where the
            obligations settled; escalations counts climbs.
          * warm: a profiled re-run against that cache.  The cold
            entries carry no profile data so every lookup is gated out
            of serving, but each entry's recorded winning rung starts
            the climb there directly (hint_starts) — easy obligations
            re-prove at their cheap rung, stubborn ones go straight to
            the top with zero attempts wasted below it.  The warm arm
            is the improvement claim: cheap-rung savings without the
            cold climb tax.

   The profile families split three ways.  liberal(Verus) at its
   native budget is where the cold quick rung genuinely wins (the
   scaled per-round caps stop the instance flood on easy obligations);
   Dafny's native budget floods so hard the mem programs are
   intractable here, so the mem4 row runs under a documented
   rounds/instances cap — deterministic, digest-exact, and honest
   about the result: cold climbing *loses* on stubborn obligations and
   only the warm jump recovers parity-or-better.  (mem8/Dafny has no
   seat at this table: at its native budget it is intractable, and at
   every tractable cap the ladder's half-budget steady rung *proves*
   obligations the flooded full configuration cannot — a verdict
   strengthening, sound but digest-divergent, so it cannot serve in a
   digest-equality row.)  Verus rows pin the no-regression side: a
   tight profile has nothing for the ladder to trim, and totals must
   stay within noise. *)

let ladder_bench () =
  header "Vladder: per-VC escalation ladder vs monolithic profile configuration";
  Printf.printf
    "  Three arms per row: monolithic, cold 'escalate' climb (fills a cache),\n\
    \  and a warm profile-guided re-run that jumps every obligation straight\n\
    \  to its recorded winning rung.  All three must agree on the result\n\
    \  digest; the warm arm must waste zero lower-rung attempts.\n\n";
  (* Dafny's mem rows are bounded by instantiation rounds/instances,
     not wall clock: a round-limit failure is deterministic, so the
     three-way digest comparison is exact (a deadline cap makes
     verdicts timing-dependent near the boundary and the arms can
     legitimately DIFFER).  The cap applies identically to all arms. *)
  let cap (p : Verus.Profiles.t) =
    Verus.Profiles.with_budget
      {
        (Verus.Profiles.budget p) with
        Smt.Solver.max_rounds = 6;
        max_instances_per_round = 150;
        max_instances_per_quant = 40;
      }
      p
  in
  let liberal = Verus.Profiles.liberal Verus.Profiles.verus in
  let ladder = Verus.Driver.Ladder.escalate in
  let cases =
    [
      ("mem4", Verus.Bench_programs.memory_reasoning 4, liberal);
      ("mem8", Verus.Bench_programs.memory_reasoning 8, liberal);
      ("mem4", Verus.Bench_programs.memory_reasoning 4, cap Verus.Profiles.dafny);
      ("mem4", Verus.Bench_programs.memory_reasoning 4, Verus.Profiles.verus);
      ("mem8", Verus.Bench_programs.memory_reasoning 8, Verus.Profiles.verus);
      ("singly_linked", Verus.Bench_programs.singly_linked, Verus.Profiles.verus);
      ("singly_linked", Verus.Bench_programs.singly_linked, Verus.Profiles.dafny);
    ]
  in
  let cases = if !quick then [ List.hd cases; List.nth cases 3 ] else cases in
  let wins_of (r : Verus.Driver.program_result) =
    match r.Verus.Driver.pr_ladder with
    | Some ls -> Array.to_list ls.Verus.Driver.ls_wins
    | None -> []
  in
  let escalations_of (r : Verus.Driver.program_result) =
    match r.Verus.Driver.pr_ladder with
    | Some ls -> ls.Verus.Driver.ls_escalations
    | None -> 0
  in
  (* Attempts spent at rungs strictly below the rung that finally
     answered — the cost the winning-rung jump exists to erase. *)
  let wasted_of (r : Verus.Driver.program_result) =
    List.fold_left
      (fun acc (fnr : Verus.Driver.fn_result) ->
        List.fold_left
          (fun acc (v : Verus.Driver.vc_result) ->
            match v.Verus.Driver.vcr_rung with
            | Some w ->
              acc
              + List.length (List.filter (fun t -> t < w) v.Verus.Driver.vcr_rungs_tried)
            | None -> acc)
          acc fnr.Verus.Driver.fnr_vcs)
      0 r.Verus.Driver.pr_fns
  in
  let hint_starts_of (r : Verus.Driver.program_result) =
    match r.Verus.Driver.pr_ladder with
    | Some ls -> ls.Verus.Driver.ls_hint_starts
    | None -> 0
  in
  let cache_hits_of (r : Verus.Driver.program_result) =
    match r.Verus.Driver.pr_ladder with
    | Some ls -> ls.Verus.Driver.ls_cache_hits
    | None -> 0
  in
  let base_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "verus-bench-ladder-%d" (Unix.getpid ()))
  in
  Printf.printf "  %-16s %-14s %9s %9s %9s %8s %6s %6s %-8s %8s\n" "program" "profile"
    "mono" "ladder" "warm" "speedup" "escal" "hints" "wins" "verdicts";
  let rows =
    List.mapi
      (fun i (name, prog, (p : Verus.Profiles.t)) ->
        let dir = Printf.sprintf "%s-%d" base_dir i in
        (match Verus.Vcache.clear ~dir with Ok () -> () | Error _ -> ());
        let mono = Verus.Driver.verify_program ~config:Verus.Driver.Config.default p prog in
        let cold =
          Verus.Driver.verify_program
            ~config:Verus.Driver.Config.(default |> with_ladder ladder |> with_cache dir)
            p prog
        in
        let warm =
          Verus.Driver.verify_program
            ~config:
              Verus.Driver.Config.(
                default |> with_ladder ladder |> with_cache dir |> with_profile true)
            p prog
        in
        let dg = Verus.Driver.result_digest in
        let verdicts_equal =
          String.equal (dg mono) (dg cold) && String.equal (dg mono) (dg warm)
        in
        let wins = wins_of cold in
        let speedup =
          if warm.Verus.Driver.pr_time_s > 0.0 then
            mono.Verus.Driver.pr_time_s /. warm.Verus.Driver.pr_time_s
          else infinity
        in
        Printf.printf "  %-16s %-14s %8.3fs %8.3fs %8.3fs %7.2fx %6d %6d %-8s %8s\n%!"
          name p.Verus.Profiles.name mono.Verus.Driver.pr_time_s
          cold.Verus.Driver.pr_time_s warm.Verus.Driver.pr_time_s speedup
          (escalations_of cold) (hint_starts_of warm)
          (String.concat "/" (List.map string_of_int wins))
          (if verdicts_equal then "equal" else "DIFFER");
        ( Vbase.Json.Obj
            [
              ("program", Vbase.Json.String name);
              ("profile", Vbase.Json.String p.Verus.Profiles.name);
              ("monolithic_s", Vbase.Json.Float mono.Verus.Driver.pr_time_s);
              ("ladder_s", Vbase.Json.Float cold.Verus.Driver.pr_time_s);
              ("warm_s", Vbase.Json.Float warm.Verus.Driver.pr_time_s);
              ("escalations", Vbase.Json.Int (escalations_of cold));
              ("hint_starts", Vbase.Json.Int (hint_starts_of warm));
              ("warm_wasted_attempts", Vbase.Json.Int (wasted_of warm));
              ("verdicts_equal", Vbase.Json.Bool verdicts_equal);
              ("wins_per_rung", Vbase.Json.List (List.map (fun n -> Vbase.Json.Int n) wins));
            ],
          (cache_hits_of warm, hint_starts_of warm, wasted_of warm, verdicts_equal) ))
      cases
  in
  let rows, warm_stats = List.split rows in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 warm_stats in
  let hits = total (fun (h, _, _, _) -> h) in
  let jump_starts = total (fun (_, j, _, _) -> j) in
  let warm_wasted = total (fun (_, _, w, _) -> w) in
  let digest_equal_cold = List.for_all (fun (_, _, _, eq) -> eq) warm_stats in
  Printf.printf
    "\n\
    \  warm arms, all rows: %d obligation(s) jumped straight to their recorded\n\
    \  winning rung (%d served as plain cache hits), wasting %d lower-rung\n\
    \  attempt(s); all digests %s\n"
    jump_starts hits warm_wasted
    (if digest_equal_cold then "equal" else "DIFFER");
  let doc =
    Vbase.Json.Obj
      [
        ("schema", Vbase.Json.String Vladder.bench_schema);
        ("ladder", Vbase.Json.String (Verus.Driver.Ladder.name ladder));
        ("rows", Vbase.Json.List rows);
        ( "warm",
          Vbase.Json.Obj
            [
              ("cache_hits", Vbase.Json.Int hits);
              ("hint_starts", Vbase.Json.Int jump_starts);
              ("wasted_lower_rung_attempts", Vbase.Json.Int warm_wasted);
              ("digest_equal_cold", Vbase.Json.Bool digest_equal_cold);
            ] );
      ]
  in
  (match Vladder.validate_ladder_bench doc with
  | Ok () -> ()
  | Error e -> Printf.printf "  !! BENCH_ladder.json failed self-validation: %s\n%!" e);
  let oc = open_out "BENCH_ladder.json" in
  output_string oc (Vbase.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  wrote %d row(s) to BENCH_ladder.json (%s)\n%!" (List.length rows)
    Vladder.bench_schema

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig10-faults", fig10_faults);
    ("kv", kv_bench);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("tab-epr", tab_epr);
    ("ablation", ablation);
    ("lint", lint_bench);
    ("cache", cache_bench);
    ("certify", certify_bench);
    ("daemon", daemon_bench);
    ("analyze", analyze_bench);
    ("ladder", ladder_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  quick := List.mem "--quick" args;
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let to_run =
    if wanted = [] then sections
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown section %s (have: %s)\n" name
              (String.concat " " (List.map fst sections));
            exit 2)
        wanted
  in
  Printf.printf "Verus-OCaml paper-reproduction bench harness%s\n"
    (if !quick then " (--quick)" else "");
  List.iter
    (fun (name, f) ->
      try f ()
      with e ->
        Printf.printf "\n  !! section %s aborted: %s\n%!" name (Printexc.to_string e))
    to_run;
  write_profile_json ();
  print_endline "\nAll requested sections complete."
