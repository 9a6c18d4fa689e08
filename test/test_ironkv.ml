(* IronKV case-study tests: marshalling round-trips, delegation map vs. a
   naive model, the cluster differential test, and the EPR proof of the
   delegation map abstraction. *)

module M = Ironkv.Marshal
module Dm = Ironkv.Delegation_map

(* ------------------------------------------------------------------ *)
(* Marshalling                                                         *)
(* ------------------------------------------------------------------ *)

let test_marshal_primitives () =
  Alcotest.(check (option int)) "u8" (Some 200) (M.of_bytes M.u8 (M.to_bytes M.u8 200));
  Alcotest.(check (option int)) "u64 big" (Some max_int)
    (M.of_bytes M.u64 (M.to_bytes M.u64 max_int));
  Alcotest.(check (option string)) "string" (Some "hello")
    (M.of_bytes M.byte_string (M.to_bytes M.byte_string "hello"));
  Alcotest.(check (option bool)) "bool" (Some true) (M.of_bytes M.boolean (M.to_bytes M.boolean true));
  (* Truncated input is rejected, not crashed on. *)
  Alcotest.(check (option int)) "truncated" None (M.of_bytes M.u64 (Bytes.of_string "abc"));
  (* Trailing garbage rejected by of_bytes. *)
  let b = M.to_bytes M.u8 7 in
  let b' = Bytes.cat b (Bytes.of_string "x") in
  Alcotest.(check (option int)) "trailing" None (M.of_bytes M.u8 b')

let prop_marshal_roundtrip =
  QCheck.Test.make ~name:"message roundtrip" ~count:500
    QCheck.(
      quad (int_range 0 1000) (int_range 0 100000) (int_range 0 1_000_000) (string_of_size (QCheck.Gen.int_range 0 200)))
    (fun (client, seq, key, value) ->
      let open Ironkv.Message in
      let msgs =
        [
          Get { client; seq; key };
          Set { client; seq; key; value };
          Reply { client; seq; key; value = Some value };
          Reply { client; seq; key; value = None };
          Ack { src = client mod 7; epoch = seq };
          Delegate
            {
              src = client mod 5;
              lo = key;
              hi = key + 10;
              dest = client mod 7;
              epoch = seq;
              kvs = [ (key, value); (key + 1, "") ];
              cache = [ (client, (seq, key, Some value)); (client + 1, (seq, key, None)) ];
            };
        ]
      in
      List.for_all (fun m -> of_bytes (to_bytes m) = Some m) msgs)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec/pair/option roundtrip" ~count:300
    QCheck.(list (pair small_nat (option (string_of_size (QCheck.Gen.int_range 0 30)))))
    (fun xs ->
      let m = M.vec (M.pair M.u64 (M.option M.byte_string)) in
      M.of_bytes m (M.to_bytes m xs) = Some xs)

(* ------------------------------------------------------------------ *)
(* Delegation map vs. naive model                                      *)
(* ------------------------------------------------------------------ *)

let test_dmap_basics () =
  let dm = Dm.create ~default_host:0 in
  Alcotest.(check int) "default" 0 (Dm.get dm 12345);
  Dm.set_range dm ~lo:100 ~hi:200 ~host:1;
  Alcotest.(check int) "inside" 1 (Dm.get dm 150);
  Alcotest.(check int) "below" 0 (Dm.get dm 99);
  Alcotest.(check int) "boundary lo" 1 (Dm.get dm 100);
  Alcotest.(check int) "boundary hi" 0 (Dm.get dm 200);
  Alcotest.(check (result unit string)) "invariant" (Ok ()) (Dm.check_invariant dm);
  (* Overwrite part of the range. *)
  Dm.set_range dm ~lo:150 ~hi:250 ~host:2;
  Alcotest.(check int) "old part" 1 (Dm.get dm 120);
  Alcotest.(check int) "new part" 2 (Dm.get dm 220);
  Alcotest.(check int) "after" 0 (Dm.get dm 250);
  Alcotest.(check (result unit string)) "invariant 2" (Ok ()) (Dm.check_invariant dm)

let prop_dmap_vs_model =
  (* Random set_range sequences; compare against a flat array model at
     sampled points, and re-check the representation invariant. *)
  QCheck.Test.make ~name:"delegation map matches flat model" ~count:200
    QCheck.(list (triple (int_range 0 999) (int_range 0 999) (int_range 0 5)))
    (fun ops ->
      let dm = Dm.create ~default_host:0 in
      let model = Array.make 1000 0 in
      List.iter
        (fun (a, b, host) ->
          let lo = min a b and hi = max a b in
          Dm.set_range dm ~lo ~hi ~host;
          for k = lo to hi - 1 do
            model.(k) <- host
          done)
        ops;
      Dm.check_invariant dm = Ok ()
      && List.for_all
           (fun k -> Dm.get dm k = model.(k))
           (List.init 100 (fun i -> i * 10)))

let prop_dmap_pivot_compact =
  QCheck.Test.make ~name:"pivot count bounded by distinct ranges" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (triple (int_range 0 999) (int_range 1 100) (int_range 0 5)))
    (fun ops ->
      let dm = Dm.create ~default_host:0 in
      List.iter (fun (lo, len, host) -> Dm.set_range dm ~lo ~hi:(lo + len) ~host) ops;
      (* Each set_range adds at most 2 pivots (canonicalization may remove
         more). *)
      Dm.pivot_count dm <= (2 * List.length ops) + 1)

(* ------------------------------------------------------------------ *)
(* Cluster differential test                                           *)
(* ------------------------------------------------------------------ *)

let test_cluster_crosscheck () =
  match Ironkv.Workload.crosscheck ~ops:1500 ~seed:11 () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_cluster_crosscheck_seeds () =
  List.iter
    (fun seed ->
      match Ironkv.Workload.crosscheck ~ops:600 ~seed () with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e))
    [ 1; 2; 3; 4; 5 ]

let test_cluster_duplicates () =
  (* A flaky client channel: 30% of requests are resent with the same seq.
     The at-most-once table must absorb every duplicate. *)
  List.iter
    (fun seed ->
      match Ironkv.Workload.crosscheck ~ops:600 ~seed ~dup_pct:30 () with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "dup seed %d: %s" seed e))
    [ 21; 22; 23 ]

let test_at_most_once () =
  (* Duplicate Set must not execute twice: after a Set with seq s, a second
     Set with the same seq but different value is suppressed — the host
     re-sends the cached reply (so a retransmitting client terminates)
     without re-executing. *)
  let net = Ironkv.Network.create ~endpoints:2 () in
  let h = Ironkv.Host.create ~style:`Inplace ~id:0 ~hosts:1 () in
  let client = 1 in
  let send m = Ironkv.Host.handle h net (Ironkv.Message.to_bytes m) in
  send (Ironkv.Message.Set { client; seq = 1; key = 5; value = "first" });
  (match Ironkv.Network.recv net ~me:client with Some _ -> () | None -> Alcotest.fail "no reply");
  send (Ironkv.Message.Set { client; seq = 1; key = 5; value = "dup" });
  (* Duplicate of the latest request: the *cached* reply is re-sent (value
     "first", not "dup") and the store is untouched. *)
  (match Ironkv.Network.recv net ~me:client with
  | None -> Alcotest.fail "expected cached reply retransmission"
  | Some raw -> (
    match Ironkv.Message.of_bytes raw with
    | Some (Ironkv.Message.Reply { seq; key; value; _ }) ->
      Alcotest.(check int) "dup reply seq" 1 seq;
      Alcotest.(check int) "dup reply key" 5 key;
      Alcotest.(check (option string)) "dup reply value" (Some "first") value
    | _ -> Alcotest.fail "unexpected message"));
  Alcotest.(check bool) "only one cached reply" true (Ironkv.Network.recv net ~me:client = None);
  Alcotest.(check (list (pair int string))) "value" [ (5, "first") ] (Ironkv.Host.dump h);
  (* An *older* duplicate (seq below the cached high-water mark) is dropped
     outright: the client has already moved on. *)
  send (Ironkv.Message.Set { client; seq = 2; key = 6; value = "second" });
  (match Ironkv.Network.recv net ~me:client with Some _ -> () | None -> Alcotest.fail "no reply 2");
  send (Ironkv.Message.Set { client; seq = 1; key = 5; value = "stale" });
  Alcotest.(check bool) "stale dup dropped" true (Ironkv.Network.recv net ~me:client = None)

(* ------------------------------------------------------------------ *)
(* Fault injection: adversarial network + determinism                  *)
(* ------------------------------------------------------------------ *)

let test_crosscheck_fault_mix () =
  (* Every fault class armed at once: message drop, network duplication,
     reordering, delay, a flaky client channel resending requests, and
     concurrent re-delegation.  Exactly-once execution must survive the
     combination. *)
  List.iter
    (fun (seed, fault_seed) ->
      match
        Ironkv.Workload.crosscheck ~ops:400 ~seed ~dup_pct:20 ~drop_pct:10 ~net_dup_pct:10
          ~reorder_pct:15 ~delay_pct:10 ~redelegate:true ~fault_seed ()
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "mix seed %d/%d: %s" seed fault_seed e))
    [ (31, 1); (32, 2); (33, 3); (34, 4) ]

let test_crosscheck_single_faults () =
  (* Each fault class alone, at a nastier rate than in the mix. *)
  List.iter
    (fun (label, drop, ndup, reorder, delay) ->
      match
        Ironkv.Workload.crosscheck ~ops:400 ~seed:44 ~drop_pct:drop ~net_dup_pct:ndup
          ~reorder_pct:reorder ~delay_pct:delay ~fault_seed:9 ()
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" label e))
    [
      ("drop 25%", 25, 0, 0, 0);
      ("dup 25%", 0, 25, 0, 0);
      ("reorder 40%", 0, 0, 40, 0);
      ("delay 25%", 0, 0, 0, 25);
    ]

let test_fault_replay_deterministic () =
  (* Same workload seed + same plan seed ⇒ the same faults fire at the
     same steps: the plan traces are byte-identical. *)
  let trace () =
    let plan = Vbase.Faultplan.create ~seed:123 () in
    Vbase.Faultplan.set_prob plan "net.drop" ~pct:8;
    Vbase.Faultplan.set_prob plan "net.dup" ~pct:8;
    Vbase.Faultplan.set_prob plan "net.reorder" ~pct:8;
    Vbase.Faultplan.set_prob plan "net.delay" ~pct:8;
    (match Ironkv.Workload.crosscheck ~ops:300 ~seed:55 ~faults:plan () with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Vbase.Faultplan.trace_to_string plan
  in
  let t1 = trace () and t2 = trace () in
  Alcotest.(check bool) "faults actually fired" true (String.length t1 > 0);
  Alcotest.(check string) "replay trace is byte-identical" t1 t2

let test_sequenced_channel () =
  let plan = Vbase.Faultplan.create ~seed:2 () in
  (* Force the first three sends to be duplicated and the second to be
     reordered: the sequenced layer must mask both. *)
  Vbase.Faultplan.fire_at plan "net.dup" [ 1; 2; 3 ];
  Vbase.Faultplan.fire_at plan "net.reorder" [ 2 ];
  let net = Ironkv.Network.create ~endpoints:2 ~faults:plan ~sequenced:true () in
  List.iter
    (fun s -> Ironkv.Network.send_seq net ~src:0 ~dst:1 (Bytes.of_string s))
    [ "a"; "b"; "c" ];
  let rec drain acc =
    match Ironkv.Network.recv net ~me:1 with
    | Some b -> drain (Bytes.to_string b :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "in order, exactly once" [ "a"; "b"; "c" ] (drain []);
  let suppressed =
    match List.assoc_opt "dedup_suppressed" (Ironkv.Network.stats net) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "duplicates were suppressed" true (suppressed >= 3)

let test_sequenced_never_dropped () =
  let plan = Vbase.Faultplan.create ~seed:4 () in
  Vbase.Faultplan.set_prob plan "net.drop" ~pct:100;
  let net = Ironkv.Network.create ~endpoints:2 ~faults:plan ~sequenced:true () in
  (* Raw sends all die; sequenced sends are exempt (retransmitting
     transport). *)
  Ironkv.Network.send net ~src:0 ~dst:1 (Bytes.of_string "raw");
  Alcotest.(check bool) "raw dropped" true (Ironkv.Network.recv net ~me:1 = None);
  Ironkv.Network.send_seq net ~src:0 ~dst:1 (Bytes.of_string "seq");
  Alcotest.(check (option string)) "sequenced delivered" (Some "seq")
    (Option.map Bytes.to_string (Ironkv.Network.recv net ~me:1))

let test_partition_park_heal () =
  let net = Ironkv.Network.create ~endpoints:3 () in
  Ironkv.Network.set_partition net [ 2 ];
  Ironkv.Network.send net ~src:0 ~dst:2 (Bytes.of_string "cross");
  Ironkv.Network.send net ~src:0 ~dst:1 (Bytes.of_string "same-side");
  Alcotest.(check bool) "cross-cut parked" true (Ironkv.Network.recv net ~me:2 = None);
  Alcotest.(check (option string)) "same side flows" (Some "same-side")
    (Option.map Bytes.to_string (Ironkv.Network.recv net ~me:1));
  Ironkv.Network.heal_partition net;
  Alcotest.(check (option string)) "parked delivered after heal" (Some "cross")
    (Option.map Bytes.to_string (Ironkv.Network.recv net ~me:2))

let test_run_with_faults_terminates () =
  (* The closed-loop benchmark client must terminate (via retransmission)
     under a lossy network, and report its retries. *)
  let r =
    Ironkv.Workload.run ~hosts:3 ~clients:4 ~keys:500 ~payload:32 ~ops:300 ~drop_pct:15
      ~net_dup_pct:10 ~fault_seed:5 ~style:`Inplace ()
  in
  Alcotest.(check int) "all ops completed" 300 r.Ironkv.Workload.ops_done;
  Alcotest.(check bool) "losses forced retransmissions" true
    (r.Ironkv.Workload.retransmissions > 0)

(* ------------------------------------------------------------------ *)
(* Durability: group commit, crash recovery, storms                    *)
(* ------------------------------------------------------------------ *)

module W = Ironkv.Workload

let dur group = { W.du_group = group; du_mem_bytes = 1 lsl 22 }

let test_durable_crosscheck () =
  (* Durable hosts on a clean network must be observationally identical
     to volatile ones — group commit only defers, never changes, the
     replies. *)
  List.iter
    (fun group ->
      match W.crosscheck ~ops:400 ~seed:61 ~durability:(dur group) () with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "group %d: %s" group e))
    [ 1; 4; 16 ]

let test_storm_crosscheck () =
  (* Crash + partition storms over durable hosts with torn commit flushes
     composed in: every reply must stay linearizable, the cluster must
     converge after every storm, and the closing readback sweep must find
     every acknowledged write.  Every storm must both crash a host and
     partition the cluster; the last row also composes the full net.*
     fault mix and 10% crash-during-recovery into the storm. *)
  let seeded seed fault_seed () =
    W.crosscheck_report ~ops:350 ~seed ~fault_seed ~durability:(dur 4) ~crash_pct:2
      ~partition_pct:1 ~torn_pct:1 ()
  in
  let full_mix () =
    let plan = Vbase.Faultplan.create ~seed:19 () in
    List.iter
      (fun site -> Vbase.Faultplan.set_prob plan site ~pct:5)
      [ "net.drop"; "net.dup"; "net.reorder"; "net.delay" ];
    Vbase.Faultplan.set_prob plan Ironkv.Durable.crash_during_recovery_site ~pct:10;
    W.crosscheck_report ~ops:500 ~seed:23 ~dup_pct:10 ~faults:plan ~durability:(dur 4)
      ~crash_pct:2 ~partition_pct:1 ~torn_pct:1 ()
  in
  List.iter
    (fun (name, run) ->
      let report, verdict = run () in
      (match verdict with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e));
      Alcotest.(check bool) "storm crashed a host" true
        (report.W.sr_crashes + report.W.sr_torn > 0);
      Alcotest.(check bool) "storm partitioned the cluster" true (report.W.sr_partitions > 0);
      Alcotest.(check bool) "readback covered acked writes" true (report.W.sr_readback > 0);
      Alcotest.(check int) "every crash recovered"
        (report.W.sr_crashes + report.W.sr_torn)
        report.W.sr_recoveries)
    [
      ("storm 71/11", seeded 71 11);
      ("storm 72/12", seeded 72 12);
      ("storm 73/13", seeded 73 13);
      ("full fault mix", full_mix);
    ]

let test_storm_double_fault () =
  (* Crash-during-recovery: power fails again while replay is in flight.
     Recovery is read-only, so the reboot restarts it from the same
     committed prefix — the storm must still end with no acked write
     lost. *)
  let plan = Vbase.Faultplan.create ~seed:5 () in
  Vbase.Faultplan.set_prob plan Ironkv.Durable.crash_during_recovery_site ~pct:40;
  let report, verdict =
    W.crosscheck_report ~ops:300 ~seed:81 ~faults:plan ~durability:(dur 2) ~crash_pct:3
      ~torn_pct:2 ()
  in
  (match verdict with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "crashes struck" true (report.W.sr_crashes + report.W.sr_torn > 0)

let test_recovery_probe () =
  let _secs, replayed = W.recovery_probe ~records:5_000 ~payload:64 ~group:64 () in
  Alcotest.(check bool)
    (Printf.sprintf "replayed %d >= 5000 records" replayed)
    true (replayed >= 5_000)

let canon h =
  ( List.sort compare (Ironkv.Host.dump h),
    List.sort compare (Ironkv.Host.cache_snapshot h),
    Ironkv.Host.max_epoch h )

let prop_crash_points =
  (* Sweep the power-failure point across every flush of a group-committed
     run: whatever flush the crash lands on, recovery must rebuild exactly
     one of the group-commit boundary states — a committed prefix, never a
     torn batch. *)
  QCheck.Test.make ~name:"every crash point recovers to a commit boundary" ~count:20
    QCheck.(pair (int_range 5 40) (int_range 1 6))
    (fun (n, group) ->
      let drive budget =
        let net = Ironkv.Network.create ~endpoints:2 ~sequenced:true () in
        let mem = Plog.Pmem.create ~size:(1 lsl 20) () in
        Ironkv.Durable.format mem;
        let d =
          match Ironkv.Durable.attach ~group mem with Ok d -> d | Error e -> failwith e
        in
        let h = Ironkv.Host.create ~durable:d ~style:`Inplace ~id:0 ~hosts:1 () in
        (match budget with Some b -> Plog.Pmem.set_flush_budget mem b | None -> ());
        (* Snapshot the host state at every successful group commit (plus
           the initial state); these are the only states recovery may
           legally produce. *)
        let snaps = ref [ canon h ] in
        let last_syncs = ref 0 in
        for i = 1 to n do
          if not (Ironkv.Host.is_dead h) then begin
            Ironkv.Host.handle h net
              (Ironkv.Message.to_bytes
                 (Ironkv.Message.Set
                    { client = 1; seq = i; key = i mod 7; value = Printf.sprintf "v%d" i }));
            match Ironkv.Host.durable h with
            | Some d
              when (not (Ironkv.Host.is_dead h)) && Ironkv.Durable.syncs d > !last_syncs ->
              last_syncs := Ironkv.Durable.syncs d;
              snaps := canon h :: !snaps
            | _ -> ()
          end
        done;
        if not (Ironkv.Host.is_dead h) then (
          match Ironkv.Host.sync h net with
          | `Ok _ -> snaps := canon h :: !snaps
          | `Crashed -> ());
        (* If power failed at the very last header flush the batch may
           still have committed: the state at death is also a legal
           boundary. *)
        if Ironkv.Host.is_dead h then snaps := canon h :: !snaps;
        (mem, !snaps)
      in
      let mem0, _ = drive None in
      let flushes = Plog.Pmem.flushes mem0 in
      let ok = ref true in
      for b = 0 to flushes do
        let mem, snaps = drive (Some b) in
        Plog.Pmem.crash mem;
        match Ironkv.Durable.recover ~group mem with
        | Error e -> failwith e
        | Ok (d, ops, routes) ->
          let h = Ironkv.Host.of_replay ~style:`Inplace ~id:0 ~hosts:1 ~durable:d (ops, routes) in
          if not (List.mem (canon h) snaps) then ok := false
      done;
      !ok)

let prop_crash_points_double_fault =
  (* Same sweep, but every recovery also has a 50% chance of crashing
     mid-replay (double fault): replay is read-only, so the retried
     recovery must land on the same boundary. *)
  QCheck.Test.make ~name:"double-fault recovery is idempotent" ~count:10
    QCheck.(triple (int_range 5 30) (int_range 1 4) (int_range 1 1000))
    (fun (n, group, fseed) ->
      let net = Ironkv.Network.create ~endpoints:2 ~sequenced:true () in
      let mem = Plog.Pmem.create ~size:(1 lsl 20) () in
      Ironkv.Durable.format mem;
      let d = match Ironkv.Durable.attach ~group mem with Ok d -> d | Error e -> failwith e in
      let h = Ironkv.Host.create ~durable:d ~style:`Inplace ~id:0 ~hosts:1 () in
      for i = 1 to n do
        Ironkv.Host.handle h net
          (Ironkv.Message.to_bytes
             (Ironkv.Message.Set
                { client = 1; seq = i; key = i mod 5; value = Printf.sprintf "w%d" i }))
      done;
      (match Ironkv.Host.sync h net with `Ok _ -> () | `Crashed -> failwith "unexpected");
      let committed = canon h in
      Plog.Pmem.crash mem;
      let plan = Vbase.Faultplan.create ~seed:fseed () in
      Vbase.Faultplan.set_prob plan Ironkv.Durable.crash_during_recovery_site ~pct:50;
      match Ironkv.Durable.recover ~group ~faults:plan mem with
      | Error e -> failwith e
      | Ok (d, ops, routes) ->
        let h' = Ironkv.Host.of_replay ~style:`Inplace ~id:0 ~hosts:1 ~durable:d (ops, routes) in
        canon h' = committed)

let test_kv_bench_schema () =
  (* Producer and checker share one implementation: a real (tiny) run,
     rendered through kv_bench_row/doc, must validate — and near-miss
     documents must not. *)
  let r = W.run ~hosts:2 ~clients:2 ~keys:200 ~payload:16 ~ops:60 ~style:`Inplace () in
  let doc = W.kv_bench_doc [ W.kv_bench_row ~name:"smoke" ~acked_write_loss:0 r ] in
  (match W.validate_kv_bench doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("emitted doc rejected: " ^ e));
  (* Round-trip through the serializer too. *)
  (match Vbase.Json.of_string (Vbase.Json.to_string doc) with
  | Ok doc' -> (
    match W.validate_kv_bench doc' with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("round-tripped doc rejected: " ^ e))
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e));
  let reject name j =
    match W.validate_kv_bench j with
    | Ok () -> Alcotest.fail (name ^ ": bogus doc accepted")
    | Error _ -> ()
  in
  reject "wrong schema"
    (Vbase.Json.Obj
       [ ("schema", Vbase.Json.String "nope/9"); ("rows", Vbase.Json.List []) ]);
  reject "empty rows" (W.kv_bench_doc []);
  reject "missing field"
    (W.kv_bench_doc [ Vbase.Json.Obj [ ("name", Vbase.Json.String "x") ] ])

(* ------------------------------------------------------------------ *)
(* EPR proof of the delegation map                                     *)
(* ------------------------------------------------------------------ *)

let test_marshal_proofs () =
  let obs = Ironkv.Marshal_proofs.run () in
  List.iter
    (fun (o : Ironkv.Marshal_proofs.obligation) ->
      Alcotest.(check bool)
        (Printf.sprintf "[%s] %s %s" o.Ironkv.Marshal_proofs.mode o.Ironkv.Marshal_proofs.name
           o.Ironkv.Marshal_proofs.detail)
        true o.Ironkv.Marshal_proofs.proved)
    obs

let test_epr_proof () =
  let obs = Ironkv.Delegation_proof.run () in
  List.iter
    (fun (o : Ironkv.Delegation_proof.obligation) ->
      Alcotest.(check bool)
        (Printf.sprintf "EPR: %s" o.Ironkv.Delegation_proof.name)
        true
        (o.Ironkv.Delegation_proof.answer = Smt.Solver.Unsat))
    obs;
  Alcotest.(check bool) "all proved" true (Ironkv.Delegation_proof.all_proved obs)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ironkv"
    [
      ( "marshal",
        [ Alcotest.test_case "primitives" `Quick test_marshal_primitives ] );
      qsuite "marshal-props" [ prop_marshal_roundtrip; prop_vec_roundtrip ];
      ( "delegation-map",
        [ Alcotest.test_case "basics" `Quick test_dmap_basics ] );
      qsuite "dmap-props" [ prop_dmap_vs_model; prop_dmap_pivot_compact ];
      ( "cluster",
        [
          Alcotest.test_case "crosscheck" `Quick test_cluster_crosscheck;
          Alcotest.test_case "crosscheck seeds" `Quick test_cluster_crosscheck_seeds;
          Alcotest.test_case "duplicate absorption" `Quick test_cluster_duplicates;
          Alcotest.test_case "at-most-once" `Quick test_at_most_once;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crosscheck full fault mix" `Quick test_crosscheck_fault_mix;
          Alcotest.test_case "crosscheck single faults" `Quick test_crosscheck_single_faults;
          Alcotest.test_case "replay determinism" `Quick test_fault_replay_deterministic;
          Alcotest.test_case "sequenced channel" `Quick test_sequenced_channel;
          Alcotest.test_case "sequenced never dropped" `Quick test_sequenced_never_dropped;
          Alcotest.test_case "partition park/heal" `Quick test_partition_park_heal;
          Alcotest.test_case "lossy run terminates" `Quick test_run_with_faults_terminates;
        ] );
      ( "durability",
        [
          Alcotest.test_case "durable crosscheck" `Quick test_durable_crosscheck;
          Alcotest.test_case "crash+partition storms" `Quick test_storm_crosscheck;
          Alcotest.test_case "double fault" `Quick test_storm_double_fault;
          Alcotest.test_case "recovery probe" `Quick test_recovery_probe;
          Alcotest.test_case "bench schema" `Quick test_kv_bench_schema;
        ] );
      qsuite "durability-props" [ prop_crash_points; prop_crash_points_double_fault ];
      ( "epr-proof",
        [
          Alcotest.test_case "delegation map" `Slow test_epr_proof;
          Alcotest.test_case "marshalling lemmas" `Slow test_marshal_proofs;
        ] );
    ]
