(* Persistent-log case study tests: basic append/read, recovery after
   crashes at adversarial points, CRC corruption detection, head advance /
   wrap-around, multilog atomicity, and a randomized crash-consistency
   property. *)

module P = Plog.Pmem
module L = Plog.Log

let mk ?(len = 4096 + L.header_bytes) () =
  let mem = P.create ~size:(len + 64) () in
  L.format mem ~base:0 ~len;
  let log = Result.get_ok (L.attach mem ~base:0 ~len) in
  (mem, log)

let test_append_read () =
  let _, log = mk () in
  Alcotest.(check (result unit string)) "a1" (Ok ()) (L.append log "hello ");
  Alcotest.(check (result unit string)) "a2" (Ok ()) (L.append log "world");
  Alcotest.(check int) "tail" 11 (L.tail log);
  Alcotest.(check (result string string)) "read" (Ok "hello world") (L.read log ~offset:0 ~len:11);
  Alcotest.(check (result string string)) "partial" (Ok "wor") (L.read log ~offset:6 ~len:3);
  Alcotest.(check bool) "oob" true (Result.is_error (L.read log ~offset:6 ~len:100))

let test_recovery_basic () =
  let mem, log = mk () in
  ignore (L.append log "abc");
  ignore (L.append log "defg");
  P.crash mem;
  let log2 = Result.get_ok (L.attach mem ~base:0 ~len:(4096 + L.header_bytes)) in
  Alcotest.(check int) "tail recovered" 7 (L.tail log2);
  Alcotest.(check (result string string)) "data recovered" (Ok "abcdefg")
    (L.read log2 ~offset:0 ~len:7)

let test_crash_mid_append () =
  (* Crash after data flush but before the commit slot flush: the append
     must not be visible.  We emulate by writing data manually. *)
  let mem, log = mk () in
  ignore (L.append log "committed");
  (* Start an append whose commit never lands: write data without header. *)
  P.write mem ~addr:(L.header_bytes + 9) "UNCOMMITTED";
  (* no flush of a new header slot *)
  P.crash mem;
  let log2 = Result.get_ok (L.attach mem ~base:0 ~len:(4096 + L.header_bytes)) in
  Alcotest.(check int) "tail excludes torn append" 9 (L.tail log2);
  Alcotest.(check (result string string)) "prefix intact" (Ok "committed")
    (L.read log2 ~offset:0 ~len:9)

let test_corruption_detected () =
  let mem, log = mk () in
  ignore (L.append log "data!");
  (* Corrupt the active header slot (slot index = version mod 2). *)
  P.flip_bit mem ~addr:3 ~bit:2;
  (* slot 0 *)
  P.flip_bit mem ~addr:35 ~bit:5;
  (* slot 1 *)
  (match L.attach mem ~base:0 ~len:(4096 + L.header_bytes) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt metadata accepted");
  (* A single corrupted slot still recovers from the other. *)
  let mem2, log2 = mk () in
  ignore (L.append log2 "x");
  ignore (L.append log2 "y");
  (* After format (version 1) and two appends the version is 3, so the
     active slot is index 1; corrupt the stale slot 0 only. *)
  P.flip_bit mem2 ~addr:5 ~bit:0;
  (match L.attach mem2 ~base:0 ~len:(4096 + L.header_bytes) with
  | Ok l -> Alcotest.(check int) "recovered from good slot" 2 (L.tail l)
  | Error e -> Alcotest.fail e)

let test_advance_head_wraparound () =
  let _, log = mk ~len:(256 + L.header_bytes) () in
  (* Fill, advance, and wrap several times. *)
  for round = 0 to 9 do
    let payload = String.make 100 (Char.chr (Char.code 'a' + round)) in
    (match L.append log payload with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "round %d: %s" round e));
    if L.tail log - L.head log > 150 then
      Alcotest.(check (result unit string)) "advance" (Ok ())
        (L.advance_head log (L.tail log - 100))
  done;
  (* The last append is intact across the wrap. *)
  Alcotest.(check (result string string)) "wrap read" (Ok (String.make 100 'j'))
    (L.read log ~offset:(L.tail log - 100) ~len:100)

let test_log_full () =
  let _, log = mk ~len:(64 + L.header_bytes) () in
  Alcotest.(check (result unit string)) "fits" (Ok ()) (L.append log (String.make 64 'x'));
  Alcotest.(check bool) "full" true (Result.is_error (L.append log "y"));
  ignore (L.advance_head log 10);
  Alcotest.(check (result unit string)) "after advance" (Ok ()) (L.append log "0123456789")

(* Randomized crash consistency: appends are acked only when append
   returns; after a crash at a random point, recovery must yield exactly a
   prefix of acked appends (nothing lost that was acked, nothing invented). *)
let prop_crash_consistency =
  QCheck.Test.make ~name:"crash recovery yields acked prefix" ~count:60
    QCheck.(pair small_nat (int_range 0 10000))
    (fun (seed, _) ->
      let len = 512 + L.header_bytes in
      let mem = P.create ~size:len () in
      L.format mem ~base:0 ~len;
      let log = Result.get_ok (L.attach mem ~base:0 ~len) in
      let rng = Vbase.Rng.create ~seed in
      let acked = Buffer.create 256 in
      let crash_after = Vbase.Rng.int rng 30 + 1 in
      (try
         for i = 1 to 40 do
           if i = crash_after then raise Exit;
           let payload =
             String.init (1 + Vbase.Rng.int rng 20) (fun _ ->
                 Char.chr (Char.code 'a' + Vbase.Rng.int rng 26))
           in
           (* Keep space available. *)
           if L.tail log - L.head log + String.length payload > 400 then
             ignore (L.advance_head log (L.tail log - 50));
           match L.append log payload with
           | Ok () -> Buffer.add_string acked payload
           | Error _ -> ()
         done
       with Exit -> ());
      P.crash mem;
      match L.attach mem ~base:0 ~len with
      | Error e -> QCheck.Test.fail_report e
      | Ok log2 ->
        let h = L.head log2 and t = L.tail log2 in
        (* Everything acked must be present: tail >= total acked bytes. *)
        if t < Buffer.length acked then QCheck.Test.fail_report "acked data lost"
        else begin
          (* Readable region must match the acked byte stream. *)
          match L.read log2 ~offset:h ~len:(min (t - h) (Buffer.length acked - h)) with
          | Ok s ->
            let expect = Buffer.sub acked h (String.length s) in
            if s = expect then true else QCheck.Test.fail_report "recovered bytes differ"
          | Error e -> QCheck.Test.fail_report e
        end)

(* --- multilog ------------------------------------------------------- *)

let test_multilog_atomic () =
  let mem = P.create ~size:65536 () in
  Plog.Multilog.format mem ~base:0 ~log_len:1024 ~logs:3;
  let ml = Result.get_ok (Plog.Multilog.attach mem ~base:0 ~log_len:1024 ~logs:3) in
  Alcotest.(check (result unit string)) "append" (Ok ())
    (Plog.Multilog.append_all ml [ "aa"; "bbb"; "c" ]);
  Alcotest.(check (list int)) "tails" [ 2; 3; 1 ] (Plog.Multilog.tails ml);
  (* Data written but not committed disappears on crash. *)
  ignore (Plog.Multilog.append_all ml [ "XX"; "YYY"; "Z" ]);
  P.crash mem;
  let ml2 = Result.get_ok (Plog.Multilog.attach mem ~base:0 ~log_len:1024 ~logs:3) in
  Alcotest.(check (list int)) "committed tails survive" [ 4; 6; 2 ] (Plog.Multilog.tails ml2);
  Alcotest.(check (result string string)) "log1 contents" (Ok "bbbYYY")
    (Plog.Multilog.read ml2 ~log:1 ~offset:0 ~len:6)

let test_multilog_all_or_nothing () =
  let mem = P.create ~size:65536 () in
  Plog.Multilog.format mem ~base:0 ~log_len:64 ~logs:2;
  let ml = Result.get_ok (Plog.Multilog.attach mem ~base:0 ~log_len:64 ~logs:2) in
  (* Second payload too big: nothing commits. *)
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Plog.Multilog.append_all ml [ "ok"; String.make 100 'x' ]));
  Alcotest.(check (list int)) "unchanged" [ 0; 0 ] (Plog.Multilog.tails ml)

(* Power cut inside a single-log append (the fence never lands): recovery
   must yield a clean *prefix* of the append stream — an append whose
   commit didn't persist may vanish, but nothing torn, reordered or
   invented may appear. *)
let prop_log_powercut =
  QCheck.Test.make ~name:"log power cut yields clean prefix" ~count:80
    QCheck.(pair small_nat (int_range 0 25))
    (fun (seed, budget) ->
      let len = 2048 + L.header_bytes in
      let mem = P.create ~size:len () in
      L.format mem ~base:0 ~len;
      let log = Result.get_ok (L.attach mem ~base:0 ~len) in
      let rng = Vbase.Rng.create ~seed in
      let stream = Buffer.create 256 in
      P.set_flush_budget mem budget;
      for _ = 1 to 12 do
        let payload =
          String.init (1 + Vbase.Rng.int rng 20) (fun _ ->
              Char.chr (Char.code 'a' + Vbase.Rng.int rng 26))
        in
        match L.append log payload with
        | Ok () -> Buffer.add_string stream payload
        | Error _ -> ()
      done;
      P.crash mem;
      match L.attach mem ~base:0 ~len with
      | Error e -> QCheck.Test.fail_report ("recovery failed: " ^ e)
      | Ok log2 ->
        let t = L.tail log2 in
        if t > Buffer.length stream then QCheck.Test.fail_report "invented data"
        else begin
          match L.read log2 ~offset:0 ~len:t with
          | Ok s ->
            if s = Buffer.sub stream 0 t then true
            else QCheck.Test.fail_report "recovered bytes are not a stream prefix"
          | Error e -> QCheck.Test.fail_report e
        end)

(* Torn writes: the "pmem.torn" fault site cuts power *mid-flush* at a
   plan-chosen flush, persisting only a prefix of the flushed range — the
   torn / partial-cache-line write of a real power failure.  Wherever the
   tear lands (data, or worse, inside a header slot), recovery must still
   come up, rejecting torn metadata via CRC and exposing a clean committed
   prefix of the append stream. *)
let prop_log_torn_write =
  QCheck.Test.make ~name:"torn flush yields clean prefix (CRC rejects torn slot)" ~count:120
    QCheck.(pair small_nat (int_range 1 60))
    (fun (seed, torn_at) ->
      let torn_at = max 1 torn_at (* shrinker may step below the range *) in
      let len = 2048 + L.header_bytes in
      let plan = Vbase.Faultplan.create ~seed:(seed + 1) () in
      let mem = P.create ~faults:plan ~size:len () in
      L.format mem ~base:0 ~len;
      let log = Result.get_ok (L.attach mem ~base:0 ~len) in
      (* Tear the [torn_at]-th flush *after* formatting (a tear during
         format loses the log before it ever existed — not a recovery
         scenario); every later flush is lost too. *)
      Vbase.Faultplan.fire_at plan "pmem.torn"
        [ Vbase.Faultplan.step plan "pmem.torn" + torn_at ];
      let rng = Vbase.Rng.create ~seed in
      let stream = Buffer.create 256 in
      for _ = 1 to 12 do
        let payload =
          String.init (1 + Vbase.Rng.int rng 20) (fun _ ->
              Char.chr (Char.code 'a' + Vbase.Rng.int rng 26))
        in
        match L.append log payload with
        | Ok () -> Buffer.add_string stream payload
        | Error _ -> ()
      done;
      P.crash mem;
      match L.attach mem ~base:0 ~len with
      | Error e -> QCheck.Test.fail_report ("recovery failed: " ^ e)
      | Ok log2 ->
        let t = L.tail log2 in
        if t > Buffer.length stream then QCheck.Test.fail_report "invented data"
        else begin
          match L.read log2 ~offset:0 ~len:t with
          | Ok s ->
            if s = Buffer.sub stream 0 t then true
            else QCheck.Test.fail_report "recovered bytes are not a stream prefix"
          | Error e -> QCheck.Test.fail_report e
        end)

(* Replaying the same fault plan tears the same flush at the same byte:
   recovery lands in the same state both times. *)
let test_torn_write_replay () =
  let run () =
    let len = 1024 + L.header_bytes in
    let plan = Vbase.Faultplan.create ~seed:99 () in
    Vbase.Faultplan.set_prob plan "pmem.torn" ~pct:4;
    let mem = P.create ~faults:plan ~size:len () in
    L.format mem ~base:0 ~len;
    let log = Result.get_ok (L.attach mem ~base:0 ~len) in
    for i = 1 to 20 do
      ignore (L.append log (Printf.sprintf "payload-%02d" i))
    done;
    P.crash mem;
    let log2 = Result.get_ok (L.attach mem ~base:0 ~len) in
    let t = L.tail log2 in
    (t, Result.get_ok (L.read log2 ~offset:0 ~len:t), Vbase.Faultplan.trace_to_string plan)
  in
  let t1, s1, tr1 = run () and t2, s2, tr2 = run () in
  Alcotest.(check int) "same recovered tail" t1 t2;
  Alcotest.(check string) "same recovered bytes" s1 s2;
  Alcotest.(check string) "same fault trace" tr1 tr2

(* A tear armed five flushes after format must actually fire, and the
   log must still attach with a committed prefix of what was acked. *)
let test_torn_write_fires () =
  let len = 1024 + L.header_bytes in
  let plan = Vbase.Faultplan.create ~seed:11 () in
  let mem = P.create ~faults:plan ~size:len () in
  L.format mem ~base:0 ~len;
  let log = Result.get_ok (L.attach mem ~base:0 ~len) in
  Vbase.Faultplan.fire_at plan "pmem.torn" [ Vbase.Faultplan.step plan "pmem.torn" + 5 ];
  let acked = Buffer.create 128 in
  for i = 1 to 10 do
    let entry = Printf.sprintf "entry-%02d" i in
    if L.append log entry = Ok () then Buffer.add_string acked entry
  done;
  Alcotest.(check bool) "tear fired" true (Vbase.Faultplan.fired plan "pmem.torn" > 0);
  P.crash mem;
  match L.attach mem ~base:0 ~len with
  | Error e -> Alcotest.fail ("recovery after torn write: " ^ e)
  | Ok log2 ->
    let t = L.tail log2 in
    Alcotest.(check bool) "recovered no more than was acked" true (t <= Buffer.length acked);
    Alcotest.(check (result string string))
      "recovered a committed prefix"
      (Ok (Buffer.sub acked 0 t))
      (L.read log2 ~offset:0 ~len:t)

(* Randomized power-cut atomicity: flushes stop persisting after a random
   budget (the fence never lands), so the cut can fall anywhere inside an
   append_all's write sequence — between data flushes, or between data and
   commit.  Recovery must expose exactly the first k multi-appends for a
   single k across ALL logs: never a torn append. *)
let prop_multilog_powercut =
  QCheck.Test.make ~name:"multilog survives mid-append power cut" ~count:80
    QCheck.(pair small_nat (int_range 0 40))
    (fun (seed, budget) ->
      let logs = 3 and log_len = 2048 in
      let mem = P.create ~size:65536 () in
      Plog.Multilog.format mem ~base:0 ~log_len ~logs;
      let ml = Result.get_ok (Plog.Multilog.attach mem ~base:0 ~log_len ~logs) in
      let rng = Vbase.Rng.create ~seed in
      let n_appends = 1 + Vbase.Rng.int rng 8 in
      (* Per-append payloads, possibly empty for some logs. *)
      let appends =
        List.init n_appends (fun _ ->
            List.init logs (fun _ ->
                String.init (Vbase.Rng.int rng 30) (fun _ ->
                    Char.chr (Char.code 'a' + Vbase.Rng.int rng 26))))
      in
      P.set_flush_budget mem budget;
      List.iter (fun ps -> ignore (Plog.Multilog.append_all ml ps)) appends;
      P.crash mem;
      match Plog.Multilog.attach mem ~base:0 ~log_len ~logs with
      | Error e -> QCheck.Test.fail_report ("recovery failed: " ^ e)
      | Ok ml2 ->
        let tails = Plog.Multilog.tails ml2 in
        (* Find the unique k whose cumulative lengths match every log. *)
        let cumulative k =
          List.init logs (fun l ->
              List.fold_left
                (fun acc ps -> acc + String.length (List.nth ps l))
                0
                (List.filteri (fun i _ -> i < k) appends))
        in
        let rec find_k k =
          if k > n_appends then None
          else if cumulative k = tails then Some k
          else find_k (k + 1)
        in
        (match find_k 0 with
        | None ->
          QCheck.Test.fail_report
            (Printf.sprintf "torn append: tails %s match no prefix"
               (String.concat "," (List.map string_of_int tails)))
        | Some k ->
          (* Contents of each log must equal the first k payloads. *)
          List.for_all
            (fun l ->
              let expect =
                String.concat ""
                  (List.filteri (fun i _ -> i < k) appends |> List.map (fun ps -> List.nth ps l))
              in
              match Plog.Multilog.read ml2 ~log:l ~offset:0 ~len:(String.length expect) with
              | Ok s -> s = expect
              | Error _ -> String.length expect = 0)
            (List.init logs (fun l -> l))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "plog"
    [
      ( "log",
        [
          Alcotest.test_case "append/read" `Quick test_append_read;
          Alcotest.test_case "recovery" `Quick test_recovery_basic;
          Alcotest.test_case "crash mid-append" `Quick test_crash_mid_append;
          Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
          Alcotest.test_case "advance/wrap" `Quick test_advance_head_wraparound;
          Alcotest.test_case "log full" `Quick test_log_full;
        ] );
      qsuite "crash-props"
        [
          prop_crash_consistency;
          prop_log_powercut;
          prop_log_torn_write;
          prop_multilog_powercut;
        ];
      ( "torn-writes",
        [
          Alcotest.test_case "replay determinism" `Quick test_torn_write_replay;
          Alcotest.test_case "armed tear fires, prefix recovers" `Quick test_torn_write_fires;
        ] );
      ( "multilog",
        [
          Alcotest.test_case "atomic append" `Quick test_multilog_atomic;
          Alcotest.test_case "all-or-nothing" `Quick test_multilog_all_or_nothing;
        ] );
    ]
