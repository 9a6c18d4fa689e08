(* Vlint static-analysis tests: every diagnostic code fires on a seeded
   defect (positive) and stays silent on the bundled benchmark programs
   under the Verus profile (negative).  Includes the acceptance case from
   the paper's trigger story: a liberal-trigger heap-axiom instantiation
   cycle is flagged as a matching loop while the conservative/curated
   Verus-style axioms are not. *)

module T = Smt.Term
module S = Smt.Sort
open Verus
open Vir

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Vlint.code) ds)
let has code ds = List.exists (fun d -> String.equal d.Vlint.code code) ds
let check_has name code ds = Alcotest.(check bool) (name ^ " fires " ^ code) true (has code ds)

let check_not name code ds =
  Alcotest.(check bool) (name ^ " silent on " ^ code) false (has code ds)

(* Minimal program scaffolding. *)
let p name ty = { pname = name; pty = ty; pmut = false }
let pmut name ty = { pname = name; pty = ty; pmut = true }

let fn ?(mode = Exec) ?(params = []) ?ret ?(requires = []) ?(ensures = []) ?body ?spec_body
    ?(attrs = []) name =
  { fname = name; fmode = mode; params; ret; requires; ensures; body; spec_body; attrs }

let prog ?(datatypes = []) functions = { datatypes; functions }
let lint_verus pr = Vlint.lint Profiles.verus pr
let int_ = TInt I_math

(* ------------------------------------------------------------------ *)
(* VL00x — termination                                                 *)
(* ------------------------------------------------------------------ *)

(* A recursive spec function without a measure: f(x) = f(x) + 1 would be
   unsound; even f(x) = f(x) is enough to form the recursion SCC. *)
let test_vl001 () =
  let bad =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("f", [ v "x" ]));
      ]
  in
  check_has "recursive spec fn" "VL001" (lint_verus bad);
  (* Mutual recursion through two functions. *)
  let mutual =
    prog
      [
        fn "g" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("h", [ v "x" ]));
        fn "h" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("g", [ v "x" ]));
      ]
  in
  let ds = lint_verus mutual in
  Alcotest.(check int) "both SCC members flagged" 2 (List.length (List.filter (fun d -> d.Vlint.code = "VL001") ds));
  (* With a decreases measure the code is silent. *)
  let good =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(EIte (v "x" <=: i 0, i 0, ECall ("f", [ v "x" -: i 1 ])))
          ~attrs:[ A_decreases (v "x") ];
      ]
  in
  check_not "measured recursion" "VL001" (lint_verus good)

let test_vl002_vl003 () =
  let loop ~decreases body = SWhile { cond = v "b" <: i 10; invariants = []; decreases; body } in
  (* Proof-mode loop without decreases: Error. *)
  let bad_proof =
    prog
      [
        fn "lemma" ~mode:Proof ~params:[ p "b" int_ ]
          ~body:[ SLet ("x", int_, i 0); loop ~decreases:None [ SAssign ("x", v "x" +: i 1) ] ];
      ]
  in
  let ds = lint_verus bad_proof in
  check_has "proof loop" "VL002" ds;
  Alcotest.(check bool) "proof loop is Error" true
    (List.exists (fun d -> d.Vlint.code = "VL002" && d.Vlint.severity = Vlint.Error) ds);
  (* Exec-mode loop without decreases: Warn only. *)
  let exec_loop =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "b" int_ ]
          ~body:[ SLet ("x", int_, i 0); loop ~decreases:None [ SAssign ("x", v "x" +: i 1) ] ];
      ]
  in
  Alcotest.(check bool) "exec loop is Warn" true
    (List.exists
       (fun d -> d.Vlint.code = "VL002" && d.Vlint.severity = Vlint.Warn)
       (lint_verus exec_loop));
  (* VL003: measure over loop-constant variables cannot decrease. *)
  let const_measure =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "b" int_ ]
          ~body:
            [ SLet ("x", int_, i 0); loop ~decreases:(Some (v "b")) [ SAssign ("x", v "x" +: i 1) ] ];
      ]
  in
  check_has "constant measure" "VL003" (lint_verus const_measure);
  (* VL003 on a function-level measure naming no parameter. *)
  let const_fn_measure =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("f", [ v "x" ]))
          ~attrs:[ A_decreases (i 7) ];
      ]
  in
  check_has "parameterless fn measure" "VL003" (lint_verus const_fn_measure)

(* ------------------------------------------------------------------ *)
(* VL01x — matching loops                                              *)
(* ------------------------------------------------------------------ *)

(* The classic diverging axiom  forall x {p(x)}. p(x) => p(f(x)) :
   every instantiation manufactures a deeper trigger. *)
let test_vl010_classic () =
  let u = S.Usort "VlintU" in
  let psym = T.Sym.declare "vlint.p" [ u ] S.Bool in
  let fsym = T.Sym.declare "vlint.f" [ u ] u in
  let x = T.bvar "x" u in
  let ax =
    T.forall
      ~triggers:[ [ T.app psym [ x ] ] ]
      [ ("x", u) ]
      (T.implies (T.app psym [ x ]) (T.app psym [ T.app fsym [ x ] ]))
  in
  (* Drive the detector directly on the hand-built axiom... *)
  check_has "hand-built p(x) => p(f(x))" "VL010" (Vlint.check_axioms Profiles.verus [ ax ]);
  (* ...and through a seeded one-axiom "program": a spec function whose
     definitional axiom IS a matching loop — recursive without decreases
     (hence un-exempt). *)
  let looping =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("f", [ EUnop (Neg, v "x") ]) +: i 1);
      ]
  in
  let ds = Vlint.check_matching_loops Profiles.verus looping in
  check_has "recursive spec axiom" "VL010" ds;
  (* The same definition with a decreases measure is fuel-bounded. *)
  let measured =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(EIte (v "x" <=: i 0, i 0, ECall ("f", [ v "x" -: i 1 ]) +: i 1))
          ~attrs:[ A_decreases (v "x") ];
      ]
  in
  check_not "measured spec axiom" "VL010" (Vlint.check_matching_loops Profiles.verus measured)

(* The acceptance case: the Dafny-style alloc-reachability heap axiom
   (forall h, rho. alloc(h, rho) => alloc(h, unbox(rd(h, rho)))) is a
   matching loop once the trigger is the liberal alloc(h, rho) — each
   round produces a new alloc term two levels deeper.  The curated
   triggers the conservative profiles attach ({rd(h,rho)} and the
   goal-directed {alloc(h, target)}) break the cycle. *)
let heap_program =
  (* A datatype with a self-referencing field generates exactly the
     reachability axiom above under the Heap encoding. *)
  prog
    ~datatypes:
      [ { dname = "Node"; variants = [ ("Leaf", []); ("Node", [ ("next", TData "Node") ]) ] } ]
    [
      fn "touch" ~mode:Exec
        ~params:[ p "n" (TData "Node") ]
        ~body:[ SReturn None ];
    ]

let liberal_heap_profile =
  {
    Profiles.dafny with
    Profiles.name = "Dafny-liberal";
    curated_triggers = false;
    trigger_policy = Smt.Triggers.Liberal;
  }

let test_vl010_heap_axioms () =
  let liberal = Vlint.check_matching_loops liberal_heap_profile heap_program in
  check_has "liberal heap axioms" "VL010" liberal;
  Alcotest.(check bool) "cycle goes through heap.alloc" true
    (List.exists
       (fun d ->
         d.Vlint.code = "VL010"
         && Str.string_match (Str.regexp ".*heap\\.alloc.*") d.Vlint.message 0)
       liberal);
  (* Curated conservative triggers (Dafny profile as shipped): clean. *)
  check_not "curated heap axioms" "VL010"
    (Vlint.check_matching_loops Profiles.dafny heap_program);
  (* The Verus profile does not even build heap axioms (ownership). *)
  check_not "ownership encoding" "VL010"
    (Vlint.check_matching_loops Profiles.verus heap_program)

let test_vl010_degrades_to_unknown () =
  (* The same liberal heap axiom set Vlint flags as VL010 really is a
     matching loop — but the solver must degrade gracefully: with a round
     budget and a deadline configured, the solve returns [Unknown] with a
     budget reason within the allotted wall-clock instead of hanging.  (A
     ground alloc fact seeds the loop: each round instantiates the
     reachability axiom one level deeper.) *)
  let axioms = Encode.program_axioms liberal_heap_profile heap_program in
  Alcotest.(check bool) "liberal encoding produced heap axioms" true (axioms <> []);
  let h0 = T.const (T.Sym.fresh "h0" [] Theories.heap_sort) in
  let r0 = T.const (T.Sym.fresh "r0" [] Theories.ref_sort) in
  let seed = T.app Theories.alloc_sym [ h0; r0 ] in
  let deadline_s = 5.0 in
  let config =
    {
      Smt.Solver.default_config with
      Smt.Solver.budget =
        { Smt.Solver.default_budget with Smt.Solver.max_rounds = 4; deadline_s };
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Smt.Solver.solve ~config (seed :: axioms) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r.Smt.Solver.answer with
  | Smt.Solver.Unknown reason ->
    Alcotest.(check bool)
      (Printf.sprintf "budget reason (got %S)" reason)
      true
      (List.exists
         (fun frag ->
           Str.string_match (Str.regexp (".*" ^ Str.quote frag ^ ".*")) reason 0)
         [ "round"; "timeout"; "budget"; "quantifier" ])
  | Smt.Solver.Unsat -> Alcotest.fail "matching-loop set cannot be refuted from a ground seed"
  | Smt.Solver.Sat -> Alcotest.fail "quantified heap axioms cannot be definitively Sat");
  (* The deadline is honoured (generous slack for a loaded machine). *)
  Alcotest.(check bool)
    (Printf.sprintf "returned within deadline (%.2fs)" elapsed)
    true
    (elapsed < deadline_s +. 2.0);
  Alcotest.(check bool) "rounds capped" true (r.Smt.Solver.stats.Smt.Solver.rounds <= 4)

let test_vl011 () =
  (* An axiom quantifying over a variable no candidate pattern covers:
     pure arithmetic body, no uninterpreted application at all.  Trigger
     selection has nothing to pick, so the axiom can never instantiate. *)
  let x = T.bvar "x" S.Int in
  let dead =
    (* x*x >= 0 — true, but with no uninterpreted application the solver
       has no pattern to match on.  (Simpler bodies like x + 0 = x are
       simplified away by the hash-consing smart constructors.) *)
    T.forall [ ("x", S.Int) ]
      (T.le (T.int_lit (Vbase.Bigint.of_int 0)) (T.mul x x))
  in
  check_has "arithmetic-only axiom" "VL011" (Vlint.check_axioms Profiles.verus [ dead ]);
  (* Spec-function definitional axioms always carry their own application
     as a curated trigger, so even an arithmetic-only body stays live. *)
  let arith_only =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(v "x" +: i 1);
      ]
  in
  check_not "spec fn axiom is self-triggering" "VL011"
    (Vlint.check_matching_loops Profiles.verus arith_only)

(* ------------------------------------------------------------------ *)
(* VL02x — mode discipline                                             *)
(* ------------------------------------------------------------------ *)

let spec_id =
  fn "sid" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_) ~spec_body:(v "x")

let test_vl020 () =
  let bad =
    prog [ spec_id; fn "run" ~mode:Exec ~body:[ SCall (Some "y", "sid", [ i 1 ]); SReturn None ] ]
  in
  check_has "stmt call to spec fn" "VL020" (lint_verus bad);
  let good = prog [ spec_id; fn "run" ~mode:Exec ~body:[ SLet ("y", int_, ECall ("sid", [ i 1 ])); SReturn None ] ] in
  check_not "expr call to spec fn" "VL020" (lint_verus good)

let test_vl021 () =
  let exec_fn = fn "work" ~mode:Exec ~body:[ SReturn None ] in
  let bad = prog [ exec_fn; fn "lemma" ~mode:Proof ~body:[ SCall (None, "work", []) ] ] in
  check_has "proof calls exec" "VL021" (lint_verus bad);
  let proof_fn = fn "helper" ~mode:Proof ~body:[] in
  let good = prog [ proof_fn; fn "lemma" ~mode:Proof ~body:[ SCall (None, "helper", []) ] ] in
  check_not "proof calls proof" "VL021" (lint_verus good)

let test_vl022 () =
  let exec_fn = fn "work" ~mode:Exec ~ret:("result", int_) ~body:[ SReturn (Some (i 1)) ] in
  let bad =
    prog
      [
        exec_fn;
        fn "run" ~mode:Exec ~ret:("result", int_)
          ~ensures:[ v "result" ==: ECall ("work", [] ) ]
          ~body:[ SReturn (Some (i 1)) ];
      ]
  in
  check_has "exec fn in spec position" "VL022" (lint_verus bad)

let test_vl023 () =
  let bad =
    prog
      [ fn "s" ~mode:Spec ~params:[ pmut "x" int_ ] ~ret:("result", int_) ~spec_body:(v "x") ]
  in
  check_has "spec fn with &mut" "VL023" (lint_verus bad)

let test_vl024 () =
  let opaque =
    fn "hidden" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_) ~spec_body:(v "x" +: i 1)
      ~attrs:[ A_opaque ]
  in
  let bad =
    prog
      [
        opaque;
        fn "run" ~mode:Exec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~ensures:[ v "result" ==: ECall ("hidden", [ v "x" ]) ]
          ~body:[ SReturn (Some (v "x" +: i 1)) ];
      ]
  in
  check_has "ensures needs opaque body" "VL024" (lint_verus bad);
  (* Non-opaque version is fine. *)
  let transparent = { opaque with attrs = [] } in
  let good =
    prog
      [
        transparent;
        fn "run" ~mode:Exec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~ensures:[ v "result" ==: ECall ("hidden", [ v "x" ]) ]
          ~body:[ SReturn (Some (v "x" +: i 1)) ];
      ]
  in
  check_not "transparent spec fn" "VL024" (lint_verus good)

(* ------------------------------------------------------------------ *)
(* VL03x — proof hygiene                                               *)
(* ------------------------------------------------------------------ *)

let test_vl030 () =
  let bad =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "n" int_ ]
          ~body:
            [
              SLet ("x", int_, i 0);
              SWhile
                {
                  cond = v "x" <: v "n";
                  invariants = [ v "n" >=: i 0 (* loop-constant: vacuous *) ];
                  decreases = Some (v "n" -: v "x");
                  body = [ SAssign ("x", v "x" +: i 1) ];
                };
              SReturn None;
            ];
      ]
  in
  check_has "loop-constant invariant" "VL030" (lint_verus bad);
  let good =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "n" int_ ]
          ~body:
            [
              SLet ("x", int_, i 0);
              SWhile
                {
                  cond = v "x" <: v "n";
                  invariants = [ v "x" <=: v "n" ];
                  decreases = Some (v "n" -: v "x");
                  body = [ SAssign ("x", v "x" +: i 1) ];
                };
              SReturn None;
            ];
      ]
  in
  check_not "invariant over loop variable" "VL030" (lint_verus good)

let test_vl031 () =
  let bad =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~ensures:[ v "x" >=: i 0 ]
          ~body:[ SReturn (Some (v "x")) ];
      ]
  in
  check_has "ensures ignore result" "VL031" (lint_verus bad);
  let good =
    prog
      [
        fn "run" ~mode:Exec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~ensures:[ v "result" ==: v "x" ]
          ~body:[ SReturn (Some (v "x")) ];
      ]
  in
  check_not "ensures mention result" "VL031" (lint_verus good)

let test_vl032 () =
  let bad =
    prog
      [
        fn "run" ~mode:Exec
          ~params:[ p "x" int_; p "y" int_ ]
          ~ret:("result", int_)
          ~requires:[ v "y" >=: i 0 (* y is never used *) ]
          ~ensures:[ v "result" ==: v "x" ]
          ~body:[ SReturn (Some (v "x")) ];
      ]
  in
  check_has "unused requires" "VL032" (lint_verus bad);
  let good =
    prog
      [
        fn "run" ~mode:Exec
          ~params:[ p "x" int_ ]
          ~ret:("result", int_)
          ~requires:[ v "x" >=: i 0 ]
          ~ensures:[ v "result" ==: v "x" ]
          ~body:[ SReturn (Some (v "x")) ];
      ]
  in
  check_not "used requires" "VL032" (lint_verus good)

let test_vl033 () =
  let bad =
    prog
      [
        fn "run" ~mode:Exec ~ret:("result", int_)
          ~body:[ SReturn (Some (i 1)); SLet ("x", int_, i 2) ];
      ]
  in
  check_has "code after return" "VL033" (lint_verus bad);
  let bad2 =
    prog
      [
        fn "lemma" ~mode:Proof
          ~body:[ SAssert (EBool false, H_default); SAssume (EBool true) ];
      ]
  in
  check_has "code after assert false" "VL033" (lint_verus bad2)

(* ------------------------------------------------------------------ *)
(* Negative: bundled programs are clean under the Verus profile        *)
(* ------------------------------------------------------------------ *)

(* The one bundled-program table the CLI and daemon serve. *)
let bundled = List.map (fun (name, mk) -> (name, mk ())) Vservice.programs

(* "Clean" means no actionable (Error/Warn) findings.  The VL04x
   abstract-interpretation pass intentionally reports Info-level facts on
   real programs (e.g. VL044 "this overflow obligation is provably
   impossible" on singly_linked's indexer) — those are observations, not
   defects, and must not fail this gate. *)
let test_bundled_clean () =
  List.iter
    (fun (name, pr) ->
      let ds =
        List.filter (fun d -> d.Vlint.severity <> Vlint.Info) (lint_verus pr)
      in
      Alcotest.(check (list string)) (name ^ " clean under Verus") [] (codes ds))
    bundled

(* Theory axiom sets under every shipped profile stay loop-free: the
   conservative/curated triggers are the paper's §3.1 point. *)
let test_profiles_loop_free () =
  List.iter
    (fun (prof : Profiles.t) ->
      List.iter
        (fun (name, pr) ->
          check_not
            (name ^ " under " ^ prof.Profiles.name)
            "VL010"
            (Vlint.check_matching_loops prof pr))
        bundled)
    Profiles.all

(* ------------------------------------------------------------------ *)
(* Driver integration                                                  *)
(* ------------------------------------------------------------------ *)

let test_driver_lint_strict () =
  let bad =
    prog
      [
        fn "f" ~mode:Spec ~params:[ p "x" int_ ] ~ret:("result", int_)
          ~spec_body:(ECall ("f", [ v "x" ]));
        fn "run" ~mode:Exec ~ret:("result", int_) ~body:[ SReturn (Some (i 1)) ];
      ]
  in
  let r =
    Driver.verify_program
      ~config:Driver.Config.(with_lint Driver.Lint_strict default)
      Profiles.verus bad
  in
  Alcotest.(check bool) "strict lint fails" false r.Driver.pr_ok;
  Alcotest.(check bool) "no VCs were run" true (r.Driver.pr_fns = []);
  (match Driver.first_failure r with
  | Some (where, _, code) ->
    Alcotest.(check string) "failure code is the lint code" "VL001" code;
    Alcotest.(check string) "failure names the function" "f" where
  | None -> Alcotest.fail "expected a first_failure");
  (* Warn mode records but does not fail. *)
  let r2 =
    Driver.verify_program
      ~config:Driver.Config.(with_lint Driver.Lint_warn default)
      Profiles.verus bad
  in
  Alcotest.(check bool) "warn mode verifies" true r2.Driver.pr_ok;
  Alcotest.(check bool) "warn mode records findings" true (r2.Driver.pr_lint <> [])

let test_first_failure_codes () =
  (* Clean program: no failure triple at all. *)
  let ok =
    Driver.verify_program
      ~config:Driver.Config.(with_lint Driver.Lint_strict default)
      Profiles.verus Bench_programs.singly_linked
  in
  Alcotest.(check bool) "clean program verifies strict" true ok.Driver.pr_ok;
  Alcotest.(check bool) "no first_failure" true (Driver.first_failure ok = None);
  (* Broken program: VC-level code.  Depending on solver budget the broken
     assertion is reported as refuted (VC001) or unknown (VC002); either way
     the code namespace distinguishes it from lint/front-end failures. *)
  let broken = Driver.verify_program Profiles.verus Bench_programs.break_pop in
  (match Driver.first_failure broken with
  | Some (fnname, _, code) ->
    Alcotest.(check bool) "unproved VC code" true (code = "VC001" || code = "VC002");
    Alcotest.(check string) "failure in pop_front" "pop_front" fnname
  | None -> Alcotest.fail "break_pop should fail")

let () =
  Alcotest.run "vlint"
    [
      ( "termination",
        [
          Alcotest.test_case "VL001 recursion without measure" `Quick test_vl001;
          Alcotest.test_case "VL002/VL003 loops and measures" `Quick test_vl002_vl003;
        ] );
      ( "matching-loops",
        [
          Alcotest.test_case "VL010 recursive definitional axiom" `Quick test_vl010_classic;
          Alcotest.test_case "VL010 liberal heap axioms loop, curated do not" `Quick
            test_vl010_heap_axioms;
          Alcotest.test_case "VL010 liberal set degrades to Unknown under budget" `Quick
            test_vl010_degrades_to_unknown;
          Alcotest.test_case "VL011 triggerless axiom" `Quick test_vl011;
        ] );
      ( "modes",
        [
          Alcotest.test_case "VL020 stmt call to spec" `Quick test_vl020;
          Alcotest.test_case "VL021 proof calls exec" `Quick test_vl021;
          Alcotest.test_case "VL022 spec-position exec call" `Quick test_vl022;
          Alcotest.test_case "VL023 spec &mut param" `Quick test_vl023;
          Alcotest.test_case "VL024 opaque relied on by ensures" `Quick test_vl024;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "VL030 vacuous invariant" `Quick test_vl030;
          Alcotest.test_case "VL031 ensures ignore result" `Quick test_vl031;
          Alcotest.test_case "VL032 unused requires" `Quick test_vl032;
          Alcotest.test_case "VL033 unreachable statements" `Quick test_vl033;
        ] );
      ( "clean-programs",
        [
          Alcotest.test_case "bundled programs clean (Verus)" `Quick test_bundled_clean;
          Alcotest.test_case "no matching loops under any profile" `Quick
            test_profiles_loop_free;
        ] );
      ( "driver",
        [
          Alcotest.test_case "strict mode fails fast" `Quick test_driver_lint_strict;
          Alcotest.test_case "first_failure carries codes" `Quick test_first_failure_codes;
        ] );
    ]
