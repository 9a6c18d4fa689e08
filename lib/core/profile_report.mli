(** Rendering of driver profiles ({!Driver.program_profile}) as human
    tables and machine-readable JSON.

    One renderer is shared by all three surfaces — the
    [verus_cli profile] subcommand, the benchmark harness's per-section
    summaries / [BENCH_profile.json], and the schema tests in
    [test/test_profile.ml] — so the emitted schema and the validated
    schema cannot drift apart.  The JSON
    schema is versioned through the ["schema"] key
    (currently {!schema_version}). *)

val schema_version : string
(** The value of the ["schema"] key in every emitted document
    (["verus-profile/2"]; [/2] added the ["cache"] key). *)

val render_text : ?top:int -> prog_name:string -> Driver.program_result -> string
(** The profile as text tables: verdict line, phase-time breakdown, the
    top-[top] (default 10) quantifier hot-spots, per-axiom context-bytes
    attribution, per-function totals, and — when the result carries lint
    findings — the VL010 cross-check line stating whether the measured #1
    hot-spot coincides with the axiom the matching-loop lint flagged.
    Returns [""]-adjacent explanatory text when the result carries no
    profile (run [verify_program ~profile:true]). *)

val to_json : prog_name:string -> Driver.program_result -> Vbase.Json.t
(** The same information as a versioned JSON document.  Top-level keys:
    ["schema"], ["program"], ["profile"], ["ok"], ["time_s"],
    ["query_bytes"], ["vcs_profiled"], ["phase"] (object with [sat], [euf],
    [lia], [comb], [ematch]), ["inst_rounds"], ["euf_conflicts"],
    ["lia_conflicts"], ["theory_lemmas"], ["quantifiers"] (array),
    ["axioms"] (array), ["functions"] (array), ["lint"] (object with
    [vl010_heads] and [top_hotspot_matches_vl010]) and ["cache"] (the
    {!Vcache.stats} counters of the run, or [null] when no cache was
    configured). *)

val validate : Vbase.Json.t -> (unit, string) result
(** Structural validation of a document produced by {!to_json}: the schema
    version matches, every required top-level key is present, the phase
    object carries all five numeric phases, and each quantifier/axiom row
    has its required fields.  [test/test_profile.ml] runs it over the
    same {!to_json} and printer path the CLI's [profile --json] uses. *)

val required_keys : string list
(** The top-level keys {!validate} insists on (exported so tests and docs
    can enumerate them). *)

val vl010_cross_check : Driver.program_result -> (string list * bool) option
(** [(vl010 heads, top hot-spot matches)] — [None] when the result has no
    profile or no quantifier ever fired.  The boolean is [true] when the
    measured #1 quantifier hot-spot shares a trigger head with a VL010
    finding in [pr_lint] (the static prediction and the dynamic
    measurement agree on the culprit). *)
