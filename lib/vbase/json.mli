(** A minimal self-contained JSON tree: printer and recursive-descent
    parser.

    The observability layer ({!Smt.Profile} aggregated by the driver, the
    [verus_cli profile --json] subcommand, the benchmark harness's
    [BENCH_profile.json]) emits machine-readable traces through this module,
    and the test suite parses them back — round-tripping through one
    implementation keeps the emitted schema and the validated schema from
    drifting apart.  No external JSON dependency is used anywhere in the
    repository.

    The subset implemented is exactly what the traces need: objects, arrays,
    strings (with [\uXXXX] escapes for control and non-ASCII bytes), [int]
    and [float] numbers, booleans and [null].  Numbers that parse exactly as
    OCaml [int]s are returned as {!Int}; everything else numeric becomes
    {!Float}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion-ordered; duplicate keys kept *)

val to_string : ?indent:bool -> t -> string
(** Serialize.  [indent:true] (default) pretty-prints with two-space
    indentation — traces are meant to be diffed and read by humans too. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    The error string includes a character offset. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] on missing
    keys or non-objects. *)

val path : string list -> t -> t option
(** [path ["a"; "b"] j] descends nested objects: [member "b" (member "a" j)]. *)

val to_float : t -> float option
(** Numeric coercion: [Int] and [Float] both yield a [float]. *)
