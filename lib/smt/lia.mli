(** Linear integer arithmetic, via the Dutertre–de Moura general simplex
    over exact rationals plus branch-and-bound for integrality.

    Used non-incrementally by the ground solver's final check.  Opaque
    integer terms (constants, uninterpreted applications, nonlinear
    products) become solver variables; linear structure is normalized to
    integer-coefficient constraints, with strict inequalities rewritten to
    non-strict ones (all variables are integers, so [a < b] is
    [a <= b - 1]).

    Conflicts carry the set of reason tags (asserting atom indices) of the
    bounds in the infeasible row — a Farkas-style core. *)

type t
(** A simplex instance: variable map, tableau, current bounds and recorded
    equations. *)

type verdict =
  | Sat  (** feasible; query values with {!model_value} *)
  | Conflict of int list  (** reason tags of an infeasible subset *)
  | Unknown  (** branch-and-bound budget exhausted *)

val create : unit -> t
(** A fresh instance with no variables and no constraints. *)

val reset_bounds : t -> unit
(** Drop all bounds/equations but keep the variable map and tableau; used
    to reuse one solver instance across many final checks. *)

val var_of_term : t -> Term.t -> int
(** The solver variable for an opaque integer term (registering it if
    new). *)

val assert_le : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** [assert_le t coeffs c ~reason] asserts [sum coeffs <= c]. *)

val assert_lt : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** Strict variant of {!assert_le}: [sum coeffs < c]. *)

val assert_ge : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** [assert_ge t coeffs c ~reason] asserts [sum coeffs >= c]. *)

val assert_gt : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** Strict variant of {!assert_ge}: [sum coeffs > c]. *)

val assert_eq : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** Asserts [sum coeffs = c] (both bounds at once). *)

(** Prepared (pre-canonicalized) constraints, for callers that re-assert
    the same atoms across many checks. *)
type prepared

val prepare :
  t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> strict:bool -> is_upper:bool -> prepared
(** [prepare t coeffs c ~strict ~is_upper]: the bound for
    [sum coeffs <= c] (upper) or [>= c] (lower). *)

val assert_prepared : t -> prepared -> reason:int -> unit
(** Asserts a previously {!prepare}d bound under the given reason tag. *)

val record_equation : t -> (Vbase.Rat.t * int) list -> Vbase.Rat.t -> reason:int -> unit
(** Register an equality for the elimination-based integrality fallback
    (callers using [prepare] for the two bounds of an equality should also
    record it here). *)

val check : ?max_branch:int -> t -> verdict
(** Decides the current constraint set.  [max_branch] bounds the
    branch-and-bound tree explored for integrality; past it the verdict is
    {!Unknown}. *)

val model_value : t -> int -> Vbase.Rat.t
(** Value of a variable in the model found by the last [Sat] check. *)

val term_of_var : t -> int -> Term.t option
(** Inverse of {!var_of_term} (slack variables have no term). *)

val find_var : t -> Term.t -> int option
(** Like {!var_of_term} but without registering new variables. *)

(** {2 Farkas certificates}

    With certification on, every conflict that admits one is captured as a
    non-negative combination of the asserted bounds: each row re-expresses
    one bound over term variables in [<=]-form, and the rows weighted by
    their multipliers sum to [0 <= c] with [c < 0].  Conflicts built from
    branch-and-bound unions or gcd elimination have no such witness and
    leave {!last_cert} as [None] (the emitter records a trusted step). *)

type centry = {
  ce_reason : int;  (** the asserting atom's reason tag *)
  ce_lambda : Vbase.Rat.t;  (** multiplier, strictly positive *)
  ce_coeffs : (int * Vbase.Bigint.t) list;  (** over term variables, sorted *)
  ce_bound : Vbase.Rat.t;  (** [ce_coeffs . x <= ce_bound] *)
}

val set_certify : t -> bool -> unit
(** Enable/disable conflict certificate capture (default off; capture adds
    a little allocation on the conflict path only). *)

val last_cert : t -> centry list option
(** Certificate of the most recent conflict, if it admits one.  Reset by
    {!reset_bounds}. *)

val atom_view :
  (Vbase.Rat.t * int) list ->
  Vbase.Rat.t ->
  strict:bool ->
  is_upper:bool ->
  (int * Vbase.Bigint.t) list * Vbase.Rat.t
(** The [<=]-form view ([coeffs . x <= bound], canonical integer
    coefficients, integer-tightened bound) of the constraint
    [sum coeffs <= c] (upper) or [>= c] (lower); pure — does not register
    slack variables.  Used to certify trichotomy lemmas. *)
