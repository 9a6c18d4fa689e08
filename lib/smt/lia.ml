module Rat = Vbase.Rat
module Bigint = Vbase.Bigint

type bound = { value : Rat.t; reason : int }

type verdict = Sat | Conflict of int list | Unknown

(* One row of a Farkas infeasibility certificate: the constraint asserted
   under [ce_reason], expanded over term variables and normalized to
   <=-form ([ce_coeffs . x <= ce_bound]), with its non-negative multiplier.
   A valid certificate's rows sum to the contradiction [0 <= c], [c < 0]. *)
type centry = {
  ce_reason : int;
  ce_lambda : Rat.t;
  ce_coeffs : (int * Bigint.t) list;
  ce_bound : Rat.t;
}

type t = {
  mutable nvars : int;
  mutable lower : bound option array;
  mutable upper : bound option array;
  mutable beta : Rat.t array;
  mutable is_basic : bool array;
  rows : (int, (int, Rat.t) Hashtbl.t) Hashtbl.t; (* basic var -> row over nonbasics *)
  cols : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* nonbasic var -> rows that mention it *)
  var_by_term : (int, int) Hashtbl.t; (* term tid -> var *)
  terms : Term.t option Vbase.Vecbuf.t; (* var -> originating term *)
  slack_by_key : ((int * Bigint.t) list, int) Hashtbl.t; (* canonical lin form -> slack var *)
  slack_form : (int, (int * Bigint.t) list) Hashtbl.t; (* inverse of slack_by_key *)
  mutable conflict : int list option; (* detected during assertion *)
  mutable equations : ((int * Bigint.t) list * Bigint.t * int) list;
      (* integer equalities (canonical coeffs, rhs, reason) for the
         elimination-based integrality check *)
  mutable certify : bool; (* capture Farkas certificates at conflicts *)
  mutable last_cert : centry list option;
      (* certificate of the last conflict; [None] when a conflict has no
         Farkas witness (branch-and-bound unions, gcd elimination) *)
}

let create () =
  {
    nvars = 0;
    lower = Array.make 32 None;
    upper = Array.make 32 None;
    beta = Array.make 32 Rat.zero;
    is_basic = Array.make 32 false;
    rows = Hashtbl.create 32;
    cols = Hashtbl.create 32;
    var_by_term = Hashtbl.create 32;
    terms = Vbase.Vecbuf.create ~dummy:None;
    slack_by_key = Hashtbl.create 32;
    slack_form = Hashtbl.create 32;
    conflict = None;
    equations = [];
    certify = false;
    last_cert = None;
  }

let set_certify t on = t.certify <- on
let last_cert t = t.last_cert

(* The defining linear form of a variable over term variables: slack
   variables expand to their canonical key, term variables to themselves.
   Bounds re-expressed through this expansion are exact consequences of
   the original assertions, which is what makes the captured certificates
   checkable without the tableau. *)
let expand_form t v =
  match Hashtbl.find_opt t.slack_form v with
  | Some f -> f
  | None -> [ (v, Bigint.one) ]

let centry_of_bound t ~reason ~lambda ~v ~is_upper ~bound =
  let f = expand_form t v in
  if is_upper then { ce_reason = reason; ce_lambda = lambda; ce_coeffs = f; ce_bound = bound }
  else
    {
      ce_reason = reason;
      ce_lambda = lambda;
      ce_coeffs = List.map (fun (x, c) -> (x, Bigint.neg c)) f;
      ce_bound = Rat.neg bound;
    }

(* Record a certificate for the conflict being reported; degrade to [None]
   (an uncertified conflict) if any row involves an internal reason such as
   a branch-and-bound marker. *)
let set_cert t entries =
  if t.certify then
    t.last_cert <-
      (if List.for_all (fun e -> e.ce_reason >= 0) entries then Some entries else None)

let clear_cert t = if t.certify then t.last_cert <- None

let ensure_capacity t n =
  let cap = Array.length t.beta in
  if n > cap then begin
    let newcap = max (2 * cap) n in
    let grow a fill =
      let b = Array.make newcap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lower <- grow t.lower None;
    t.upper <- grow t.upper None;
    t.beta <- grow t.beta Rat.zero;
    t.is_basic <- grow t.is_basic false
  end

let new_var t term =
  let v = t.nvars in
  t.nvars <- v + 1;
  ensure_capacity t t.nvars;
  t.lower.(v) <- None;
  t.upper.(v) <- None;
  t.beta.(v) <- Rat.zero;
  t.is_basic.(v) <- false;
  Vbase.Vecbuf.push t.terms term;
  v

let var_of_term t tm =
  match Hashtbl.find_opt t.var_by_term (Term.hash tm) with
  | Some v -> v
  | None ->
    let v = new_var t (Some tm) in
    Hashtbl.add t.var_by_term (Term.hash tm) v;
    v

let term_of_var t v = Vbase.Vecbuf.get t.terms v

let find_var t tm = Hashtbl.find_opt t.var_by_term (Term.hash tm)

(* Reset for a fresh round of bound assertions: keeps variables, the
   tableau and the slack-form cache (the expensive parts), drops bounds,
   recorded equations and any assertion-time conflict. *)
let reset_bounds t =
  Array.fill t.lower 0 t.nvars None;
  Array.fill t.upper 0 t.nvars None;
  t.conflict <- None;
  t.equations <- [];
  t.last_cert <- None

(* --- tableau ---------------------------------------------------------- *)

let col_of t v =
  match Hashtbl.find_opt t.cols v with
  | Some c -> c
  | None ->
    let c = Hashtbl.create 8 in
    Hashtbl.add t.cols v c;
    c

(* Install [row] (over nonbasic vars) as the definition of basic var [b]. *)
let install_row t b row =
  Hashtbl.replace t.rows b row;
  t.is_basic.(b) <- true;
  Hashtbl.iter (fun v _ -> Hashtbl.replace (col_of t v) b ()) row

(* beta of a linear form over current beta. *)
let eval_row t row =
  Hashtbl.fold (fun v c acc -> Rat.add acc (Rat.mul c t.beta.(v))) row Rat.zero

(* Pivot basic variable [bi] with nonbasic [nj]. *)
let pivot t bi nj =
  let row = Hashtbl.find t.rows bi in
  let a_ij = Hashtbl.find row nj in
  (* xj = (xi - sum_{k<>j} a_ik xk) / a_ij *)
  let new_row = Hashtbl.create (Hashtbl.length row) in
  Hashtbl.iter
    (fun v c -> if v <> nj then Hashtbl.replace new_row v (Rat.neg (Rat.div c a_ij)))
    row;
  Hashtbl.replace new_row bi (Rat.div Rat.one a_ij);
  (* Remove the old row. *)
  Hashtbl.remove t.rows bi;
  t.is_basic.(bi) <- false;
  Hashtbl.iter (fun v _ -> match Hashtbl.find_opt t.cols v with
      | Some c -> Hashtbl.remove c bi
      | None -> ()) row;
  (* Substitute xj := new_row into every other row that mentions xj. *)
  let mentioning = match Hashtbl.find_opt t.cols nj with Some c -> Hashtbl.fold (fun b () acc -> b :: acc) c [] | None -> [] in
  List.iter
    (fun bk ->
      match Hashtbl.find_opt t.rows bk with
      | None -> ()
      | Some rk ->
        (match Hashtbl.find_opt rk nj with
        | None -> ()
        | Some a_kj ->
          Hashtbl.remove rk nj;
          (match Hashtbl.find_opt t.cols nj with Some c -> Hashtbl.remove c bk | None -> ());
          Hashtbl.iter
            (fun v c ->
              let cur = match Hashtbl.find_opt rk v with Some x -> x | None -> Rat.zero in
              let nc = Rat.add cur (Rat.mul a_kj c) in
              if Rat.is_zero nc then begin
                Hashtbl.remove rk v;
                match Hashtbl.find_opt t.cols v with Some col -> Hashtbl.remove col bk | None -> ()
              end
              else begin
                Hashtbl.replace rk v nc;
                Hashtbl.replace (col_of t v) bk ()
              end)
            new_row))
    mentioning;
  install_row t nj new_row

(* Set beta of nonbasic var [x] to [v], updating dependent basic vars. *)
let update_nonbasic t x v =
  let delta = Rat.sub v t.beta.(x) in
  if not (Rat.is_zero delta) then begin
    t.beta.(x) <- v;
    match Hashtbl.find_opt t.cols x with
    | None -> ()
    | Some col ->
      Hashtbl.iter
        (fun b () ->
          match Hashtbl.find_opt t.rows b with
          | Some row -> (
            match Hashtbl.find_opt row x with
            | Some c -> t.beta.(b) <- Rat.add t.beta.(b) (Rat.mul c delta)
            | None -> ())
          | None -> ())
        col
  end

(* pivotAndUpdate from Dutertre-de Moura. *)
let pivot_and_update t bi nj v =
  let row = Hashtbl.find t.rows bi in
  let a_ij = Hashtbl.find row nj in
  let theta = Rat.div (Rat.sub v t.beta.(bi)) a_ij in
  t.beta.(bi) <- v;
  t.beta.(nj) <- Rat.add t.beta.(nj) theta;
  (match Hashtbl.find_opt t.cols nj with
  | None -> ()
  | Some col ->
    Hashtbl.iter
      (fun bk () ->
        if bk <> bi then
          match Hashtbl.find_opt t.rows bk with
          | Some rk -> (
            match Hashtbl.find_opt rk nj with
            | Some a_kj -> t.beta.(bk) <- Rat.add t.beta.(bk) (Rat.mul a_kj theta)
            | None -> ())
          | None -> ())
      col);
  pivot t bi nj

(* --- bounds ----------------------------------------------------------- *)

let assert_lower t x value reason =
  if t.conflict = None then begin
    match t.upper.(x) with
    | Some ub when Rat.compare value ub.value > 0 ->
      set_cert t
        [
          centry_of_bound t ~reason ~lambda:Rat.one ~v:x ~is_upper:false ~bound:value;
          centry_of_bound t ~reason:ub.reason ~lambda:Rat.one ~v:x ~is_upper:true
            ~bound:ub.value;
        ];
      t.conflict <- Some [ reason; ub.reason ]
    | _ -> (
      match t.lower.(x) with
      | Some lb when Rat.compare lb.value value >= 0 -> ()
      | _ ->
        t.lower.(x) <- Some { value; reason };
        if (not t.is_basic.(x)) && Rat.compare t.beta.(x) value < 0 then update_nonbasic t x value)
  end

let assert_upper t x value reason =
  if t.conflict = None then begin
    match t.lower.(x) with
    | Some lb when Rat.compare value lb.value < 0 ->
      set_cert t
        [
          centry_of_bound t ~reason ~lambda:Rat.one ~v:x ~is_upper:true ~bound:value;
          centry_of_bound t ~reason:lb.reason ~lambda:Rat.one ~v:x ~is_upper:false
            ~bound:lb.value;
        ];
      t.conflict <- Some [ reason; lb.reason ]
    | _ -> (
      match t.upper.(x) with
      | Some ub when Rat.compare ub.value value <= 0 -> ()
      | _ ->
        t.upper.(x) <- Some { value; reason };
        if (not t.is_basic.(x)) && Rat.compare t.beta.(x) value > 0 then update_nonbasic t x value)
  end

(* --- linear forms ------------------------------------------------------ *)

(* Combine duplicate vars, drop zeros; returns sorted (var, coeff) list. *)
let normalize_coeffs coeffs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) ->
      let cur = match Hashtbl.find_opt tbl v with Some x -> x | None -> Rat.zero in
      Hashtbl.replace tbl v (Rat.add cur c))
    coeffs;
  Hashtbl.fold (fun v c acc -> if Rat.is_zero c then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Scale to integer coefficients with gcd 1 and positive leading coeff.
   Returns (scaled list, scale factor as Rat, flipped). *)
let canonicalize coeffs =
  match coeffs with
  | [] -> ([], Rat.one, false)
  | (_, c0) :: _ ->
    let all_integral = List.for_all (fun (_, c) -> Rat.is_integer c) coeffs in
    let lcm_den =
      if all_integral then Bigint.one
      else
        List.fold_left
          (fun acc (_, c) ->
            let d = (c : Rat.t).Rat.den in
            Bigint.mul acc (fst (Bigint.div_rem d (Bigint.gcd acc d))))
          Bigint.one coeffs
    in
    let ints =
      if all_integral then List.map (fun (v, c) -> (v, (c : Rat.t).Rat.num)) coeffs
      else
        List.map (fun (v, c) -> (v, Rat.floor (Rat.mul c (Rat.of_bigint lcm_den)))) coeffs
    in
    let g = List.fold_left (fun acc (_, c) -> Bigint.gcd acc c) Bigint.zero ints in
    let g = if Bigint.is_zero g then Bigint.one else g in
    let ints = List.map (fun (v, c) -> (v, fst (Bigint.div_rem c g))) ints in
    let flipped = Rat.sign c0 < 0 in
    let ints = if flipped then List.map (fun (v, c) -> (v, Bigint.neg c)) ints else ints in
    let scale = Rat.div (Rat.of_bigint lcm_den) (Rat.of_bigint g) in
    let scale = if flipped then Rat.neg scale else scale in
    (ints, scale, flipped)

(* Get or create the variable representing the canonical integer form. *)
let form_var t ints =
  match ints with
  | [ (v, c) ] when Bigint.equal c Bigint.one -> v
  | _ ->
    let key = ints in
    (match Hashtbl.find_opt t.slack_by_key key with
    | Some s -> s
    | None ->
      let s = new_var t None in
      Hashtbl.add t.slack_by_key key s;
      Hashtbl.add t.slack_form s key;
      let row = Hashtbl.create 8 in
      List.iter
        (fun (v, c) ->
          (* If v is itself basic, substitute its row. *)
          let c = Rat.of_bigint c in
          if t.is_basic.(v) then
            Hashtbl.iter
              (fun u cu ->
                let cur = match Hashtbl.find_opt row u with Some x -> x | None -> Rat.zero in
                let nc = Rat.add cur (Rat.mul c cu) in
                if Rat.is_zero nc then Hashtbl.remove row u else Hashtbl.replace row u nc)
              (Hashtbl.find t.rows v)
          else begin
            let cur = match Hashtbl.find_opt row v with Some x -> x | None -> Rat.zero in
            let nc = Rat.add cur c in
            if Rat.is_zero nc then Hashtbl.remove row v else Hashtbl.replace row v nc
          end)
        ints;
      install_row t s row;
      t.beta.(s) <- eval_row t row;
      s)

(* A constraint reduced to a single bound on a (possibly slack) variable;
   computing this involves normalization, gcd scaling and slack-variable
   lookup, so callers that re-assert the same atoms every round cache it.
   Constant constraints carry their <=-form bound ([0 <= b]) so a violation
   still yields a one-row Farkas certificate. *)
type prepared =
  | P_const of Rat.t (* the constant constraint [0 <= b]; violated iff b < 0 *)
  | P_up of int * Rat.t
  | P_lo of int * Rat.t

(* The <=-form bound of a constant constraint [0 <= c] (upper) or
   [0 >= c] (lower), tightened for integrality under strictness. *)
let tighten_const ~strict ~is_upper c =
  let b = if is_upper then c else Rat.neg c in
  if strict && Rat.is_integer c then Rat.sub b Rat.one else b

let prepare t coeffs c ~strict ~is_upper : prepared =
  let coeffs = normalize_coeffs coeffs in
  match coeffs with
  | [] -> P_const (tighten_const ~strict ~is_upper c)
  | _ ->
    let ints, scale, flipped = canonicalize coeffs in
    let s = form_var t ints in
    let bound_val = Rat.mul c scale in
    let is_upper = if flipped then not is_upper else is_upper in
    if is_upper then begin
      let b =
        if strict && Rat.is_integer bound_val then Rat.sub bound_val Rat.one
        else Rat.of_bigint (Rat.floor bound_val)
      in
      P_up (s, b)
    end
    else begin
      let b =
        if strict && Rat.is_integer bound_val then Rat.add bound_val Rat.one
        else Rat.of_bigint (Rat.ceil bound_val)
      in
      P_lo (s, b)
    end

(* The <=-form view of a constraint, for certificate emission: the
   canonical integer coefficient vector over term variables and the
   integer-tightened bound, exactly as {!prepare} would bound it, but
   without touching the tableau.  [(coeffs, b)] means [coeffs . x <= b]. *)
let atom_view coeffs c ~strict ~is_upper =
  let coeffs = normalize_coeffs coeffs in
  match coeffs with
  | [] -> ([], tighten_const ~strict ~is_upper c)
  | _ ->
    let ints, scale, flipped = canonicalize coeffs in
    let bound_val = Rat.mul c scale in
    let is_upper = if flipped then not is_upper else is_upper in
    if is_upper then
      let b =
        if strict && Rat.is_integer bound_val then Rat.sub bound_val Rat.one
        else Rat.of_bigint (Rat.floor bound_val)
      in
      (ints, b)
    else
      let b =
        if strict && Rat.is_integer bound_val then Rat.add bound_val Rat.one
        else Rat.of_bigint (Rat.ceil bound_val)
      in
      (List.map (fun (v, x) -> (v, Bigint.neg x)) ints, Rat.neg b)

let assert_prepared t (p : prepared) ~reason =
  if t.conflict = None then begin
    match p with
    | P_const b ->
      if Rat.sign b < 0 then begin
        set_cert t [ { ce_reason = reason; ce_lambda = Rat.one; ce_coeffs = []; ce_bound = b } ];
        t.conflict <- Some [ reason ]
      end
    | P_up (s, b) -> assert_upper t s b reason
    | P_lo (s, b) -> assert_lower t s b reason
  end

(* Assert (sum coeffs) <= c  (strict converts to <= c-1 after scaling). *)
let assert_general t coeffs c ~strict ~is_upper ~reason =
  if t.conflict = None then begin
    let coeffs = normalize_coeffs coeffs in
    match coeffs with
    | [] ->
      (* Constant constraint. *)
      let b = tighten_const ~strict ~is_upper c in
      if Rat.sign b < 0 then begin
        set_cert t [ { ce_reason = reason; ce_lambda = Rat.one; ce_coeffs = []; ce_bound = b } ];
        t.conflict <- Some [ reason ]
      end
    | _ ->
      let ints, scale, flipped = canonicalize coeffs in
      let s = form_var t ints in
      (* Original: form/scale <= c  i.e. form <= c*scale (if scale > 0). *)
      let bound_val = Rat.mul c scale in
      let is_upper = if flipped then not is_upper else is_upper in
      if is_upper then begin
        (* form <= bound_val; integrality: form <= floor(bound_val), strict
           subtracts one when the bound is integral. *)
        let b =
          if strict && Rat.is_integer bound_val then Rat.sub bound_val Rat.one
          else Rat.of_bigint (Rat.floor bound_val)
        in
        assert_upper t s b reason
      end
      else begin
        let b =
          if strict && Rat.is_integer bound_val then Rat.add bound_val Rat.one
          else Rat.of_bigint (Rat.ceil bound_val)
        in
        assert_lower t s b reason
      end
  end

let assert_le t coeffs c ~reason = assert_general t coeffs c ~strict:false ~is_upper:true ~reason
let assert_lt t coeffs c ~reason = assert_general t coeffs c ~strict:true ~is_upper:true ~reason
let assert_ge t coeffs c ~reason = assert_general t coeffs c ~strict:false ~is_upper:false ~reason
let assert_gt t coeffs c ~reason = assert_general t coeffs c ~strict:true ~is_upper:false ~reason

let record_equation t coeffs c ~reason =
  (* For the elimination-based integrality check (catches parity/gcd
     conflicts that branch-and-bound cannot terminate on). *)
  match normalize_coeffs coeffs with
  | [] -> ()
  | nc ->
    let ints, scale, _flipped = canonicalize nc in
    let rhs = Rat.mul c scale in
    if Rat.is_integer rhs then
      t.equations <- (ints, (rhs : Rat.t).Rat.num, reason) :: t.equations

let assert_eq t coeffs c ~reason =
  assert_le t coeffs c ~reason;
  assert_ge t coeffs c ~reason;
  if t.conflict = None then record_equation t coeffs c ~reason

(* Omega-style integer equality elimination: repeatedly solve equations
   with a unit coefficient and substitute; detect gcd conflicts.  Sound
   (returns conflicts only when a genuine integer infeasibility exists);
   incomplete without the full Omega mod-trick, which is fine because it
   backs up branch-and-bound rather than replacing it. *)
let eliminate_equations t =
  let norm coeffs =
    (* Combine duplicates, drop zeros, sort by var. *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, c) ->
        let cur = match Hashtbl.find_opt tbl v with Some x -> x | None -> Bigint.zero in
        Hashtbl.replace tbl v (Bigint.add cur c))
      coeffs;
    Hashtbl.fold (fun v c acc -> if Bigint.is_zero c then acc else (v, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let conflict = ref None in
  let eqs = ref (List.map (fun (cs, b, r) -> (norm cs, b, [ r ])) t.equations) in
  let progress = ref true in
  while !conflict = None && !progress do
    progress := false;
    (* gcd / triviality pass *)
    eqs :=
      List.filter_map
        (fun (cs, b, rs) ->
          match cs with
          | [] ->
            if not (Bigint.is_zero b) && !conflict = None then conflict := Some rs;
            None
          | _ ->
            let g = List.fold_left (fun acc (_, c) -> Bigint.gcd acc c) Bigint.zero cs in
            let q, r = Bigint.div_rem b g in
            if not (Bigint.is_zero r) then begin
              if !conflict = None then conflict := Some rs;
              None
            end
            else Some (List.map (fun (v, c) -> (v, fst (Bigint.div_rem c g))) cs, q, rs))
        !eqs;
    if !conflict = None then begin
      (* Find an equation with a +-1 coefficient and substitute it away. *)
      let rec split acc = function
        | [] -> None
        | ((cs, _, _) as eq) :: rest ->
          if List.exists (fun (_, c) -> Bigint.equal (Bigint.abs c) Bigint.one) cs then
            Some (eq, List.rev_append acc rest)
          else split (eq :: acc) rest
      in
      match split [] !eqs with
      | None -> ()
      | Some ((cs, b, rs), rest) ->
        progress := true;
        let x, cx = List.find (fun (_, c) -> Bigint.equal (Bigint.abs c) Bigint.one) cs in
        (* cx * x = b - sum(others)  =>  x = s * (b - others), s = cx. *)
        let others = List.filter (fun (v, _) -> v <> x) cs in
        let sub_into (cs2, b2, rs2) =
          match List.assoc_opt x cs2 with
          | None -> (cs2, b2, rs2)
          | Some c2 ->
            (* Replace c2*x by c2 * s * (b - others). *)
            let s = cx in
            let k = Bigint.mul c2 s in
            let cs2' = List.filter (fun (v, _) -> v <> x) cs2 in
            let cs2' = cs2' @ List.map (fun (v, c) -> (v, Bigint.neg (Bigint.mul k c))) others in
            (norm cs2', Bigint.sub b2 (Bigint.mul k b), List.sort_uniq compare (rs @ rs2))
        in
        eqs := List.map sub_into rest
    end
  done;
  !conflict

(* --- simplex core ------------------------------------------------------ *)

exception Found of int

let find_violating t =
  (* Smallest-index violating basic var (Bland's rule). *)
  try
    for v = 0 to t.nvars - 1 do
      if t.is_basic.(v) then begin
        (match t.lower.(v) with
        | Some lb when Rat.compare t.beta.(v) lb.value < 0 -> raise (Found v)
        | _ -> ());
        match t.upper.(v) with
        | Some ub when Rat.compare t.beta.(v) ub.value > 0 -> raise (Found v)
        | _ -> ()
      end
    done;
    None
  with Found v -> Some v

let simplex_check t =
  let rec loop () =
    match find_violating t with
    | None -> Sat
    | Some bi ->
      let row = Hashtbl.find t.rows bi in
      let below =
        match t.lower.(bi) with
        | Some lb when Rat.compare t.beta.(bi) lb.value < 0 -> true
        | _ -> false
      in
      let target, own_reason =
        if below then
          let lb = Option.get t.lower.(bi) in
          (lb.value, lb.reason)
        else
          let ub = Option.get t.upper.(bi) in
          (ub.value, ub.reason)
      in
      (* Need to increase bi if below, decrease if above. *)
      let entries = Hashtbl.fold (fun v c acc -> (v, c) :: acc) row [] in
      let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
      let candidate =
        List.find_opt
          (fun (xj, a) ->
            let can_increase =
              match t.upper.(xj) with
              | Some ub -> Rat.compare t.beta.(xj) ub.value < 0
              | None -> true
            in
            let can_decrease =
              match t.lower.(xj) with
              | Some lb -> Rat.compare t.beta.(xj) lb.value > 0
              | None -> true
            in
            if below then (Rat.sign a > 0 && can_increase) || (Rat.sign a < 0 && can_decrease)
            else (Rat.sign a > 0 && can_decrease) || (Rat.sign a < 0 && can_increase))
          entries
      in
      (match candidate with
      | Some (xj, _) ->
        pivot_and_update t bi xj target;
        loop ()
      | None ->
        (* Infeasible: core from the bounds blocking each row var. *)
        let core =
          List.filter_map
            (fun (xj, a) ->
              let want_upper = if below then Rat.sign a > 0 else Rat.sign a < 0 in
              if want_upper then Option.map (fun (b : bound) -> b.reason) t.upper.(xj)
              else Option.map (fun (b : bound) -> b.reason) t.lower.(xj))
            entries
        in
        (if t.certify then begin
           (* Farkas witness: the violated bound of [bi] with multiplier 1
              plus each blocking bound with multiplier |a|; the row
              identity makes the combination cancel to [0 <= c], [c < 0]. *)
           let own =
             centry_of_bound t ~reason:own_reason ~lambda:Rat.one ~v:bi ~is_upper:(not below)
               ~bound:target
           in
           let rest =
             List.filter_map
               (fun (xj, a) ->
                 let want_upper = if below then Rat.sign a > 0 else Rat.sign a < 0 in
                 let blocking = if want_upper then t.upper.(xj) else t.lower.(xj) in
                 Option.map
                   (fun (b : bound) ->
                     centry_of_bound t ~reason:b.reason ~lambda:(Rat.abs a) ~v:xj
                       ~is_upper:want_upper ~bound:b.value)
                   blocking)
               entries
           in
           if List.length rest = List.length entries then set_cert t (own :: rest)
           else clear_cert t
         end);
        Conflict (List.sort_uniq compare (own_reason :: core)))
  in
  loop ()

(* --- integrality (branch and bound) ------------------------------------ *)

let save_bounds t = (Array.sub t.lower 0 t.nvars, Array.sub t.upper 0 t.nvars)

let restore_bounds t (lo, up) =
  Array.blit lo 0 t.lower 0 (Array.length lo);
  Array.blit up 0 t.upper 0 (Array.length up)

let find_fractional t =
  try
    for v = 0 to t.nvars - 1 do
      if not (Rat.is_integer t.beta.(v)) then raise (Found v)
    done;
    None
  with Found v -> Some v

let rec bb_check t budget =
  if !budget <= 0 then Unknown
  else begin
    decr budget;
    match simplex_check t with
    | Conflict c -> Conflict c
    | Unknown -> Unknown
    | Sat -> (
      match find_fractional t with
      | None -> Sat
      | Some v -> (
        let fl = Rat.of_bigint (Rat.floor t.beta.(v)) in
        let saved = save_bounds t in
        let saved_conflict = t.conflict in
        (* Branch x <= floor. *)
        assert_upper t v fl (-1);
        let left = match t.conflict with
          | Some c -> t.conflict <- saved_conflict; Conflict c
          | None -> bb_check t budget
        in
        restore_bounds t saved;
        t.conflict <- saved_conflict;
        match left with
        | Sat -> Sat
        | Unknown -> Unknown
        | Conflict c1 -> (
          (* Branch x >= floor + 1. *)
          assert_lower t v (Rat.add fl Rat.one) (-1);
          let right = match t.conflict with
            | Some c -> t.conflict <- saved_conflict; Conflict c
            | None -> bb_check t budget
          in
          restore_bounds t saved;
          t.conflict <- saved_conflict;
          match right with
          | Sat -> Sat
          | Unknown -> Unknown
          | Conflict c2 ->
            (* Both branches dead: union of cores, minus branch markers.
               No Farkas witness exists for the union — the replay kernel
               records it as a trusted branch step. *)
            clear_cert t;
            Conflict (List.sort_uniq compare (List.filter (fun r -> r >= 0) (c1 @ c2))))))
  end

let check ?(max_branch = 2000) t =
  match t.conflict with
  | Some c -> Conflict c
  | None -> (
    (* Re-establish basic betas (bounds asserted since the last check may
       have moved nonbasic vars). *)
    Hashtbl.iter (fun b row -> t.beta.(b) <- eval_row t row) t.rows;
    match bb_check t (ref max_branch) with
    | Unknown -> (
      (* Branch-and-bound cannot terminate on gcd/parity infeasibilities;
         the elimination pass decides those.  Running it only here keeps
         the common Sat/Conflict path cheap. *)
      match eliminate_equations t with
      | Some core ->
        clear_cert t;
        Conflict (List.sort_uniq compare core)
      | None -> Unknown)
    | v -> v)

let model_value t v = t.beta.(v)
