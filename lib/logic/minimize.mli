(** Front door to two-level minimization.

    The synthesis procedures of the paper consume SOP covers; this
    module is the one minimization policy behind all of them: exact
    Quine–McCluskey for functions of at most 8 variables,
    Minato–Morreale ISOP otherwise.

    All entry points charge the ambient {!Nxc_guard.Budget}.  The
    legacy [Cover.t]-returning functions are {e total}: on budget
    exhaustion they silently degrade to ISOP and still return a
    function-equivalent cover.  The [_result] variants additionally
    honor a [Fail]-policy budget by reporting [`Budget_exhausted]. *)

type outcome = {
  cover : Cover.t;
  degraded : bool;
      (** exact minimization ran out of budget and ISOP produced the
          (still function-equivalent) cover *)
}

val sop : Boolfunc.t -> Cover.t
(** A (near-)minimal SOP cover of the function: functions with at most
    8 variables go through the exact minimizer, the rest through ISOP.
    The result always satisfies [Cover ≡ f] (checked internally in
    debug builds via assertions), budget exhaustion included. *)

val sop_table : Truth_table.t -> Cover.t

val sop_result :
  ?cover_backend:Qm.cover_backend ->
  Boolfunc.t ->
  (outcome, Nxc_guard.Error.t) result
(** Like {!sop} but reports degradation explicitly, and under a
    [Fail]-policy budget returns [`Budget_exhausted] instead of falling
    back.  [cover_backend] selects {!Qm}'s exact covering engine for
    this call (default: the process-wide one set by
    {!Qm.set_cover_backend}) — the explicit parameter is what lets batch
    jobs pin their backend independently of worker-domain state and of
    that default. *)

val dual_sop : Boolfunc.t -> Cover.t
(** SOP of the dual f{^D}: the second ingredient of the FET-array and
    lattice size formulas. *)

val verify : Cover.t -> Boolfunc.t -> bool
(** Exhaustive equivalence between a cover and a function. *)
