(** Sharded fuzzing on the Domain pool ([lslpc fuzz --jobs N]).

    One pool job per fuzz case, each running
    [Lslp_fuzz.Fuzz.run_case_indexed] — the per-case PRNG derivation that
    makes case [k] a pure function of [(seed, k)], so sharding cannot
    change any outcome. *)

val run :
  ?metrics:Lslp_telemetry.Pool_stats.metrics ->
  ?config:Lslp_core.Config.t ->
  ?inject_spec:Lslp_robust.Inject.t ->
  pool:Pool.config ->
  cases:int ->
  seed:int ->
  unit ->
  Lslp_fuzz.Fuzz.case_outcome Pool.outcome array
(** Outcome [k] belongs to case [k].  The pool's own fault points apply
    (an armed worker-raise can retry or degrade a case job); the fuzz
    cases' pipeline injectors come from [inject_spec] as usual. *)

type mismatch = { case : int; sharded : string; sequential : string }

val check_against_sequential :
  ?config:Lslp_core.Config.t ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  Lslp_fuzz.Fuzz.case_outcome Pool.outcome array ->
  mismatch list
(** Re-run every completed case sequentially in the calling domain and
    compare summaries verbatim; [[]] is the determinism assertion behind
    [--jobs].  Cases the pool degraded (only possible with service faults
    armed) are skipped. *)

type totals = {
  cases : int;
  failures : (int * string) list;
  pool_failures : int;
  vectorized : int;
  degraded : int;
  injected_runs : int;
}

val summarize : Lslp_fuzz.Fuzz.case_outcome Pool.outcome array -> totals
