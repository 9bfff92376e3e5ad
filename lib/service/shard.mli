(** Sharded fuzzing on the Domain pool ([lslpc fuzz --jobs N]).

    One pool job per fuzz case, each running {!Lslp_fuzz.Fuzz.run_case}.
    Case [k] is a pure function of [(seed, k)], so sharding cannot change
    any outcome, and [Lslp_fuzz.Fuzz.summarize] turns the sharded outcomes
    into the same stats as the sequential [Lslp_fuzz.Fuzz.run]. *)

val run :
  ?metrics:Lslp_telemetry.Pool_stats.metrics ->
  ?config:Lslp_core.Config.t ->
  ?cond:bool ->
  ?inject_spec:Lslp_robust.Inject.t ->
  pool:Pool.config ->
  cases:int ->
  seed:int ->
  unit ->
  Lslp_fuzz.Fuzz.outcome array
(** Outcome [k] belongs to case [k].  The pool's own fault points apply
    (an armed worker-raise can retry or degrade a case job); a case the
    pool degraded is a failing outcome whose problem names the pool
    failure.  The cases' pipeline injectors come from [inject_spec] as
    in the sequential run. *)

type mismatch = {
  case : int;
  sharded : Lslp_fuzz.Fuzz.outcome;
  sequential : Lslp_fuzz.Fuzz.outcome;
}

val check_against_sequential :
  ?config:Lslp_core.Config.t ->
  ?cond:bool ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  Lslp_fuzz.Fuzz.outcome array ->
  mismatch list
(** Replay every case in the calling domain with the same arguments and
    compare the outcomes; [[]] is the determinism assertion behind
    [--jobs].  A case the pool degraded is a mismatch too. *)
