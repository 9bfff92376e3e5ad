(** Differential fuzzing of the whole pipeline.

    Property: for any generated program, any configuration, with or without
    injected faults, {!Lslp_core.Pipeline.run} never raises, leaves valid
    IR, and preserves behaviour against the scalar oracle.

    Case [k] is a pure function of [(seed, k)]: program, configuration
    draw, validate flag and injector come from one PRNG seeded by that
    pair.  {!run} folds {!run_case} over cases [0 … n-1]; the sharded run
    ([Lslp_service.Shard]) runs the same function on the Domain pool, and
    {!summarize} turns either path's outcomes into the same {!stats}. *)

type outcome = {
  case : int;
  desc : string;  (** the generated program, printable *)
  config_name : string;
      (** the configuration the case ran under, [+validate] when the
          legality validator was on *)
  injected : string option;  (** the armed injector, printed *)
  vectorized : int;  (** regions vectorized (0 on failure) *)
  degraded : int;  (** regions degraded (0 on failure) *)
  problem : string option;  (** [None]: every property held *)
}

type stats = {
  cases : int;
  failures : outcome list;  (** in case order *)
  vectorized : int;
  degraded : int;
  injected_runs : int;  (** cases that ran with an armed injector *)
}

val run_case :
  ?config:Lslp_core.Config.t ->
  ?cond:bool ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  case:int ->
  unit ->
  outcome
(** Case [case] of the run rooted at [seed].  Without [config] the case
    draws one of seven configurations (and a random [validate] flag).
    [inject_spec] — typically parsed from [--inject] — is re-seeded per
    case; without it, a quarter of the cases arm a random low-rate
    injector anyway.  [~cond:true] (the [lslpc fuzz --config cond] arm)
    draws only branching masked-IR programs — guarded stores, selects,
    masked loads — instead of the classic shape mix. *)

val summarize : outcome array -> stats
(** Outcome [k] belongs to case [k].  Failures keep case order. *)

val run :
  ?cases:int ->
  ?seed:int ->
  ?cond:bool ->
  ?config:Lslp_core.Config.t ->
  ?inject_spec:Lslp_robust.Inject.t ->
  unit ->
  stats
(** {!summarize} of {!run_case} over cases [0 … cases-1], in the calling
    domain.  [cases] defaults to 500, [seed] to 42. *)

val ok : stats -> bool

val pp_outcome : outcome Fmt.t
(** The case number, its problem (or its region counts), program,
    configuration and injector, one per line. *)

val pp_summary : stats Fmt.t
(** Case count, failure count and every failure's {!pp_outcome}: a pure
    function of the run's arguments, and with no failures
    (["fuzz: N case(s): 0 failure(s)"]) stable across OCaml versions too —
    safe for cram tests. *)

val pp_detail : stats Fmt.t
(** The region and injector counters, which depend on the PRNG's
    algorithm; the CLI prints this to stderr. *)

val json : stats -> Lslp_util.Json.t
(** The run's machine form: cases, failures (with program text,
    configuration and armed injector), aggregate counters and the [ok]
    verdict. *)

val to_json : stats -> string
(** {!json} rendered minified ([lslpc fuzz --json]). *)
