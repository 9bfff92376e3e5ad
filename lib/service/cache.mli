(** The compile service's verified result cache.

    Content-addressed: the canonical key is
    [digest (Printer.canonical input IR, Config.fingerprint)], so caching is
    keyed by {e what the pipeline would see}, not by source spelling; a
    front table keyed by [digest (source, unroll, fingerprint)] lets warm
    hits skip the frontend entirely.

    {b Verify before reuse.}  Every hit replays the legality validator
    ([Lslp_check.Legality.validate]) against the dependence-graph snapshot
    taken when the entry was compiled.  The entry's function was compiled
    in place, so instruction identities still match the snapshot and the
    replay is a real check.  A failure — including an injected
    cache poisoning — evicts the entry and returns [None]; the caller
    recompiles.  A poisoned cache therefore costs one recompile, never a
    wrong result.

    Thread-safe: one internal mutex; safe to share across pool domains. *)

type cached = {
  ir : string;  (** output IR as [Printer.canonical] renders it *)
  remarks : string list;
  counters : (string * int) list;
  vectorized : int;
}
(** What a hit returns — the printable result of the original compile.
    Only clean runs are cached (no armed injector, no degraded regions,
    no error diagnostics), so there is no [degraded] field by
    construction. *)

type t

val create : ?metrics:Lslp_telemetry.Pool_stats.metrics -> unit -> t
(** Registry counters ([lslp_cache_*_total]) and flight-recorder events
    (cache-hit/poison/verified/evicted/miss/insert, recorded with tick
    [-1] — the cache does not see the pool's virtual clock) are emitted
    under the cache lock. *)

val source_key : source:string -> unroll:int -> fingerprint:string -> string
(** The front key for a job, computable without parsing. *)

val find_by_source :
  t -> label:string -> source_key:string -> poison:bool -> cached option
(** Warm-path lookup.  [None] means front miss {e or} eviction — either
    way the caller proceeds to parse and {!find_by_ir}.  [poison] applies
    the armed cache-poison fault to the entry before verification. *)

val find_by_ir :
  t ->
  label:string ->
  source_key:string ->
  input_norm:string ->
  fingerprint:string ->
  poison:bool ->
  cached option
(** Canonical lookup by normalized input IR.  A verified hit also aliases
    [source_key] so the next lookup for this source skips parsing.  A miss
    (including digest collisions, which are detected by exact comparison
    and never trusted) bumps [cache_misses]. *)

val insert :
  t ->
  label:string ->
  source_key:string ->
  input_norm:string ->
  fingerprint:string ->
  snap:Lslp_check.Legality.snapshot ->
  func:Lslp_ir.Func.t ->
  cached ->
  unit
(** Store a clean compile: [func] is the transformed function whose
    instruction ids match [snap].  First writer wins on concurrent inserts
    of the same key. *)

val length : t -> int
(** Distinct canonical entries currently cached. *)
