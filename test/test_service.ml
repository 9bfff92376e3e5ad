(* The compile service: fault survival, the verified cache, the pool's
   typed outcomes and sharded-fuzz determinism.

   The headline QCheck property is the ISSUE's fault-survival gate in
   miniature: arm ANY single service-boundary fault at ANY job and the
   batch still completes — the faulted job ends as the sequential result
   (alpha-renamed) or as a typed failure, every other job is untouched,
   and nothing hangs or raises out of [Service.batch]. *)

module Service = Lslp_service.Service
module Pool = Lslp_service.Pool
module Cache = Lslp_service.Cache
module Shard = Lslp_service.Shard
module Fuzz = Lslp_fuzz.Fuzz
module Inject = Lslp_robust.Inject
module Budget = Lslp_robust.Budget
module Config = Lslp_core.Config
module Catalog = Lslp_kernels.Catalog
module Stats = Lslp_telemetry.Pool_stats
module Flight = Lslp_obs.Flight
module Registry = Lslp_obs.Registry

let config = Config.lslp
let unroll = 4

let jobs_of kernels =
  Array.of_list
    (List.map
       (fun (k : Catalog.kernel) ->
         { Service.label = k.key; source = k.source; unroll })
       kernels)

(* A small, fixed slice of the catalog keeps each property case cheap. *)
let some_jobs = jobs_of (List.filteri (fun i _ -> i < 8) Catalog.all)
let njobs = Array.length some_jobs

let quiet_pool domains =
  { Pool.default_config with domains; queue_cap = 16; retries = 2 }

(* Sequential, fault-free expectation per job label: what every Done
   outcome must reproduce modulo instruction-id renaming (the service
   already normalizes). *)
let baseline =
  lazy
    (let svc =
       Service.create ~cache:false ~pool:(quiet_pool 1) config
     in
     Array.map
       (function
         | Pool.Done (s : Service.success) -> s.ir
         | Pool.Degraded_to_failure _ ->
           Alcotest.fail "baseline batch degraded without faults")
       (Service.batch svc some_jobs))

(* ---- the fault-survival property ---------------------------------- *)

let fault_survival_prop (point, target, seed) =
  let spec = Inject.make ~points:[ point ] ~rate:1.0 ~seed () in
  let inject_for i = if i = target then Some spec else None in
  let pool =
    { (quiet_pool 4) with deadline_steps = Some 50_000 }
  in
  let svc = Service.create ~cache:true ~inject_for ~pool config in
  let outcomes = Service.batch svc some_jobs in
  let expected = Lazy.force baseline in
  Array.length outcomes = njobs
  && Array.for_all
       (fun i ->
         match outcomes.(i) with
         | Pool.Done (s : Service.success) -> s.ir = expected.(i)
         | Pool.Degraded_to_failure _ -> i = target)
       (Array.init njobs (fun i -> i))

let fault_survival =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:24
       ~name:"any single service fault -> complete batch, typed failures"
       ~print:(fun (p, t, s) ->
         Fmt.str "%s@job%d seed=%d" (Inject.point_name p) t s)
       QCheck2.Gen.(
         triple (oneofl Inject.service_points) (int_bound (njobs - 1))
           (int_bound 1000))
       fault_survival_prop)

(* ---- flight recorder vs counters: exact reconciliation ------------- *)

(* For any single service fault, the flight recording and the counter
   view must tell the same story: every job's recording ends in exactly
   one terminal event (completed | failed | shed), the per-kind event
   counts equal the terminal counters, and the histograms saw exactly
   the jobs their instrumentation point covers — latency one sample per
   completion, attempts one sample per completed-or-failed job.  No
   tolerance anywhere: a single double-count or missed event fails. *)
let metrics_reconcile_prop (point, target, seed) =
  let spec = Inject.make ~points:[ point ] ~rate:1.0 ~seed () in
  let inject_for i = if i = target then Some spec else None in
  let pool = { (quiet_pool 4) with deadline_steps = Some 50_000 } in
  let svc = Service.create ~cache:true ~inject_for ~pool config in
  let outcomes = Service.batch svc some_jobs in
  let s = Service.stats svc in
  let terminal = Hashtbl.create 16 in
  List.iter
    (fun (e : Flight.event) ->
      match e.Flight.kind with
      | ("completed" | "failed" | "shed") as kind ->
        Hashtbl.replace terminal e.Flight.job
          (kind
           :: (Option.value ~default:[]
                 (Hashtbl.find_opt terminal e.Flight.job)))
      | _ -> ())
    (Flight.events (Service.flight svc));
  let count kind =
    Hashtbl.fold
      (fun _ kinds acc ->
        acc + List.length (List.filter (String.equal kind) kinds))
      terminal 0
  in
  let hcount name =
    match Registry.histogram_view (Service.registry svc) name with
    | Some v -> v.Registry.hcount
    | None -> -1
  in
  let one_terminal_each =
    Array.for_all
      (fun (j : Service.job) ->
        match Hashtbl.find_opt terminal j.Service.label with
        | Some [ _ ] -> true
        | Some _ | None -> false)
      some_jobs
  in
  one_terminal_each
  && Array.length outcomes = njobs
  && count "completed" = s.Stats.jobs_completed
  && count "failed" = s.Stats.jobs_failed
  && count "shed" = s.Stats.jobs_shed
  && s.Stats.jobs_completed + s.Stats.jobs_failed + s.Stats.jobs_shed
     = njobs
  && s.Stats.jobs_submitted = njobs
  && hcount "lslp_job_latency_ticks" = s.Stats.jobs_completed
  && hcount "lslp_job_attempts"
     = s.Stats.jobs_completed + s.Stats.jobs_failed

let metrics_reconcile =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:24
       ~name:"any single service fault -> flight events reconcile with stats"
       ~print:(fun (p, t, s) ->
         Fmt.str "%s@job%d seed=%d" (Inject.point_name p) t s)
       QCheck2.Gen.(
         triple (oneofl Inject.service_points) (int_bound (njobs - 1))
           (int_bound 1000))
       metrics_reconcile_prop)

(* ---- pool outcomes ------------------------------------------------- *)

(* worker-raise at rate 1.0: every attempt crashes, the retry cap is
   consumed, the job degrades with the crash recorded, and the pool
   respawned a worker per death without losing any other job. *)
let pool_retries_exhausted () =
  let spec = Inject.make ~points:[ Inject.Worker_raise ] ~rate:1.0 ~seed:7 () in
  let inject_for i = if i = 2 then Some spec else None in
  let svc = Service.create ~cache:false ~inject_for ~pool:(quiet_pool 4) config in
  let outcomes = Service.batch svc some_jobs in
  (match outcomes.(2) with
   | Pool.Degraded_to_failure { attempts; failure = Pool.Crashed _ } ->
     Helpers.check_int "attempts = 1 + retries" 3 attempts
   | Pool.Degraded_to_failure { failure; _ } ->
     Alcotest.failf "wrong failure: %a" Pool.pp_failure failure
   | Pool.Done _ -> Alcotest.fail "job 2 should have degraded");
  let s = Service.stats svc in
  Helpers.check_int "retried" 2 s.Stats.jobs_retried;
  Helpers.check_int "failed" 1 s.Stats.jobs_failed;
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Pool.Done _ -> ()
        | Pool.Degraded_to_failure _ ->
          Alcotest.failf "job %d degraded without a fault" i)
    outcomes

let pool_shed () =
  let spec = Inject.make ~points:[ Inject.Queue_full ] ~rate:1.0 ~seed:1 () in
  let inject_for i = if i = 0 then Some spec else None in
  let svc = Service.create ~cache:false ~inject_for ~pool:(quiet_pool 2) config in
  let outcomes = Service.batch svc some_jobs in
  (match outcomes.(0) with
   | Pool.Degraded_to_failure { attempts = 0; failure = Pool.Shed } -> ()
   | _ -> Alcotest.fail "job 0 should have been shed at admission");
  Helpers.check_int "shed counter" 1 (Service.stats svc).Stats.jobs_shed

let pool_deadline () =
  let pool = { (quiet_pool 2) with deadline_steps = Some 1; retries = 0 } in
  let svc = Service.create ~cache:false ~pool config in
  let outcomes = Service.batch svc some_jobs in
  Array.iter
    (function
      | Pool.Degraded_to_failure { failure = Pool.Timed_out { steps = 1 }; _ }
        -> ()
      | Pool.Degraded_to_failure { failure; _ } ->
        Alcotest.failf "wrong failure: %a" Pool.pp_failure failure
      | Pool.Done _ ->
        Alcotest.fail "a 1-step deadline cannot fit any kernel")
    outcomes;
  Helpers.check_int "timeouts" njobs
    (Service.stats svc).Stats.jobs_timed_out

(* The deadline cancels the whole job and restores the function: after
   [Deadline_expired] propagates out of Pipeline.run, the input is
   byte-identical to what went in. *)
let deadline_restores () =
  let f = Catalog.compile_key "453.vsumsqr" in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
  let before = Fmt.str "%a" Lslp_ir.Printer.pp_func f in
  let config = Config.with_deadline (Budget.deadline 2) config in
  (match Lslp_core.Pipeline.run ~config f with
   | _ -> Alcotest.fail "a 2-step deadline cannot fit this kernel"
   | exception Budget.Deadline_expired { steps } ->
     Helpers.check_int "expired at the configured budget" 2 steps);
  Helpers.check_string "function restored on cancellation" before
    (Fmt.str "%a" Lslp_ir.Printer.pp_func f)

(* ---- the verified cache ------------------------------------------- *)

(* Round 1 misses and inserts; round 2 front-hits, re-verifies every hit
   and serves the identical payload. *)
let cache_hit_verify () =
  let svc = Service.create ~cache:true ~pool:(quiet_pool 1) config in
  let cold = Service.batch svc some_jobs in
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "misses (cold round)" njobs s.Stats.cache_misses;
  Helpers.check_int "inserts (cold round)" njobs s.Stats.cache_inserts;
  Helpers.check_int "hits (warm round)" njobs s.Stats.cache_hits;
  Helpers.check_int "every hit verified" njobs s.Stats.cache_verified;
  Helpers.check_int "no evictions" 0 s.Stats.cache_evicted;
  Array.iteri
    (fun i cold_o ->
      match (cold_o, warm.(i)) with
      | Pool.Done (c : Service.success), Pool.Done (w : Service.success) ->
        Helpers.check_bool "cold round compiled" false c.from_cache;
        Helpers.check_bool "warm round cached" true w.from_cache;
        Helpers.check_string "identical IR" c.ir w.ir;
        Helpers.check_string "identical remarks" (String.concat "\n" c.remarks)
          (String.concat "\n" w.remarks)
      | _ -> Alcotest.fail "clean batches cannot degrade")
    cold

(* Poison one warm job's entry: verification must catch the damage, evict
   and recompile — the job still succeeds with the baseline IR, and the
   eviction is counted. *)
let cache_poison_evicts () =
  let target = njobs + 3 in
  let spec = Inject.make ~points:[ Inject.Cache_poison ] ~rate:1.0 ~seed:5 () in
  let inject_for i = if i = target then Some spec else None in
  let svc = Service.create ~cache:true ~inject_for ~pool:(quiet_pool 1) config in
  let _cold = Service.batch svc some_jobs in
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "one eviction" 1 s.Stats.cache_evicted;
  (match warm.(3) with
   | Pool.Done (w : Service.success) ->
     Helpers.check_bool "poisoned entry not served from cache" false
       w.from_cache;
     Helpers.check_string "recompiled to the baseline IR"
       (Lazy.force baseline).(3) w.ir
   | Pool.Degraded_to_failure _ ->
     Alcotest.fail "a poisoned cache must recompile, not fail");
  (* the poisoned-and-evicted entry stayed out: the targeted job's
     injector was armed, so nothing was re-inserted for it *)
  Helpers.check_int "entry count" (njobs - 1) (Service.cache_entries svc);
  (* the flight recorder alone tells the whole story of the hit *)
  let label = some_jobs.(3).Service.label in
  let kinds =
    List.filter_map
      (fun (e : Flight.event) ->
        match e.Flight.kind with
        | ("cache-hit" | "cache-poison" | "cache-evicted") as k
          when e.Flight.job = label ->
          Some k
        | _ -> None)
      (Flight.events (Service.flight svc))
  in
  Helpers.check_string "hit, poison, evict in order"
    "cache-hit cache-poison cache-evicted" (String.concat " " kinds)

let cache_off () =
  let svc = Service.create ~cache:false ~pool:(quiet_pool 1) config in
  let r1 = Service.batch svc some_jobs in
  let r2 = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "no hits" 0 s.Stats.cache_hits;
  Helpers.check_int "no inserts" 0 s.Stats.cache_inserts;
  Array.iter
    (function
      | Pool.Done (x : Service.success) ->
        Helpers.check_bool "never from cache" false x.from_cache
      | Pool.Degraded_to_failure _ -> Alcotest.fail "clean batch degraded")
    (Array.append r1 r2)

(* ---- sharded fuzzing ---------------------------------------------- *)

let shard_determinism () =
  let pool = { Pool.default_config with domains = 4; queue_cap = 16 } in
  let check_arm ~cond =
    let outcomes = Shard.run ~pool ~cond ~cases:40 ~seed:11 () in
    (match Shard.check_against_sequential ~cond ~seed:11 outcomes with
     | [] -> ()
     | m :: _ ->
       Alcotest.failf "case %d diverged: sharded %a vs sequential %a"
         m.Shard.case Fuzz.pp_outcome m.Shard.sharded Fuzz.pp_outcome
         m.Shard.sequential);
    let sharded = Fuzz.summarize outcomes in
    let sequential = Fuzz.run ~cond ~cases:40 ~seed:11 () in
    Helpers.check_int "all cases ran" 40 sharded.Fuzz.cases;
    Helpers.check_int "vectorized" sequential.Fuzz.vectorized
      sharded.Fuzz.vectorized;
    Helpers.check_int "degraded" sequential.Fuzz.degraded
      sharded.Fuzz.degraded;
    Helpers.check_int "injected runs" sequential.Fuzz.injected_runs
      sharded.Fuzz.injected_runs;
    Helpers.check_bool "same failures" true
      (sharded.Fuzz.failures = sequential.Fuzz.failures);
    match sharded.Fuzz.failures with
    | [] -> ()
    | o :: _ -> Alcotest.failf "fuzz case failed under sharding: %a"
                  Fuzz.pp_outcome o
  in
  check_arm ~cond:false;
  check_arm ~cond:true

let shard_pool_failure () =
  let spec = Inject.make ~points:[ Inject.Worker_raise ] ~rate:1.0 ~seed:7 () in
  let pool =
    { Pool.default_config with
      domains = 2; queue_cap = 8; retries = 0;
      inject_for = (fun i -> if i = 3 then Some spec else None) }
  in
  let outcomes = Shard.run ~pool ~cases:6 ~seed:11 () in
  let stats = Fuzz.summarize outcomes in
  Helpers.check_bool "degraded case fails" true
    (List.map (fun (o : Fuzz.outcome) -> o.case) stats.Fuzz.failures = [ 3 ]);
  Helpers.check_bool "run not ok" false (Fuzz.ok stats);
  Helpers.check_bool "replay flags it" true
    (List.map
       (fun (m : Shard.mismatch) -> m.case)
       (Shard.check_against_sequential ~seed:11 outcomes)
     = [ 3 ])

let suite =
  [
    fault_survival;
    metrics_reconcile;
    Helpers.tc "pool: retries exhausted -> typed crash" pool_retries_exhausted;
    Helpers.tc "pool: queue-full fault -> typed shed" pool_shed;
    Helpers.tc "pool: 1-step deadline times every job out" pool_deadline;
    Helpers.tc "deadline: cancellation restores the function"
      deadline_restores;
    Helpers.tc "cache: warm round hits, verifies, reuses" cache_hit_verify;
    Helpers.tc "cache: poisoned entry evicts and recompiles"
      cache_poison_evicts;
    Helpers.tc "cache: off means off" cache_off;
    Helpers.tc "shard: 4-domain fuzz == sequential, case by case"
      shard_determinism;
    Helpers.tc "shard: a case the pool degraded is a failure"
      shard_pool_failure;
  ]
