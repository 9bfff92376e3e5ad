(* The batch compile service: Pool underneath, Cache in front, the
   pipeline in the middle.

   One job = frontend (parse + lower + unroll) + Pipeline.run, compiled
   {e in place} so the legality snapshot taken before the pass keeps
   matching the transformed function by instruction identity — that is
   what makes the cache's hit-time re-verification meaningful.

   Fault surface per attempt, in order: the pool rolls worker-raise and
   worker-hang before calling us; we roll cache-poison once, {e before}
   looking anything up, so the injector's dice stream per attempt is
   independent of cache state (and hence of scheduling); pipeline-boundary
   points fire inside Pipeline.run where the PR-2 transactions contain
   them.  Only fully clean runs are cached: no armed injector for the
   job, zero degraded regions, zero error diagnostics. *)

module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Inject = Lslp_robust.Inject
module Legality = Lslp_check.Legality
module Diagnostic = Lslp_check.Diagnostic
module Stats = Lslp_telemetry.Pool_stats

type job = { label : string; source : string; unroll : int }

type success = {
  label : string;
  ir : string;
  remarks : string list;
  counters : (string * int) list;
  vectorized : int;
  degraded : int;
  from_cache : bool;
}

type t = {
  compile : Config.t;
  fingerprint : string;
  pool : Pool.config;
  cache : Cache.t option;
  inject_for : int -> Inject.t option;
  metrics : Stats.metrics;
  pass_metrics : Lslp_telemetry.Pass_metrics.t;
}

let create ?(cache = true) ?flight_cap
    ?(inject_for = fun _ -> None) ~pool compile =
  (* one registry per service: pool + cache counters and histograms, the
     pipeline counters and step histograms, all exported together *)
  let metrics = Stats.metrics ?flight_cap () in
  let pass_metrics =
    Lslp_telemetry.Pass_metrics.create ~root:"batch" metrics.Stats.registry
  in
  {
    compile;
    fingerprint = Config.fingerprint compile;
    pool;
    cache = (if cache then Some (Cache.create ~metrics ()) else None);
    inject_for;
    metrics;
    pass_metrics;
  }

let stats t = Stats.view t.metrics
let metrics t = t.metrics
let registry t = t.metrics.Stats.registry
let flight t = t.metrics.Stats.flight
let pass_metrics t = t.pass_metrics
let cache_entries t = match t.cache with Some c -> Cache.length c | None -> 0

let counters_of_report (report : Pipeline.report) =
  let c = Lslp_telemetry.Report.total_counters report.telemetry in
  List.map
    (fun (name, get) -> (name, get c))
    Lslp_telemetry.Probe.counter_fields

let success_of_cached (job : job) (payload : Cache.cached) =
  {
    label = job.label;
    ir = payload.Cache.ir;
    remarks = payload.Cache.remarks;
    counters = payload.Cache.counters;
    vectorized = payload.Cache.vectorized;
    degraded = 0;  (* only clean runs are cached *)
    from_cache = true;
  }

let compile_job t (job : job) ~inject ~deadline =
  (* roll the poison dice unconditionally so the attempt's fault schedule
     does not depend on whether the cache happens to be warm *)
  let poison =
    match inject with
    | Some i -> Inject.fires i Inject.Cache_poison
    | None -> false
  in
  let skey =
    Cache.source_key ~source:job.source ~unroll:job.unroll
      ~fingerprint:t.fingerprint
  in
  let front_hit =
    match t.cache with
    | Some c -> Cache.find_by_source c ~label:job.label ~source_key:skey ~poison
    | None -> None
  in
  match front_hit with
  | Some payload -> success_of_cached job payload
  | None -> (
    let func = Lslp_frontend.Lower.compile_string job.source in
    ignore (Lslp_frontend.Unroll.run ~factor:job.unroll func);
    (* the canonical input text is the content key: only the cache reads
       it, so a cache-off service never renders the input *)
    let keyed =
      match t.cache with
      | Some c -> Some (c, Lslp_ir.Printer.canonical func)
      | None -> None
    in
    let content_hit =
      match keyed with
      | Some (c, input_norm) ->
        Cache.find_by_ir c ~label:job.label ~source_key:skey ~input_norm
          ~fingerprint:t.fingerprint ~poison
      | None -> None
    in
    match content_hit with
    | Some payload -> success_of_cached job payload
    | None ->
      (* snapshot before the pass mutates [func]: the cache will replay
         legality against exactly these instruction identities *)
      let snap =
        match keyed with
        | Some _ -> Some (Legality.snapshot func)
        | None -> None
      in
      let config =
        let c = t.compile in
        let c =
          match inject with Some i -> Config.with_inject i c | None -> c
        in
        match deadline with
        | Some d -> Config.with_deadline d c
        | None -> c
      in
      let report = Pipeline.run ~metrics:t.pass_metrics ~config func in
      let ir = Lslp_ir.Printer.canonical func in
      let remarks =
        List.map
          (Fmt.str "%a" Lslp_check.Remark.pp)
          report.Pipeline.remarks
      in
      let counters = counters_of_report report in
      (match (keyed, snap) with
       | Some (c, input_norm), Some snap
         when inject = None
              && report.Pipeline.degraded_regions = 0
              && Diagnostic.errors report.Pipeline.diagnostics = [] ->
         Cache.insert c ~label:job.label ~source_key:skey ~input_norm
           ~fingerprint:t.fingerprint ~snap ~func
           {
             Cache.ir;
             remarks;
             counters;
             vectorized = report.Pipeline.vectorized_regions;
           }
       | _ -> ());
      {
        label = job.label;
        ir;
        remarks;
        counters;
        vectorized = report.Pipeline.vectorized_regions;
        degraded = report.Pipeline.degraded_regions;
        from_cache = false;
      })

let batch ?(index_base = 0) t jobs =
  let pool_cfg =
    {
      t.pool with
      Pool.inject_for = (fun i -> t.inject_for (index_base + i));
      job_seed = t.pool.Pool.job_seed + index_base;
    }
  in
  let pjobs =
    Array.map
      (fun (job : job) ->
        ( job.label,
          fun ~inject ~deadline -> compile_job t job ~inject ~deadline ))
      jobs
  in
  Pool.run ~metrics:t.metrics pool_cfg pjobs

(* Degradations in the smoke-gate sense: jobs that ended in a typed
   failure plus cache entries evicted by failed verification — every
   event where the service survived a fault by giving something up. *)
let degradations t outcomes =
  let failed =
    Array.fold_left
      (fun acc -> function
        | Pool.Done _ -> acc
        | Pool.Degraded_to_failure _ -> acc + 1)
      0 outcomes
  in
  failed + Lslp_obs.Registry.value t.metrics.Stats.c_evicted
