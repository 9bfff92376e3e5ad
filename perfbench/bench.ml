(* The repository benchmark: one closed-loop client of the batch compile
   service ([Lslp_service.Service.batch], what `lslpc batch` runs).

     bench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0: set up (service, seeded workload, oracle validation of every
   kernel body, cache fill or warm-up) three times and keep the median
   time; then submit the workload's batches to a 2-domain service for S
   seconds, each batch only after the previous one returned.  After the
   loop, untimed, every job's IR is checked against a sequential replay of
   the same jobs, and the end-to-end metrics are printed.

   --trace 1: replay a fixed slice of the workload (the first project's
   batches) layer by layer from this benchmark's files, alternating traced
   and untraced rounds for S seconds, then run the same slice through a
   1-domain service; prints the per-layer metrics and writes the spans to
   perfbench/out/spans-NAME.jsonl.

   The last stdout line is one JSON object: correct, attempted, failed,
   metrics.  Exit code 1 when any job fails its check. *)

module Service = Lslp_service.Service
module Pool = Lslp_service.Pool
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Oracle = Lslp_interp.Oracle
module Stats = Lslp_telemetry.Pool_stats
module Probe = Lslp_telemetry.Probe
module Workload = Perfbench.Workload
module Replay = Perfbench.Replay
module Tracer = Replay.Tracer

let config = Config.lslp
let domains = 2
let setups = 3
let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let service ~domains =
  Service.create ~pool:{ Pool.default_config with domains; queue_cap = 64 }
    config

(* ---- statistics ---------------------------------------------------- *)

(* nearest rank *)
let percentile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median a = percentile a 0.5
let per n x = if n = 0 then 0. else x /. float n

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  let v = scan () in
  close_in ic;
  v

(* Jiffies the hypervisor gave to other guests, and all jiffies, from the
   host-wide line of /proc/stat: on a shared virtual machine this is the
   first suspect when wall-clock figures move. *)
let host_jiffies () =
  let ic = open_in "/proc/stat" in
  let line = input_line ic in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _cpu :: fields ->
    let v = List.map int_of_string fields in
    (List.nth v 7, List.fold_left ( + ) 0 v)
  | [] -> (0, 0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- set-up ---------------------------------------------------------- *)

(* Every distinct kernel body must parse and its LSLP compile must agree
   with the scalar source on the oracle before the body is used; the
   cycle counts give [sim_speedup_geomean]. *)
type oracle = { scalar : int array; vector : int array; mismatched : int }

let validate (w : Workload.t) =
  let n = Array.length w.origins in
  let scalar = Array.make n 0 and vector = Array.make n 0 in
  let mismatched = ref 0 in
  Array.iteri
    (fun o src ->
      let compile () =
        let f = Lslp_frontend.Lower.compile_string src in
        ignore (Lslp_frontend.Unroll.run ~factor:Workload.unroll f);
        f
      in
      let reference = compile () in
      let candidate = compile () in
      ignore (Pipeline.run ~config candidate);
      let r = Oracle.compare_runs ~reference ~candidate () in
      if r.Oracle.mismatches <> [] then begin
        incr mismatched;
        Printf.eprintf "perfbench: %s origin %d: %d oracle mismatches\n"
          w.name o (List.length r.Oracle.mismatches)
      end;
      scalar.(o) <- r.Oracle.reference_cycles;
      vector.(o) <- r.Oracle.candidate_cycles)
    w.origins;
  { scalar; vector; mismatched = !mismatched }

let jobs_of batch = Array.map fst batch

let all_done outcomes =
  Array.for_all
    (function
      | Pool.Done (s : Service.success) -> s.degraded = 0
      | Pool.Degraded_to_failure _ -> false)
    outcomes

(* A batch index no run reaches: the warm-up batch's names never recur. *)
let warmup_batch = 999_999

let setup name ~seed =
  let t0 = now () in
  let w = Workload.make name ~seed in
  let oracle = validate w in
  let svc = service ~domains in
  let warm =
    if w.fill <> [||] then Service.batch svc (jobs_of w.fill)
    else Service.batch (service ~domains) (jobs_of (w.batch warmup_batch))
  in
  if not (all_done warm) then die "set-up batch failed";
  (now () -. t0, w, oracle, svc)

let geomean_speedup o =
  let n = Array.length o.scalar in
  let logs = ref 0. in
  for i = 0 to n - 1 do
    logs := !logs +. log (float o.scalar.(i) /. float (max 1 o.vector.(i)))
  done;
  exp (!logs /. float n)

(* ---- output ---------------------------------------------------------- *)

let num v = Printf.sprintf "%.12g" v

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "  %-32s %14s %-6s %s\n" name (num v) unit note)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit, _) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed body;
  exit (if correct && failed = 0 then 0 else 1)

let property name v = Printf.printf "  property %-23s %s\n" name v

(* ---- trace 0: the closed loop ---------------------------------------- *)

type result = { digest : Digest.t; vectorized : int; ok : bool }

let result_of = function
  | Pool.Done (s : Service.success) ->
    { digest = Digest.string s.ir; vectorized = s.vectorized;
      ok = s.degraded = 0 }
  | Pool.Degraded_to_failure _ ->
    { digest = ""; vectorized = 0; ok = false }

(* The loop's batches fall into windows of [Workload.project_batches]
   consecutive batches — one project, one service's whole life, on the
   cold workloads.  Throughput and tail latency are taken per window and
   reported as the median window, so a burst of host noise moves a few
   windows, not the result. *)
let windows ~ends ~lat ~sizes =
  let k = Workload.project_batches in
  let n = Array.length ends / k in
  let rate i =
    let t_start = if i = 0 then 0. else ends.((i * k) - 1) in
    let jobs = Array.fold_left ( + ) 0 (Array.sub sizes (i * k) k) in
    float jobs /. (ends.(((i + 1) * k) - 1) -. t_start)
  in
  let p95 i = percentile (Array.sub lat (i * k) k) 0.95 in
  (Array.init n rate, Array.init n p95)

(* A fresh replay instance holding what set-up put in the service's cache. *)
let filled_instance (w : Workload.t) =
  let s = Replay.instance config in
  Array.iter (fun (j, _) -> ignore (Replay.job s (Replay.counts ()) j)) w.fill;
  s

(* Replay batches [first, last) in one fresh instance (after the cache
   fill) and compare every job's IR with the service's. *)
let check_project (w : Workload.t) results ~first ~last =
  let counts = Replay.counts () in
  let inst = filled_instance w in
  let failed = ref 0 in
  for b = first to last - 1 do
    Array.iteri
      (fun k (j, _) ->
        let ir = Replay.job inst counts j in
        let r = results.(b).(k) in
        if not (r.ok && Digest.string ir = r.digest) then begin
          incr failed;
          Printf.eprintf "perfbench: job %s (batch %d) failed its check\n%!"
            j.Service.label b
        end)
      (w.batch b)
  done;
  (counts, !failed)

(* Projects are independent, so the check splits them over [domains]
   domains; a workload with one service for the run is one project. *)
let check (w : Workload.t) results =
  let n = Array.length results in
  let size = min n w.project in
  let projects =
    List.init ((n + size - 1) / size) (fun p ->
        (p * size, min n ((p + 1) * size)))
  in
  let shard d =
    List.filteri (fun i _ -> i mod domains = d) projects
    |> List.map (fun (first, last) -> check_project w results ~first ~last)
  in
  let others =
    List.init (domains - 1) (fun d -> Domain.spawn (fun () -> shard (d + 1)))
  in
  let mine = shard 0 in
  let all = mine @ List.concat_map Domain.join others in
  let sum f = List.fold_left (fun acc (c, _) -> acc + f c) 0 all in
  ( sum (fun (c : Replay.counts) -> c.front_hits),
    sum (fun c -> c.content_hits),
    sum (fun c -> c.misses),
    sum (fun c -> c.ir_instrs),
    List.fold_left (fun acc (_, f) -> acc + f) 0 all )

let end_to_end name ~seed ~seconds =
  let runs = List.init setups (fun _ -> setup name ~seed) in
  let setup_s =
    median (Array.of_list (List.map (fun (s, _, _, _) -> s) runs))
  in
  let _, w, oracle, svc0 = List.nth runs (setups - 1) in
  (* the loop *)
  let svc = ref svc0 in
  let lat = ref [] and ends = ref [] and sizes = ref [] and results = ref [] in
  let batches = ref 0 and jobs = ref 0 in
  let rss = ref 0. in
  let cpu0 = cpu_s () in
  let steal0, total0 = host_jiffies () in
  let t0 = now () in
  while now () -. t0 < seconds || !batches < Workload.project_batches do
    let b = !batches in
    if b > 0 && b mod w.project = 0 then svc := service ~domains;
    let batch = jobs_of (w.batch b) in
    let tb = now () in
    let out = Service.batch ~index_base:!jobs !svc batch in
    let te = now () in
    lat := (te -. tb) *. 1e3 :: !lat;
    ends := te -. t0 :: !ends;
    sizes := Array.length batch :: !sizes;
    results := Array.map result_of out :: !results;
    incr batches;
    if !batches = Workload.project_batches then rss := peak_rss_mb ();
    jobs := !jobs + Array.length batch
  done;
  let wall = now () -. t0 in
  let rss_end = peak_rss_mb () in
  let cpu = cpu_s () -. cpu0 in
  let steal1, total1 = host_jiffies () in
  let arr l = Array.of_list (List.rev l) in
  let lat = arr !lat in
  let rates, p95s = windows ~ends:(arr !ends) ~lat ~sizes:(arr !sizes) in
  let results = arr !results in
  let vectorized =
    Array.fold_left
      (fun acc res -> Array.fold_left (fun a r -> a + r.vectorized) acc res)
      0 results
  in
  (* the check, untimed *)
  let front_hits, content_hits, misses, ir_instrs, failed = check w results in
  let failed = failed + oracle.mismatched in
  let attempted = !jobs in
  let n = float attempted in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=0: %d batches, %d jobs\n"
    name seed seconds !batches attempted;
  property "front_hit_share" (num (float front_hits /. n));
  property "content_hit_share" (num (float content_hits /. n));
  property "miss_share" (num (float misses /. n));
  property "ir_instrs_per_job" (num (float ir_instrs /. n));
  property "vectorized_per_job" (num (float vectorized /. n));
  property "distinct_kernel_bodies" (string_of_int (Array.length w.origins));
  property "failed_job_ratio" (num (float failed /. n));
  property "mean_jobs_per_s" (num (n /. wall));
  property "peak_rss_mb_at_end" (num rss_end);
  property "batch_ms_p95_all" (num (percentile lat 0.95));
  property "host_steal_share"
    (num (per (total1 - total0) (float (steal1 - steal0))));
  let samples = Printf.sprintf "(n=%d batches)" (Array.length lat) in
  let nwin = Array.length rates in
  emit ~correct:(failed = 0) ~attempted ~failed
    [
      ("setup_s", setup_s, "s", Printf.sprintf "(median of %d)" setups);
      ("jobs_per_s", median rates, "1/s",
       Printf.sprintf "(median of %d windows, n=%d jobs)" nwin attempted);
      ("batch_ms_p50", median lat, "ms", samples);
      ("batch_ms_p95", median p95s, "ms",
       Printf.sprintf "(median of %d windows of %d batches)" nwin
         Workload.project_batches);
      ("cpu_ms_per_job", cpu *. 1e3 /. n, "ms", "(user+sys)");
      ("peak_rss_mb", !rss, "MB",
       Printf.sprintf "(VmHWM after the first %d batches)"
         Workload.project_batches);
      ("sim_speedup_geomean", geomean_speedup oracle, "x",
       Printf.sprintf "(n=%d kernels)" (Array.length w.origins));
      ("ok_job_ratio", 1. -. (float failed /. n), "ratio",
       "(1 - failed_job_ratio)");
    ]

(* ---- trace 1: the layer replay --------------------------------------- *)

let per_layer name ~seed ~seconds =
  (* the rounds come first, before any domain exists, so the first
     traced round starts from the same process state in every run of one
     seed and its word counts repeat exactly *)
  let w = Workload.make name ~seed in
  let slice = Array.init Workload.project_batches w.batch in
  let jobs = Array.concat (Array.to_list (Array.map jobs_of slice)) in
  let njobs = Array.length jobs in
  let tracer = Tracer.create () in
  (* one round = the slice through a fresh instance; returns the wall
     time of the jobs (not of the cache fill) *)
  let round ?tracer ~id () =
    let s = filled_instance w in
    let c = Replay.counts () in
    let t0 = now () in
    let irs =
      Array.mapi
        (fun k j -> Replay.job ?tracer ~job_id:((id * njobs) + k) s c j)
        jobs
    in
    (now () -. t0, s, c, irs)
  in
  (* later rounds keep their timings only, not their instances *)
  let first = ref None in
  let traced = ref [] and untraced = ref [] in
  let t0 = now () in
  let id = ref 0 in
  while !traced = [] || !untraced = [] || now () -. t0 < seconds do
    let from = Tracer.length tracer in
    let wall, s, c, irs = round ~tracer ~id:!id () in
    if !first = None then first := Some (from, Tracer.length tracer, s, c, irs);
    traced := (wall, from, Tracer.length tracer, c.Replay.timers) :: !traced;
    incr id;
    let wall, _, _, _ = round ~id:!id () in
    untraced := wall :: !untraced;
    incr id
  done;
  let oracle = validate w in
  let traced = Array.of_list (List.rev !traced) in
  let untraced = Array.of_list !untraced in
  let from0, until0, s0, c0, irs0 = Option.get !first in
  (* per-round self time per span name, per job *)
  let nnames = Array.length Replay.names in
  let self_us =
    Array.map
      (fun (_, from, until, _) ->
        let self = Tracer.self_times tracer ~from ~until in
        let sums = Array.make nnames 0. in
        Array.iteri
          (fun k t ->
            let i = Tracer.name tracer (from + k) in
            sums.(i) <- sums.(i) +. t)
          self;
        Array.map (fun x -> x *. 1e6 /. float njobs) sums)
      traced
  in
  let layer_us n =
    let i = Replay.name_id n in
    median (Array.map (fun a -> a.(i)) self_us)
  in
  let words = Array.make nnames 0. in
  for k = from0 to until0 - 1 do
    let i = Tracer.name tracer k in
    words.(i) <- words.(i) +. Tracer.words tracer k
  done;
  let layer_kw n = words.(Replay.name_id n) /. 1e3 /. float njobs in
  let pass_us pass =
    median
      (Array.map
         (fun (_, _, _, timers) ->
           let secs = try List.assoc pass timers with Not_found -> 0. in
           secs *. 1e6 /. float njobs)
         traced)
  in
  let walls = Array.map (fun (wall, _, _, _) -> wall) traced in
  (* the same slice through a 1-domain service: dispatch cost and the
     output check *)
  let service_pass () =
    let svc = service ~domains:1 in
    if w.fill <> [||] then ignore (Service.batch svc (jobs_of w.fill));
    let t = ref 0. and base = ref 0 in
    let outs =
      Array.map
        (fun batch ->
          let jobs = jobs_of batch in
          let tb = now () in
          let out = Service.batch ~index_base:!base svc jobs in
          t := !t +. (now () -. tb);
          base := !base + Array.length jobs;
          out)
        slice
    in
    (!t, svc, Array.concat (Array.to_list outs))
  in
  let passes = Array.init 3 (fun _ -> service_pass ()) in
  let _, svc1, outs = passes.(0) in
  let service_wall = median (Array.map (fun (t, _, _) -> t) passes) in
  let failed = ref oracle.mismatched in
  Array.iteri
    (fun k out ->
      let ok =
        match out with
        | Pool.Done (s : Service.success) -> s.degraded = 0 && s.ir = irs0.(k)
        | Pool.Degraded_to_failure _ -> false
      in
      if not ok then begin
        incr failed;
        Printf.eprintf "perfbench: job %s failed its check\n"
          jobs.(k).Service.label
      end)
    outs;
  let empty_batch_ms =
    let noop = Array.make 28 ("noop", fun ~inject:_ ~deadline:_ -> ()) in
    let cfg = { Pool.default_config with domains; queue_cap = 64 } in
    median
      (Array.init 41 (fun _ ->
           let t = now () in
           ignore (Pool.run cfg noop);
           (now () -. t) *. 1e3))
  in
  let stats1 = Service.stats svc1 in
  let ticks_p95 =
    match
      Lslp_obs.Registry.histogram_view (Service.registry svc1)
        "lslp_job_latency_ticks"
    with
    | Some h -> Lslp_obs.Registry.percentile h 0.95
    | None -> 0
  in
  let cache_view = Stats.view s0.Replay.stats in
  let p = c0.Replay.pipe in
  let nj = float njobs in
  let pj x = float x /. nj in
  let norigins = Array.length w.origins in
  let mean_cycles a =
    float (Array.fold_left ( + ) 0 a) /. float norigins
  in
  let spans_path = Printf.sprintf "perfbench/out/spans-%s.jsonl" name in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  Tracer.write tracer spans_path;
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=1: %d jobs x %d traced + %d \
     untraced rounds; spans in %s\n"
    name seed seconds njobs (Array.length traced) (Array.length untraced)
    spans_path;
  let failed = !failed in
  let rounds = Printf.sprintf "(median of %d rounds)" (Array.length traced) in
  let exact = "(first traced round)" in
  emit ~correct:(failed = 0) ~attempted:njobs ~failed
    [
      ("frontend.parse_us", layer_us "frontend.parse", "us", rounds);
      ("frontend.lower_us", layer_us "frontend.lower", "us", rounds);
      ("frontend.parse_kw", layer_kw "frontend.parse", "kw", exact);
      ("frontend.lower_kw", layer_kw "frontend.lower", "kw", exact);
      ("frontend.instrs_out", pj c0.instrs_out, "count", exact);
      ("unroll.us", layer_us "unroll", "us", rounds);
      ("unroll.kw", layer_kw "unroll", "kw", exact);
      ("printer.in_us", layer_us "printer.in", "us", rounds);
      ("printer.out_us", layer_us "printer.out", "us", rounds);
      ("printer.kw", layer_kw "printer.in" +. layer_kw "printer.out", "kw",
       exact);
      ("legality.snapshot_us", layer_us "legality.snapshot", "us", rounds);
      ("legality.snapshot_kw", layer_kw "legality.snapshot", "kw", exact);
      ("cache.lookup_us", layer_us "cache.lookup", "us", rounds);
      ("cache.insert_us", layer_us "cache.insert", "us", rounds);
      ("cache.front_hit_ratio", pj c0.front_hits, "ratio", exact);
      ("cache.content_hit_ratio", pj c0.content_hits, "ratio", exact);
      ("cache.verified", float cache_view.Stats.cache_verified, "count", exact);
      ("cache.evicted", float cache_view.Stats.cache_evicted, "count", exact);
      ("cache.entries", float (Lslp_service.Cache.length s0.Replay.cache),
       "count", exact);
      ("pipeline.us", layer_us "pipeline", "us", rounds);
      ("pipeline.kw", layer_kw "pipeline", "kw", exact);
      ("pipeline.seed-collect_us", pass_us "seed-collect", "us", rounds);
      ("pipeline.graph-build_us", pass_us "graph-build", "us", rounds);
      ("pipeline.cost_us", pass_us "cost", "us", rounds);
      ("pipeline.codegen_us", pass_us "codegen", "us", rounds);
      ("pipeline.reduction_us", pass_us "reduction", "us", rounds);
      ("pipeline.cse_us", pass_us "cse", "us", rounds);
      ("pipeline.dce_us", pass_us "dce", "us", rounds);
      ("pipeline.score_evals", pj p.Probe.score_evals, "count", exact);
      ("pipeline.score_hit_ratio",
       per (p.Probe.score_hits + p.Probe.score_misses)
         (float p.Probe.score_hits), "ratio", exact);
      ("pipeline.graph_nodes", pj p.Probe.graph_nodes, "count", exact);
      ("pipeline.seeds_tried", pj p.Probe.seeds_tried, "count", exact);
      ("pipeline.vectorized_per_seed",
       per p.Probe.seeds_tried (float p.Probe.regions_vectorized), "ratio",
       exact);
      ("pipeline.instrs_emitted", pj p.Probe.instrs_emitted, "count", exact);
      ("obs.observe_us", layer_us "obs.observe", "us", rounds);
      ("obs.observe_kw", layer_kw "obs.observe", "kw", exact);
      ("pool.empty_batch_ms", empty_batch_ms, "ms", "(median of 41)");
      ("pool.dispatch_ms_per_batch",
       (service_wall -. median untraced) *. 1e3
       /. float Workload.project_batches, "ms", "(median of 3 passes)");
      ("pool.latency_ticks_p95", float ticks_p95, "ticks", "(1 domain)");
      ("pool.retries", float stats1.Stats.jobs_retried, "count", "(1 domain)");
      ("interp.scalar_cycles", mean_cycles oracle.scalar, "cycles",
       "(mean per kernel body)");
      ("interp.vector_cycles", mean_cycles oracle.vector, "cycles",
       "(mean per kernel body)");
      ("trace.glue_us", layer_us "job", "us", rounds);
      ("trace.overhead_ratio", median walls /. median untraced, "ratio",
       rounds);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workload.names) then
    die "--workload must be one of: %s" (String.concat ", " Workload.names);
  match !trace with
  | 0 -> end_to_end !workload ~seed:!seed ~seconds:!seconds
  | 1 -> per_layer !workload ~seed:!seed ~seconds:!seconds
  | n -> die "--trace must be 0 or 1 (got %d)" n
