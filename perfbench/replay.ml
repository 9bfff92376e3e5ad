(* Layer-by-layer replay of [Lslp_service.Service.compile_job].

   [job] calls the layers' public functions in the order the service
   does — front lookup, parse, lower, unroll, input render, content
   lookup, legality snapshot, pipeline, observation, output render,
   insert — so it returns the same IR string the service does.  With a
   tracer, every call becomes a span (name, start, end, parent, job id,
   allocated words) recorded from this file; the library itself is not
   instrumented.  Without one, no clock or GC counter is read, which is
   what [trace.overhead_ratio] compares against. *)

module Service = Lslp_service.Service
module Cache = Lslp_service.Cache
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Legality = Lslp_check.Legality
module Diagnostic = Lslp_check.Diagnostic
module Probe = Lslp_telemetry.Probe
module Pass_metrics = Lslp_telemetry.Pass_metrics
module Stats = Lslp_telemetry.Pool_stats

(* Span names: the job's root span, then one per layer call. *)
let names =
  [| "job"; "cache.lookup"; "frontend.parse"; "frontend.lower"; "unroll";
     "printer.in"; "legality.snapshot"; "pipeline"; "obs.observe";
     "printer.out"; "cache.insert" |]

let name_id =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace tbl n i) names;
  Hashtbl.find tbl

(* Words allocated by this domain so far: minor words from
   [Gc.minor_words], which counts up to the current allocation pointer
   (the minor count of [Gc.counters] does not on OCaml 5.1), plus words
   allocated directly in the major heap (major minus promoted).
   [Gc.counters] allocates its own result; [Tracer.create] measures that
   cost once and every span subtracts it, so span words count only the
   layer's allocations. *)
let alloc_words () =
  let _minor, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

module Tracer = struct
  type t = {
    mutable len : int;
    mutable name : int array;
    mutable start : float array;
    mutable stop : float array;
    mutable parent : int array;
    mutable job : int array;
    mutable words : float array;
    mutable probe_words : float;
  }

  let create () =
    let t =
      { len = 0; name = [||]; start = [||]; stop = [||]; parent = [||];
        job = [||]; words = [||]; probe_words = 0. }
    in
    let w0 = alloc_words () in
    let w1 = alloc_words () in
    t.probe_words <- w1 -. w0;
    t

  let grow t =
    let cap = max 1024 (2 * Array.length t.name) in
    let ext a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.name <- ext t.name 0;
    t.start <- ext t.start 0.;
    t.stop <- ext t.stop 0.;
    t.parent <- ext t.parent (-1);
    t.job <- ext t.job 0;
    t.words <- ext t.words 0.

  (* Reserve a span slot and return its index; [close] fills the end. *)
  let open_ t ~name ~parent ~job =
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.job.(i) <- job;
    t.words.(i) <- alloc_words ();
    t.start.(i) <- Unix.gettimeofday ();
    i

  let close t i =
    t.stop.(i) <- Unix.gettimeofday ();
    t.words.(i) <- alloc_words () -. t.words.(i) -. t.probe_words

  let length t = t.len

  (* Self times of spans [from, until): each span's duration minus the
     time its children cover.  Children are recorded after their parent
     and never overlap one another, so one backward pass subtracts them. *)
  let self_times t ~from ~until =
    let self = Array.init (until - from) (fun k ->
        t.stop.(from + k) -. t.start.(from + k))
    in
    for i = until - 1 downto from do
      let p = t.parent.(i) in
      if p >= from then
        self.(p - from) <- self.(p - from) -. (t.stop.(i) -. t.start.(i))
    done;
    self

  let write t path =
    let oc = open_out_bin path in
    for i = 0 to t.len - 1 do
      Printf.fprintf oc
        "{\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\
         \"job\":%d,\"words\":%.0f}\n"
        names.(t.name.(i)) (t.start.(i) *. 1e6) (t.stop.(i) *. 1e6)
        t.parent.(i) t.job.(i) t.words.(i)
    done;
    close_out oc

  let name t i = t.name.(i)
  let words t i = t.words.(i)
end

(* Deterministic per-job counts gathered along the replay; all sums. *)
type counts = {
  mutable front_hits : int;
  mutable content_hits : int;
  mutable misses : int;
  mutable instrs_out : int;  (** instructions after lowering *)
  mutable ir_instrs : int;  (** instructions of the output IR *)
  pipe : Probe.counters;
  mutable timers : (string * float) list;  (** pass seconds, summed *)
}

let counts () =
  { front_hits = 0; content_hits = 0; misses = 0; instrs_out = 0;
    ir_instrs = 0; pipe = Probe.zero_counters (); timers = [] }

(* One service's worth of replay state: the cache and the pipeline
   observer, created the way [Service.create] creates them. *)
type instance = {
  cache : Cache.t;
  stats : Stats.metrics;
  pass_metrics : Pass_metrics.t;
  config : Config.t;
  fingerprint : string;
}

let instance config =
  let stats = Stats.metrics () in
  {
    cache = Cache.create ~metrics:stats ();
    stats;
    pass_metrics = Pass_metrics.create ~root:"batch" stats.Stats.registry;
    config;
    fingerprint = Config.fingerprint config;
  }

let count_ir_instrs ir =
  (* one instruction per line holding an assignment or a store *)
  List.length
    (List.filter
       (fun l ->
         let l = String.trim l in
         String.length l > 0
         && (l.[0] = '%' || String.starts_with ~prefix:"store" l))
       (String.split_on_char '\n' ir))

let add_timers c (report : Pipeline.report) =
  let total = report.Pipeline.telemetry.Lslp_telemetry.Report.total in
  c.timers <-
    List.fold_left
      (fun acc (pass, secs, _calls) ->
        let prev = try List.assoc pass acc with Not_found -> 0. in
        (pass, prev +. secs) :: List.remove_assoc pass acc)
      c.timers total.Probe.s_timers

(* [Service.counters_of_report], which the service does not export. *)
let counters_of_report (report : Pipeline.report) =
  let c = Lslp_telemetry.Report.total_counters report.Pipeline.telemetry in
  List.map (fun (name, get) -> (name, get c)) Probe.counter_fields

(* Replay one job and return its IR string, exactly as the service's
   [success.ir] would read. *)
let job ?tracer ?(job_id = 0) s c (j : Service.job) =
  let root =
    match tracer with
    | Some t -> Tracer.open_ t ~name:0 ~parent:(-1) ~job:job_id
    | None -> -1
  in
  let span name f =
    match tracer with
    | None -> f ()
    | Some t ->
      let i = Tracer.open_ t ~name:(name_id name) ~parent:root ~job:job_id in
      let r = f () in
      Tracer.close t i;
      r
  in
  let skey, front =
    span "cache.lookup" (fun () ->
        let skey =
          Cache.source_key ~source:j.source ~unroll:j.unroll
            ~fingerprint:s.fingerprint
        in
        ( skey,
          Cache.find_by_source s.cache ~label:j.label ~source_key:skey
            ~poison:false ))
  in
  let ir =
    match front with
    | Some payload ->
      c.front_hits <- c.front_hits + 1;
      payload.Cache.ir
    | None -> (
      let ast =
        span "frontend.parse" (fun () ->
            Lslp_frontend.Parser.parse_string j.source)
      in
      let func =
        span "frontend.lower" (fun () -> Lslp_frontend.Lower.lower_kernel ast)
      in
      c.instrs_out <- c.instrs_out + Lslp_ir.Func.num_instrs func;
      span "unroll" (fun () ->
          ignore (Lslp_frontend.Unroll.run ~factor:j.unroll func));
      let input_norm =
        span "printer.in" (fun () ->
            Lslp_util.Normalize.ids
              (Fmt.str "%a" Lslp_ir.Printer.pp_func func))
      in
      let content =
        span "cache.lookup" (fun () ->
            Cache.find_by_ir s.cache ~label:j.label ~source_key:skey
              ~input_norm ~fingerprint:s.fingerprint ~poison:false)
      in
      match content with
      | Some payload ->
        c.content_hits <- c.content_hits + 1;
        payload.Cache.ir
      | None ->
        c.misses <- c.misses + 1;
        let snap =
          span "legality.snapshot" (fun () -> Legality.snapshot func)
        in
        let report =
          span "pipeline" (fun () -> Pipeline.run ~config:s.config func)
        in
        span "obs.observe" (fun () ->
            Pass_metrics.observe s.pass_metrics report.Pipeline.telemetry);
        let ir =
          span "printer.out" (fun () ->
              Lslp_util.Normalize.ids
                (Fmt.str "%a" Lslp_ir.Printer.pp_func func))
        in
        let remarks =
          List.map (Fmt.str "%a" Lslp_check.Remark.pp) report.Pipeline.remarks
        in
        let counters = counters_of_report report in
        Probe.add_counters ~into:c.pipe
          (Lslp_telemetry.Report.total_counters report.Pipeline.telemetry);
        add_timers c report;
        if
          report.Pipeline.degraded_regions = 0
          && Diagnostic.errors report.Pipeline.diagnostics = []
        then
          span "cache.insert" (fun () ->
              Cache.insert s.cache ~label:j.label ~source_key:skey ~input_norm
                ~fingerprint:s.fingerprint ~snap ~func
                {
                  Cache.ir;
                  remarks;
                  counters;
                  vectorized = report.Pipeline.vectorized_regions;
                });
        ir)
  in
  (match tracer with Some t -> Tracer.close t root | None -> ());
  c.ir_instrs <- c.ir_instrs + count_ir_instrs ir;
  ir
