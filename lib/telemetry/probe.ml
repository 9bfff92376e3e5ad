(* Pass-level instrumentation.

   A probe is a mutable bag of counters plus per-pass wall-clock timers that
   the pipeline hands to every stage (seed collection, graph building,
   reordering, costing, codegen, reduction, cleanup).  Counters are plain
   ints bumped on the hot path — cheap enough to stay always-on — and
   timers accumulate [Unix.gettimeofday] spans per pass name.

   Counters are deterministic for a given input and configuration; timers
   are not.  Every renderer in {!Report} keeps the two apart so golden
   tests can pin the counters and mask the clock. *)

type counters = {
  mutable seeds_collected : int;   (* seed bundles found by Seeds.collect *)
  mutable seeds_tried : int;       (* seed bundles the driver attempted *)
  mutable score_evals : int;       (* look-ahead score computations *)
  (* Always 0: look-ahead scoring has no memo table.  Kept only because
     perfbench/bench.ml reads them; they go with its score_hit_ratio. *)
  mutable score_hits : int;
  mutable score_misses : int;
  mutable graph_nodes : int;       (* fresh SLP-graph nodes built *)
  mutable instrs_emitted : int;    (* instructions codegen materialized *)
  mutable regions_vectorized : int;
  mutable regions_degraded : int;  (* regions rolled back to scalar *)
}

let zero_counters () =
  {
    seeds_collected = 0;
    seeds_tried = 0;
    score_evals = 0;
    score_hits = 0;
    score_misses = 0;
    graph_nodes = 0;
    instrs_emitted = 0;
    regions_vectorized = 0;
    regions_degraded = 0;
  }

let copy_counters c =
  {
    seeds_collected = c.seeds_collected;
    seeds_tried = c.seeds_tried;
    score_evals = c.score_evals;
    score_hits = c.score_hits;
    score_misses = c.score_misses;
    graph_nodes = c.graph_nodes;
    instrs_emitted = c.instrs_emitted;
    regions_vectorized = c.regions_vectorized;
    regions_degraded = c.regions_degraded;
  }

let add_counters ~into c =
  into.seeds_collected <- into.seeds_collected + c.seeds_collected;
  into.seeds_tried <- into.seeds_tried + c.seeds_tried;
  into.score_evals <- into.score_evals + c.score_evals;
  into.score_hits <- into.score_hits + c.score_hits;
  into.score_misses <- into.score_misses + c.score_misses;
  into.graph_nodes <- into.graph_nodes + c.graph_nodes;
  into.instrs_emitted <- into.instrs_emitted + c.instrs_emitted;
  into.regions_vectorized <- into.regions_vectorized + c.regions_vectorized;
  into.regions_degraded <- into.regions_degraded + c.regions_degraded

(* The printable/serializable column set, in display order.  One list so
   the human table, the JSON renderer and the CSV emitters cannot drift. *)
let counter_fields =
  [
    ("seeds", fun c -> c.seeds_collected);
    ("tried", fun c -> c.seeds_tried);
    ("evals", fun c -> c.score_evals);
    ("nodes", fun c -> c.graph_nodes);
    ("emitted", fun c -> c.instrs_emitted);
    ("vec", fun c -> c.regions_vectorized);
    ("degraded", fun c -> c.regions_degraded);
  ]

type timer = { mutable elapsed_s : float; mutable calls : int }

type t = {
  c : counters;
  timers : (string, timer) Hashtbl.t;
  order : string list ref;  (* pass names in first-seen order *)
}

let create () = { c = zero_counters (); timers = Hashtbl.create 8; order = ref [] }

let counters t = t.c

let timer_of t pass =
  match Hashtbl.find_opt t.timers pass with
  | Some tm -> tm
  | None ->
    let tm = { elapsed_s = 0.0; calls = 0 } in
    Hashtbl.replace t.timers pass tm;
    t.order := pass :: !(t.order);
    tm

let add_time t pass seconds =
  let tm = timer_of t pass in
  tm.elapsed_s <- tm.elapsed_s +. seconds;
  tm.calls <- tm.calls + 1

(* Accumulate even when [f] raises: a budget abort mid-pass still spent the
   time, and the caller's transaction will re-raise past us. *)
let span t pass f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
    add_time t pass (Unix.gettimeofday () -. t0);
    v
  | exception e ->
    add_time t pass (Unix.gettimeofday () -. t0);
    raise e

type snapshot = {
  s_counters : counters;
  s_timers : (string * float * int) list;  (* pass, seconds, calls *)
}

let snapshot t =
  {
    s_counters = copy_counters t.c;
    s_timers =
      List.rev_map
        (fun pass ->
          let tm = Hashtbl.find t.timers pass in
          (pass, tm.elapsed_s, tm.calls))
        !(t.order);
  }

let empty_snapshot = { s_counters = zero_counters (); s_timers = [] }

let merge snapshots =
  let c = zero_counters () in
  let timers : (string, timer) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun s ->
      add_counters ~into:c s.s_counters;
      List.iter
        (fun (pass, seconds, calls) ->
          let tm =
            match Hashtbl.find_opt timers pass with
            | Some tm -> tm
            | None ->
              let tm = { elapsed_s = 0.0; calls = 0 } in
              Hashtbl.replace timers pass tm;
              order := pass :: !order;
              tm
          in
          tm.elapsed_s <- tm.elapsed_s +. seconds;
          tm.calls <- tm.calls + calls)
        s.s_timers)
    snapshots;
  {
    s_counters = c;
    s_timers =
      List.rev_map
        (fun pass ->
          let tm = Hashtbl.find timers pass in
          (pass, tm.elapsed_s, tm.calls))
        !order;
  }
