(* Decision tracing.

   The sink is a reversed event list plus a logical clock: every recorded
   event gets the next sequence number, so a trace is deterministic per
   (input, configuration) and golden tests can pin it.  No event reads
   the wall clock.

   Instrumentation sites throughout the pipeline receive the sink as
   [?trace : t option] and do nothing on [None]; with [Config.trace] off
   no sink is ever allocated, so the off-path costs one immediate-value
   comparison per site and the output is byte-identical to an untraced
   build (a QCheck differential property asserts exactly that). *)

type node_kind =
  | Knode_group of string
  | Knode_multi of string
  | Knode_gather

type payload =
  | Span_begin of { pass : string }
  | Span_end of { pass : string }
  | Seeds_found of { seeds : (string * int) list }
  | Seed_tried of { seed : string; lanes : int }
  | Graph_start of { gid : int; seed : string }
  | Graph_node of {
      gid : int;
      nid : int;
      kind : node_kind;
      bundles : string list list;
    }
  | Graph_edge of { gid : int; parent : int; child : int; slot : int }
  | Dep_edge of { gid : int; src : int; dst : int }
  | Slot_modes of { modes : string list }
  | Get_best of {
      mode : string;
      last : string;
      candidates : string list;
      levels : (int * int list) list;
      chosen : string option;
    }
  | Cost_computed of {
      seed : string;
      nodes : int;
      total : int;
      threshold : int;
      accepted : bool;
    }
  | Emit of { instr : string; lanes : int }
  | Rollback of { pass : string; error : string; budget_exhausted : bool }
  | Region_outcome of {
      seed : string;
      lanes : int;
      outcome : string;
      cost : int option;
    }

type event = {
  ts : int;
  region : string;
  payload : payload;
}

type t = {
  mutable rev_events : event list;
  mutable clock : int;
  mutable region : string;
  gids : Lslp_util.Id_gen.t;
}

let create () =
  {
    rev_events = [];
    clock = 0;
    region = "";
    gids = Lslp_util.Id_gen.create ();
  }

let set_region t region = t.region <- region

let fresh_gid t = Lslp_util.Id_gen.next t.gids

let record t payload =
  let ts = t.clock in
  t.clock <- ts + 1;
  t.rev_events <- { ts; region = t.region; payload } :: t.rev_events

let events t = List.rev t.rev_events

(* ---- naming and human rendering ----------------------------------- *)

let payload_name = function
  | Span_begin _ -> "span-begin"
  | Span_end _ -> "span-end"
  | Seeds_found _ -> "seeds-found"
  | Seed_tried _ -> "seed-tried"
  | Graph_start _ -> "graph-start"
  | Graph_node _ -> "graph-node"
  | Graph_edge _ -> "graph-edge"
  | Dep_edge _ -> "dep-edge"
  | Slot_modes _ -> "slot-modes"
  | Get_best _ -> "get-best"
  | Cost_computed _ -> "cost"
  | Emit _ -> "emit"
  | Rollback _ -> "rollback"
  | Region_outcome _ -> "region-outcome"

let kind_name = function
  | Knode_group op -> Fmt.str "group %s" op
  | Knode_multi op -> Fmt.str "multi %s" op
  | Knode_gather -> "gather"

(* no nested box: [Fmt.brackets] would open one that breaks on its own *)
let pp_bundles ppf bundles =
  Fmt.(list ~sep:semi (any "[" ++ list ~sep:comma string ++ any "]"))
    ppf bundles

let pp_payload ppf = function
  | Span_begin { pass } -> Fmt.pf ppf "begin %s" pass
  | Span_end { pass } -> Fmt.pf ppf "end %s" pass
  | Seeds_found { seeds } ->
    Fmt.pf ppf "seeds: %d%a" (List.length seeds)
      Fmt.(
        list ~sep:nop (fun ppf (desc, _) -> Fmt.pf ppf "@ %s" desc))
      seeds
  | Seed_tried { seed; lanes } -> Fmt.pf ppf "try seed %s (VL=%d)" seed lanes
  | Graph_start { gid; seed } -> Fmt.pf ppf "graph g%d for %s" gid seed
  | Graph_node { gid; nid; kind; bundles } ->
    Fmt.pf ppf "g%d node#%d %s %a" gid nid (kind_name kind) pp_bundles
      bundles
  | Graph_edge { gid; parent; child; slot } ->
    Fmt.pf ppf "g%d edge #%d -> #%d (slot %d)" gid parent child slot
  | Dep_edge { gid; src; dst } ->
    Fmt.pf ppf "g%d dep #%d ~> #%d" gid src dst
  | Slot_modes { modes } ->
    Fmt.pf ppf "slot modes: %a" Fmt.(list ~sep:comma string) modes
  | Get_best { mode; last; candidates; levels; chosen } ->
    Fmt.pf ppf "get_best mode=%s last=%s {%a} -> %s" mode last
      Fmt.(list ~sep:comma string)
      candidates
      (match chosen with Some c -> c | None -> "(none)");
    List.iter
      (fun (level, scores) ->
        Fmt.pf ppf " L%d:%a" level Fmt.(list ~sep:(any "/") int) scores)
      levels
  | Cost_computed { seed; nodes; total; threshold; accepted } ->
    Fmt.pf ppf "cost %s: %+d vs threshold %d over %d node(s) -> %s" seed
      total threshold nodes
      (if accepted then "accept" else "reject")
  | Emit { instr; lanes } -> Fmt.pf ppf "emit x%d %s" lanes instr
  | Rollback { pass; error; budget_exhausted } ->
    Fmt.pf ppf "rollback in %s: %s%s" pass error
      (if budget_exhausted then " [budget]" else "")
  | Region_outcome { seed; lanes; outcome; cost } ->
    Fmt.pf ppf "outcome %s (VL=%d): %s%a" seed lanes outcome
      Fmt.(option (fun ppf c -> Fmt.pf ppf " (cost %+d)" c))
      cost

let to_log events =
  let b = Buffer.create 4096 in
  let depth = ref 0 in
  List.iter
    (fun (e : event) ->
      (match e.payload with Span_end _ -> decr depth | _ -> ());
      if !depth < 0 then depth := 0;
      (* the horizontal box keeps every break hint on the event's line *)
      Buffer.add_string b
        (Fmt.str "%04d [%s] %s@[<h>%a@]" e.ts e.region
           (String.concat "" (List.init !depth (fun _ -> "  ")))
           pp_payload e.payload);
      Buffer.add_char b '\n';
      match e.payload with Span_begin _ -> incr depth | _ -> ())
    events;
  Buffer.contents b

(* ---- Chrome trace-event export ------------------------------------ *)

module Json = Lslp_util.Json

let json_of_levels levels =
  Json.Arr
    (List.map
       (fun (level, scores) ->
         Json.Obj
           [
             ("level", Json.Int level);
             ("scores", Json.Arr (List.map (fun s -> Json.Int s) scores));
           ])
       levels)

let payload_args = function
  | Span_begin _ | Span_end _ -> []
  | Seeds_found { seeds } ->
    [
      ("count", Json.Int (List.length seeds));
      ( "seeds",
        Json.Arr
          (List.map
             (fun (desc, lanes) ->
               Json.Obj
                 [ ("seed", Json.Str desc); ("lanes", Json.Int lanes) ])
             seeds) );
    ]
  | Seed_tried { seed; lanes } ->
    [ ("seed", Json.Str seed); ("lanes", Json.Int lanes) ]
  | Graph_start { gid; seed } ->
    [ ("gid", Json.Int gid); ("seed", Json.Str seed) ]
  | Graph_node { gid; nid; kind; bundles } ->
    [
      ("gid", Json.Int gid);
      ("nid", Json.Int nid);
      ("kind", Json.Str (kind_name kind));
      ( "bundles",
        Json.Arr
          (List.map
             (fun lanes ->
               Json.Arr (List.map (fun v -> Json.Str v) lanes))
             bundles) );
    ]
  | Graph_edge { gid; parent; child; slot } ->
    [
      ("gid", Json.Int gid);
      ("parent", Json.Int parent);
      ("child", Json.Int child);
      ("slot", Json.Int slot);
    ]
  | Dep_edge { gid; src; dst } ->
    [ ("gid", Json.Int gid); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Slot_modes { modes } ->
    [ ("modes", Json.Arr (List.map (fun m -> Json.Str m) modes)) ]
  | Get_best { mode; last; candidates; levels; chosen } ->
    [
      ("mode", Json.Str mode);
      ("last", Json.Str last);
      ("candidates", Json.Arr (List.map (fun c -> Json.Str c) candidates));
      ("levels", json_of_levels levels);
      ( "chosen",
        match chosen with Some c -> Json.Str c | None -> Json.Null );
    ]
  | Cost_computed { seed; nodes; total; threshold; accepted } ->
    [
      ("seed", Json.Str seed);
      ("nodes", Json.Int nodes);
      ("total", Json.Int total);
      ("threshold", Json.Int threshold);
      ("accepted", Json.Bool accepted);
    ]
  | Emit { instr; lanes } ->
    [ ("instr", Json.Str instr); ("lanes", Json.Int lanes) ]
  | Rollback { pass; error; budget_exhausted } ->
    [
      ("pass", Json.Str pass);
      ("error", Json.Str error);
      ("budget_exhausted", Json.Bool budget_exhausted);
    ]
  | Region_outcome { seed; lanes; outcome; cost } ->
    [
      ("seed", Json.Str seed);
      ("lanes", Json.Int lanes);
      ("outcome", Json.Str outcome);
      ("cost", match cost with Some c -> Json.Int c | None -> Json.Null);
    ]

(* Region labels map to thread ids so Perfetto renders one lane per
   region, with pass spans nested inside it. *)
let to_chrome ?(meta = []) events =
  let tids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let tid_order = ref [] in
  let tid_of region =
    match Hashtbl.find_opt tids region with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids region tid;
      tid_order := (region, tid) :: !tid_order;
      tid
  in
  let trace_events =
    List.map
      (fun (e : event) ->
        let tid = tid_of e.region in
        let common =
          [
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("ts", Json.Int e.ts);
          ]
        in
        match e.payload with
        | Span_begin { pass } ->
          Json.Obj
            ([ ("name", Json.Str pass); ("cat", Json.Str "pass");
               ("ph", Json.Str "B") ]
            @ common)
        | Span_end { pass } ->
          Json.Obj
            ([ ("name", Json.Str pass); ("cat", Json.Str "pass");
               ("ph", Json.Str "E") ]
            @ common)
        | p ->
          Json.Obj
            ([ ("name", Json.Str (payload_name p));
               ("cat", Json.Str "decision"); ("ph", Json.Str "i");
               ("s", Json.Str "t") ]
            @ common
            @ [ ("args", Json.Obj (payload_args p)) ]))
      events
  in
  let thread_names =
    List.rev_map
      (fun (region, tid) ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str region) ]);
          ])
      !tid_order
  in
  let process_name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str "lslp") ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr ((process_name :: thread_names) @ trace_events) );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) meta) );
    ]

let chrome_string ?meta events = Json.to_string (to_chrome ?meta events)

(* ---- Graphviz DOT export ------------------------------------------ *)

let lane_palette =
  [| "#bfdbfe"; "#bbf7d0"; "#fde68a"; "#fbcfe8"; "#ddd6fe"; "#a7f3d0";
     "#fecaca"; "#e0f2fe" |]

let lane_color lane = lane_palette.(lane mod Array.length lane_palette)

let html_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dot_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One record-style node: a header row plus one color-coded cell per lane. *)
let emit_table b ~id ~header ~header_color lanes =
  Buffer.add_string b
    (Fmt.str
       "      %s [shape=plain, label=<<TABLE BORDER=\"0\" CELLBORDER=\"1\" \
        CELLSPACING=\"0\"><TR><TD COLSPAN=\"%d\" BGCOLOR=\"%s\"><B>%s</B>\
        </TD></TR><TR>"
       id
       (max 1 (List.length lanes))
       header_color (html_escape header));
  List.iteri
    (fun lane v ->
      Buffer.add_string b
        (Fmt.str "<TD BGCOLOR=\"%s\">%s</TD>" (lane_color lane)
           (html_escape v)))
    lanes;
  if lanes = [] then Buffer.add_string b "<TD></TD>";
  Buffer.add_string b "</TR></TABLE>>];\n"

type dot_graph = {
  dg_seed : string;
  mutable dg_nodes :
    (int * node_kind * string list list) list;  (* reversed *)
  mutable dg_edges : (int * int * int) list;    (* parent, child, slot *)
  mutable dg_deps : (int * int) list;           (* src, dst *)
}

let to_dot events =
  (* regroup the flat stream by region, then by graph id *)
  let regions : (string * (int * dot_graph) list ref) list ref = ref [] in
  let graphs : (int, dot_graph) Hashtbl.t = Hashtbl.create 8 in
  let region_graphs region =
    match List.assoc_opt region !regions with
    | Some r -> r
    | None ->
      let r = ref [] in
      regions := !regions @ [ (region, r) ];
      r
  in
  List.iter
    (fun (e : event) ->
      match e.payload with
      | Graph_start { gid; seed } ->
        let dg =
          { dg_seed = seed; dg_nodes = []; dg_edges = []; dg_deps = [] }
        in
        Hashtbl.replace graphs gid dg;
        let r = region_graphs e.region in
        r := !r @ [ (gid, dg) ]
      | Graph_node { gid; nid; kind; bundles } ->
        Option.iter
          (fun dg -> dg.dg_nodes <- (nid, kind, bundles) :: dg.dg_nodes)
          (Hashtbl.find_opt graphs gid)
      | Graph_edge { gid; parent; child; slot } ->
        Option.iter
          (fun dg -> dg.dg_edges <- (parent, child, slot) :: dg.dg_edges)
          (Hashtbl.find_opt graphs gid)
      | Dep_edge { gid; src; dst } ->
        Option.iter
          (fun dg -> dg.dg_deps <- (src, dst) :: dg.dg_deps)
          (Hashtbl.find_opt graphs gid)
      | _ -> ())
    events;
  let b = Buffer.create 8192 in
  Buffer.add_string b "digraph lslp {\n";
  Buffer.add_string b "  compound=true;\n";
  Buffer.add_string b "  rankdir=TB;\n";
  Buffer.add_string b
    "  node [fontname=\"Helvetica\", fontsize=10];\n\
    \  edge [fontname=\"Helvetica\", fontsize=9];\n";
  let region_idx = ref 0 in
  List.iter
    (fun (region, graphs_ref) ->
      Buffer.add_string b
        (Fmt.str "  subgraph cluster_region_%d {\n    label=\"region %s\";\n\
                  \    style=bold;\n"
           !region_idx (dot_escape region));
      incr region_idx;
      List.iter
        (fun (gid, dg) ->
          Buffer.add_string b
            (Fmt.str
               "    subgraph cluster_g%d {\n      label=\"seed %s\";\n\
                \      style=dotted;\n"
               gid (dot_escape dg.dg_seed));
          let multi_nids = ref [] in
          List.iter
            (fun (nid, kind, bundles) ->
              match kind with
              | Knode_group op ->
                let lanes =
                  match bundles with lanes :: _ -> lanes | [] -> []
                in
                emit_table b
                  ~id:(Fmt.str "n%d" nid)
                  ~header:(Fmt.str "#%d %s" nid op)
                  ~header_color:"#f3f4f6" lanes
              | Knode_gather ->
                let lanes =
                  match bundles with lanes :: _ -> lanes | [] -> []
                in
                emit_table b
                  ~id:(Fmt.str "n%d" nid)
                  ~header:(Fmt.str "#%d gather" nid)
                  ~header_color:"#fee2e2" lanes
              | Knode_multi op ->
                multi_nids := nid :: !multi_nids;
                Buffer.add_string b
                  (Fmt.str
                     "      subgraph cluster_n%d {\n\
                      \        label=\"multi-node #%d %s\";\n\
                      \        style=\"rounded,dashed\";\n"
                     nid nid (dot_escape op));
                List.iteri
                  (fun j lanes ->
                    let id =
                      if j = 0 then Fmt.str "n%d" nid
                      else Fmt.str "n%d_g%d" nid j
                    in
                    emit_table b ~id
                      ~header:(Fmt.str "#%d.%d %s" nid j op)
                      ~header_color:"#fef9c3" lanes)
                  bundles;
                Buffer.add_string b "      }\n")
            (List.rev dg.dg_nodes);
          List.iter
            (fun (parent, child, slot) ->
              let attrs =
                (Fmt.str "label=\"%d\"" slot)
                ::
                (if List.mem child !multi_nids then
                   [ Fmt.str "lhead=\"cluster_n%d\"" child ]
                 else [])
              in
              Buffer.add_string b
                (Fmt.str "      n%d -> n%d [%s];\n" parent child
                   (String.concat ", " attrs)))
            (List.rev dg.dg_edges);
          List.iter
            (fun (src, dst) ->
              Buffer.add_string b
                (Fmt.str
                   "      n%d -> n%d [style=dashed, color=\"gray60\", \
                    constraint=false];\n"
                   src dst))
            (List.rev dg.dg_deps);
          Buffer.add_string b "    }\n")
        !graphs_ref;
      Buffer.add_string b "  }\n")
    !regions;
  Buffer.add_string b "}\n";
  Buffer.contents b
