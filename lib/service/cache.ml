(* The verified result cache.

   Content-addressed: the canonical key is the digest of the input IR as
   Printer.canonical renders it (labels numbered by first appearance, one
   pass) crossed with Config.fingerprint, so two textually different
   sources that lower to the same function share one entry and a config
   knob that changes output splits them.  A second "front" table
   maps the digest of the raw (source, unroll, fingerprint) triple to the
   canonical key so a warm hit skips parsing entirely — without it the
   warm path would still pay the frontend, which costs more than a third
   of a full LSLP compile on the catalog.

   Trust nothing on a hit.  Every hit replays the PR-1 legality validator
   against the dependence-graph snapshot taken when the entry was
   compiled; the entry's function was compiled in place (never cloned), so
   instruction identities still match the snapshot and the check is not
   vacuous.  A verification failure evicts the entry (and its source
   aliases) and the caller recompiles — which is exactly how an injected
   cache poisoning is survived.  Digest collisions are guarded by
   comparing the stored input IR and fingerprint, not just the digest.

   One mutex per cache; lookups, verification and inserts all run under
   it.  Per-instance locked state, so lint R1 does not apply. *)

module Legality = Lslp_check.Legality
module Diagnostic = Lslp_check.Diagnostic
module Inject = Lslp_robust.Inject
module Stats = Lslp_telemetry.Pool_stats
module Registry = Lslp_obs.Registry
module Flight = Lslp_obs.Flight

type cached = {
  ir : string;
  remarks : string list;
  counters : (string * int) list;
  vectorized : int;
}

type entry = {
  input_norm : string;  (* collision guard: exact pre-pass IR *)
  fingerprint : string;
  snap : Legality.snapshot;
  func : Lslp_ir.Func.t;  (* the compiled function, ids matching [snap] *)
  payload : cached;
  mutable aliases : string list;  (* front keys pointing here *)
}

type t = {
  m : Mutex.t;
  by_key : (string, entry) Hashtbl.t;  (* canonical digest -> entry *)
  by_source : (string, string) Hashtbl.t;  (* front digest -> canonical *)
  metrics : Stats.metrics option;
}

let create ?metrics () =
  {
    m = Mutex.create ();
    by_key = Hashtbl.create 64;
    by_source = Hashtbl.create 64;
    metrics;
  }

let canonical_key ~input_norm ~fingerprint =
  Digest.to_hex (Digest.string (input_norm ^ "\x00" ^ fingerprint))

let source_key ~source ~unroll ~fingerprint =
  Digest.to_hex
    (Digest.string
       (source ^ "\x00" ^ string_of_int unroll ^ "\x00" ^ fingerprint))

let length t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.by_key in
  Mutex.unlock t.m;
  n

(* lock held.  Cache events carry tick -1 in the flight recorder: the
   cache runs under its own lock and does not see the pool's vclock. *)
let bump t f = match t.metrics with Some m -> f m | None -> ()

let flight t ~job ~detail kind =
  bump t (fun m -> Flight.record m.Stats.flight ~tick:(-1) ~job ~detail kind)

(* lock held.  Corrupt the stored function the way the pipeline's
   [Corrupt] point does — a damage the structural verifier always
   catches — so the poisoned entry must fail verification, not crash. *)
let poison_entry entry =
  ignore
    (List.exists Inject.corrupt_block (Lslp_ir.Func.blocks entry.func))

(* lock held.  The hit path: count the hit, apply any armed poisoning,
   then replay the legality validator.  Clean -> reuse; anything else ->
   evict the entry and every front alias, and the caller recompiles. *)
let verify_hit t ~label ~key entry ~poison =
  bump t (fun m -> Registry.incr m.Stats.c_hits);
  flight t ~job:label ~detail:key "cache-hit";
  if poison then begin
    flight t ~job:label ~detail:key "cache-poison";
    poison_entry entry
  end;
  let diags = Legality.validate entry.snap entry.func in
  if Diagnostic.errors diags = [] then begin
    bump t (fun m -> Registry.incr m.Stats.c_verified);
    flight t ~job:label ~detail:key "cache-verified";
    Some entry.payload
  end
  else begin
    Hashtbl.remove t.by_key key;
    List.iter (Hashtbl.remove t.by_source) entry.aliases;
    bump t (fun m -> Registry.incr m.Stats.c_evicted);
    flight t ~job:label
      ~detail:
        (Fmt.str "%s: %s" key (Diagnostic.summary (Diagnostic.errors diags)))
      "cache-evicted";
    None
  end

let find_by_source t ~label ~source_key ~poison =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.by_source source_key with
    | None -> None (* front miss; not yet a cache miss — the caller
                      parses and retries by content *)
    | Some key -> (
      match Hashtbl.find_opt t.by_key key with
      | None ->
        (* stale alias left by an eviction race; drop it *)
        Hashtbl.remove t.by_source source_key;
        None
      | Some entry -> verify_hit t ~label ~key entry ~poison)
  in
  Mutex.unlock t.m;
  r

let find_by_ir t ~label ~source_key ~input_norm ~fingerprint ~poison =
  let key = canonical_key ~input_norm ~fingerprint in
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.by_key key with
    | Some entry
      when entry.input_norm = input_norm
           && entry.fingerprint = fingerprint -> (
      match verify_hit t ~label ~key entry ~poison with
      | Some payload ->
        (* remember the new spelling of this input for next time *)
        if not (Hashtbl.mem t.by_source source_key) then begin
          Hashtbl.replace t.by_source source_key key;
          entry.aliases <- source_key :: entry.aliases
        end;
        Some payload
      | None -> None)
    | Some _ (* digest collision: treat as a miss, never trust it *)
    | None ->
      bump t (fun m -> Registry.incr m.Stats.c_misses);
      flight t ~job:label ~detail:key "cache-miss";
      None
  in
  Mutex.unlock t.m;
  r

let insert t ~label ~source_key ~input_norm ~fingerprint ~snap ~func payload =
  let key = canonical_key ~input_norm ~fingerprint in
  Mutex.lock t.m;
  (* first writer wins: a concurrent domain may have compiled the same
     input; both results verified against the same legality contract *)
  if not (Hashtbl.mem t.by_key key) then begin
    let entry =
      { input_norm; fingerprint; snap; func; payload;
        aliases = [ source_key ] }
    in
    Hashtbl.replace t.by_key key entry;
    Hashtbl.replace t.by_source source_key key;
    bump t (fun m -> Registry.incr m.Stats.c_inserts);
    flight t ~job:label ~detail:key "cache-insert"
  end
  else if not (Hashtbl.mem t.by_source source_key) then begin
    Hashtbl.replace t.by_source source_key key;
    match Hashtbl.find_opt t.by_key key with
    | Some entry -> entry.aliases <- source_key :: entry.aliases
    | None -> ()
  end;
  Mutex.unlock t.m
