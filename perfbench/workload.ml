(* The benchmark's workloads: seeded, endless sequences of service
   batches.  Batch [b] depends only on (workload, seed, b), so the timed
   loop, the output check and the traced replay all see the same jobs.

   - cold-project: each batch is the 28 catalog kernels in a seeded order,
     renamed with the seed and batch index, so every job misses the cache;
     one service instance compiles [project] batches, as one cold project
     build would.
   - wide-lookahead: each batch is 8 kernels of a seeded pool of generated
     wide commutative kernels (see {!Widegen}), renamed per batch.
   - rebuild-warm: set-up fills the cache with a pool of catalog and
     generated kernels; each batch then resubmits about two thirds of its
     jobs verbatim, about one third respelled with comments, and one new
     kernel. *)

module Service = Lslp_service.Service
module Catalog = Lslp_kernels.Catalog

type t = {
  name : string;
  origins : string array;
      (** distinct kernel bodies; every job is one of these, renamed or
          respelled — the oracle's inputs *)
  fill : (Service.job * int) array;
      (** jobs compiled in set-up to warm the cache; empty when cold *)
  batch : int -> (Service.job * int) array;
      (** batch [b] of the sequence, each job with its origin index *)
  project : int;
      (** batches per service instance; [max_int] keeps one for the run *)
}

let names = [ "cold-project"; "wide-lookahead"; "rebuild-warm" ]
let unroll = 4
let project_batches = 20
let wide_pool = 512
let wide_batch = 8
let warm_generated = 36
let warm_batch = 28

(* Insert [suffix] after the kernel's name: a new kernel to the cache. *)
let rename source suffix =
  let kw = "kernel " in
  let rec find i =
    if String.sub source i (String.length kw) = kw then i + String.length kw
    else find (i + 1)
  in
  let start = find 0 in
  let stop = String.index_from source start '(' in
  String.sub source 0 stop ^ suffix
  ^ String.sub source stop (String.length source - stop)

(* Same kernel, other spelling: the front key changes, the lowered IR
   does not. *)
let respell source ~batch ~slot =
  Printf.sprintf "// edit %d.%d\n%s  /* rebuilt */\n" batch slot source

let rng seed b = Random.State.make [| 0xbe4c; seed; b |]

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let job ~label source = { Service.label; source; unroll }

let catalog = Array.of_list Catalog.all

let cold_project seed =
  let origins = Array.map (fun (k : Catalog.kernel) -> k.source) catalog in
  let batch b =
    let suffix = Printf.sprintf "_s%d_b%d" seed b in
    Array.map
      (fun o ->
        ( job ~label:(catalog.(o).Catalog.key ^ suffix)
            (rename origins.(o) suffix),
          o ))
      (permutation (rng seed b) (Array.length origins))
  in
  { name = "cold-project"; origins; fill = [||]; batch;
    project = project_batches }

let wide_lookahead seed =
  let pool = Array.of_list (Widegen.generate ~seed ~count:wide_pool) in
  let origins = Array.map (fun (k : Widegen.kernel) -> k.source) pool in
  let blocks = wide_pool / wide_batch in
  let batch b =
    (* consecutive pool kernels: two of each (lanes, type) class *)
    let base = wide_batch * (b mod blocks) in
    let suffix = Printf.sprintf "_b%d" b in
    Array.map
      (fun k ->
        let o = base + k in
        (job ~label:(pool.(o).name ^ suffix) (rename origins.(o) suffix), o))
      (permutation (rng seed b) wide_batch)
  in
  { name = "wide-lookahead"; origins; fill = [||]; batch;
    project = project_batches }

let rebuild_warm seed =
  let ncat = Array.length catalog in
  (* The generated part of the pool comes from one fixed generator seed:
     a kernel either vectorizes whole or only in part, and a pool of 36
     drawn per seed swings the simulated speedup by ±5% from seed to seed.
     The workload's seed drives the traffic: which entries repeat, which
     are respelled, and the new kernels. *)
  let generated =
    Array.of_list (Widegen.generate ~seed:0 ~count:warm_generated)
  in
  let origins =
    Array.append
      (Array.map
         (fun (k : Catalog.kernel) ->
           rename k.source (Printf.sprintf "_s%d" seed))
         catalog)
      (Array.map (fun (k : Widegen.kernel) -> k.source) generated)
  in
  let label o = Printf.sprintf "pool%d" o in
  let fill = Array.mapi (fun o src -> (job ~label:(label o) src, o)) origins in
  let batch b =
    let r = rng seed b in
    let fresh = Random.State.int r warm_batch in
    Array.init warm_batch (fun slot ->
        if slot = fresh then
          (* a kernel the cache has never seen: one write per batch *)
          let o = b mod ncat in
          let suffix = Printf.sprintf "_s%d_n%d" seed b in
          (job ~label:("new" ^ suffix) (rename catalog.(o).source suffix), o)
        else
          let o = Random.State.int r (Array.length origins) in
          if Random.State.int r 3 = 0 then
            (job ~label:(label o) (respell origins.(o) ~batch:b ~slot), o)
          else (job ~label:(label o) origins.(o), o))
  in
  { name = "rebuild-warm"; origins; fill; batch; project = max_int }

(* [name] is one of [names]. *)
let make name ~seed =
  match name with
  | "cold-project" -> cold_project seed
  | "wide-lookahead" -> wide_lookahead seed
  | "rebuild-warm" -> rebuild_warm seed
  | _ -> invalid_arg ("Workload.make: " ^ name)
