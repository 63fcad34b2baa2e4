module Workload = Casted_workloads.Workload
module Registry = Casted_workloads.Registry
module Scheme = Casted_detect.Scheme
module Options = Casted_detect.Options
module Pipeline = Casted_detect.Pipeline

type key = {
  workload : string;
  size : Workload.size;
  scheme : Scheme.t;
  issue_width : int;
  delay : int;
  options : Options.t;
  bug_options : Casted_sched.Bug.options option;
  optimize : bool;
}

let key ?(options = Options.default) ?bug_options ?(optimize = false)
    ~workload ~size ~scheme ~issue_width ~delay () =
  { workload; size; scheme; issue_width; delay; options; bug_options; optimize }

let pp_key ppf k =
  Format.fprintf ppf "%s/%s/%s/i%d/d%d" k.workload (Workload.size_name k.size)
    (Scheme.name k.scheme) k.issue_width k.delay

(* One line, stable across runs AND across casted/OCaml versions: what
   the on-disk result store hashes into entry addresses, so it can prove
   a tally belongs to the same (workload, scheme, config) point. Non-default knobs are folded in as
   an FNV-1a hash of an explicit canonical rendering — never
   [Hashtbl.hash], whose value is an implementation detail that may
   change between compiler releases and would silently orphan every
   persisted entry. The exact strings are pinned by golden unit
   tests. *)
let canonical_extras k =
  let scope =
    match k.options.Options.scope with
    | Options.Full -> "full"
    | Options.Store_slice -> "store-slice"
  in
  let bug =
    match k.bug_options with
    | None -> "default"
    | Some { Casted_sched.Bug.tie_break = Casted_sched.Bug.Prefer_lower } ->
        "prefer-lower"
    | Some { Casted_sched.Bug.tie_break = Casted_sched.Bug.Prefer_critical_pred
        } ->
        "prefer-critical-pred"
  in
  Printf.sprintf
    "stores=%b,branches=%b,calls=%b,params=%b,scope=%s,bug=%s,optimize=%b"
    k.options.Options.check_stores k.options.Options.check_branches
    k.options.Options.check_calls k.options.Options.shadow_params scope bug
    k.optimize

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  !h

let identity k =
  let extras =
    if
      k.options = Options.default && k.bug_options = None
      && not k.optimize
    then ""
    else Printf.sprintf "/x%016Lx" (fnv1a64 (canonical_extras k))
  in
  Format.asprintf "%a%s" pp_key k extras

(* Everything one configuration needs, prepared once per engine: the
   schedule compile (made with the entry) and the execution artifacts
   derived from it — decoded program, stage-2 compiled program, replay
   snapshot set — each filled on first use, so a sweep never captures
   and a store full hit never compiles. Every artifact is immutable and
   shared read-only by every campaign and pool domain. *)
type entry = {
  schedule : Pipeline.compiled;
  mutable decoded : Casted_sim.Decode.t option;
  mutable compiled : Casted_sim.Compile.t option;
  mutable replay : Casted_sim.Replay.t option;
}

(* Per-stage lookup counters, mirrored into [Casted_obs.Metrics]. *)
type counter = {
  hit : string;
  miss : string;
  mutable hits : int;
  mutable misses : int;
}

let counter stage =
  {
    hit = "engine.cache." ^ stage ^ "hits";
    miss = "engine.cache." ^ stage ^ "misses";
    hits = 0;
    misses = 0;
  }

(* The key is a flat record of immediates and small variant records, so
   polymorphic equality and hashing are exact. *)
type t = {
  table : (key, entry) Hashtbl.t;
  mutex : Mutex.t;
  schedules : counter;
  decodes : counter;
  stage2 : counter;
  captures : counter;
}

let create () =
  {
    table = Hashtbl.create 64;
    mutex = Mutex.create ();
    schedules = counter "";
    decodes = counter "decoded_";
    stage2 = counter "compiled_";
    captures = counter "replay_";
  }

let build k =
  let w =
    match Registry.find k.workload with
    | Some w -> w
    | None -> invalid_arg ("Cache.compile: unknown workload " ^ k.workload)
  in
  let program = w.Workload.build k.size in
  Pipeline.compile ~options:k.options ?bug_options:k.bug_options
    ~optimize:k.optimize ~scheme:k.scheme ~issue_width:k.issue_width
    ~delay:k.delay program

(* The one memo discipline every stage shares. [find] and [store] run
   under the mutex; [compute] runs outside it, so distinct keys (and
   distinct stages) build in parallel. On a same-slot race the first
   insert wins, so every caller gets the physically equal value. *)
let memo t c ~find ~store compute =
  Mutex.lock t.mutex;
  match find () with
  | Some v ->
      c.hits <- c.hits + 1;
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr c.hit;
      v
  | None ->
      Mutex.unlock t.mutex;
      let v = compute () in
      Mutex.lock t.mutex;
      let v, hit =
        match find () with
        | Some prior ->
            c.hits <- c.hits + 1;
            (prior, true)
        | None ->
            c.misses <- c.misses + 1;
            store v;
            (v, false)
      in
      Mutex.unlock t.mutex;
      Casted_obs.Metrics.incr (if hit then c.hit else c.miss);
      v

let compile t k =
  memo t t.schedules
    ~find:(fun () ->
      Option.map (fun e -> e.schedule) (Hashtbl.find_opt t.table k))
    ~store:(fun schedule ->
      Hashtbl.add t.table k
        { schedule; decoded = None; compiled = None; replay = None })
    (fun () -> build k)

(* The derived stages read their slot without touching the schedule
   counters, and fill it only after [compute] went through [compile],
   so the entry exists by then (entries are never removed). *)
let slot t k get = Option.bind (Hashtbl.find_opt t.table k) get
let entry t k = Hashtbl.find t.table k

let decoded t k =
  memo t t.decodes
    ~find:(fun () -> slot t k (fun e -> e.decoded))
    ~store:(fun d -> (entry t k).decoded <- Some d)
    (fun () -> Casted_sim.Decode.of_schedule (compile t k).Pipeline.schedule)

let compiled t k =
  memo t t.stage2
    ~find:(fun () -> slot t k (fun e -> e.compiled))
    ~store:(fun p -> (entry t k).compiled <- Some p)
    (fun () -> Casted_sim.Compile.of_decoded (decoded t k))

(* The capture is one golden run on the key's stage-2 program, so the
   cell compiles once for capture and trials alike. *)
let replay t k =
  memo t t.captures
    ~find:(fun () -> slot t k (fun e -> e.replay))
    ~store:(fun r -> (entry t k).replay <- Some r)
    (fun () ->
      let p = compiled t k in
      Casted_sim.Replay.capture ~compiled:p (Casted_sim.Compile.decoded p))

type stats = {
  hits : int;
  misses : int;
  entries : int;
  decoded_hits : int;
  decoded_misses : int;
  decoded_entries : int;
  replay_hits : int;
  replay_misses : int;
  replay_entries : int;
  compiled_hits : int;
  compiled_misses : int;
  compiled_entries : int;
}

let stats t =
  Mutex.lock t.mutex;
  let filled slot =
    Hashtbl.fold
      (fun _ e n -> if Option.is_some (slot e) then n + 1 else n)
      t.table 0
  in
  let s =
    {
      hits = t.schedules.hits;
      misses = t.schedules.misses;
      entries = Hashtbl.length t.table;
      decoded_hits = t.decodes.hits;
      decoded_misses = t.decodes.misses;
      decoded_entries = filled (fun e -> e.decoded);
      replay_hits = t.captures.hits;
      replay_misses = t.captures.misses;
      replay_entries = filled (fun e -> e.replay);
      compiled_hits = t.stage2.hits;
      compiled_misses = t.stage2.misses;
      compiled_entries = filled (fun e -> e.compiled);
    }
  in
  Mutex.unlock t.mutex;
  s
