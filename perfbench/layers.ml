(* Per-layer time accounting for the traced run.

   Spans are recorded by the benchmark around its calls into each
   layer's public functions, never inside the library. A span's self
   time is its duration minus the time covered by the spans it
   encloses, so the self times of all layers plus the uncovered
   remainder add up to the traced wall time exactly.

   Hot per-trial timings go through {!add} with timestamps taken inline
   (no closure, no allocation); coarse set-up spans go through {!span},
   which also keeps an event for the Chrome trace file. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = { mutable self_ns : int }

let table : (string, layer) Hashtbl.t = Hashtbl.create 32

(* Child time accumulated by each open span, innermost first. *)
let open_spans : int ref list ref = ref []

type event = { name : string; ts_ns : int; dur_ns : int }

let events : event list ref = ref []

let layer name =
  match Hashtbl.find_opt table name with
  | Some l -> l
  | None ->
      let l = { self_ns = 0 } in
      Hashtbl.replace table name l;
      l

let reset () =
  Hashtbl.reset table;
  open_spans := [];
  events := []

(* Credit [t1 - t0] to [l] as a leaf inside the innermost open span. *)
let add l ~t0 ~t1 =
  let dur = t1 - t0 in
  l.self_ns <- l.self_ns + dur;
  match !open_spans with p :: _ -> p := !p + dur | [] -> ()

let span name f =
  let l = layer name in
  let child = ref 0 in
  open_spans := child :: !open_spans;
  let t0 = now_ns () in
  let finish () =
    let dur = now_ns () - t0 in
    (match !open_spans with _ :: rest -> open_spans := rest | [] -> ());
    l.self_ns <- l.self_ns + dur - !child;
    (match !open_spans with p :: _ -> p := !p + dur | [] -> ());
    events := { name; ts_ns = t0; dur_ns = dur } :: !events
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let self_ns name =
  match Hashtbl.find_opt table name with Some l -> l.self_ns | None -> 0

let total_self_ns () = Hashtbl.fold (fun _ l acc -> acc + l.self_ns) table 0

(* Chrome trace_event document of the coarse spans, timestamps in
   microseconds relative to the first span. *)
let to_chrome () =
  let module J = Casted_obs.Json in
  let evs = List.rev !events in
  let origin = List.fold_left (fun acc e -> min acc e.ts_ns) max_int evs in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("name", J.String e.name);
                   ("ph", J.String "X");
                   ("ts", J.Float (float (e.ts_ns - origin) /. 1e3));
                   ("dur", J.Float (float e.dur_ns /. 1e3));
                   ("pid", J.Int 0);
                   ("tid", J.Int 0);
                 ])
             evs) );
    ]
