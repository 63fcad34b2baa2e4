type t = {
  levels : (Level.t * int) array;  (* level, latency *)
  mem_latency : int;
  perfect : bool;
  l1_latency : int;
}

type stats = {
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  l3_hits : int;
  l3_misses : int;
  writebacks : int;
}

let create (c : Casted_machine.Config.cache_config) =
  let open Casted_machine.Config in
  {
    levels =
      [|
        (Level.of_config c.l1, c.l1.latency);
        (Level.of_config c.l2, c.l2.latency);
        (Level.of_config c.l3, c.l3.latency);
      |];
    mem_latency = c.mem_latency;
    perfect = false;
    l1_latency = c.l1.latency;
  }

let perfect (c : Casted_machine.Config.cache_config) =
  { (create c) with perfect = true }

let access t ~addr ~write =
  if t.perfect then t.l1_latency
  else begin
    (* Walk outwards until a level hits; every traversed level allocates
       the block (inclusive hierarchy). *)
    let n = Array.length t.levels in
    let rec go i =
      if i >= n then t.mem_latency
      else
        let level, latency = t.levels.(i) in
        match Level.access level ~addr ~write with
        | Level.Hit -> latency
        | Level.Miss _ -> go (i + 1)
    in
    go 0
  end

let stats t =
  let h i = Level.hits (fst t.levels.(i)) in
  let m i = Level.misses (fst t.levels.(i)) in
  let wb =
    Array.fold_left (fun acc (l, _) -> acc + Level.writebacks l) 0 t.levels
  in
  {
    l1_hits = h 0;
    l1_misses = m 0;
    l2_hits = h 1;
    l2_misses = m 1;
    l3_hits = h 2;
    l3_misses = m 2;
    writebacks = wb;
  }

let reset t = Array.iter (fun (l, _) -> Level.clear l) t.levels
let is_perfect t = t.perfect

type snapshot = { levels : Level.snapshot array; snap_perfect : bool }

let snapshot ?reuse (t : t) =
  let reuse i =
    match reuse with
    | Some s when Array.length s.levels = Array.length t.levels ->
        Some s.levels.(i)
    | Some _ | None -> None
  in
  {
    levels =
      Array.mapi (fun i (l, _) -> Level.snapshot ?reuse:(reuse i) l) t.levels;
    snap_perfect = t.perfect;
  }

let restore (t : t) snap =
  if t.perfect <> snap.snap_perfect then
    invalid_arg "Hierarchy.restore: perfect-cache mode mismatch";
  if Array.length snap.levels <> Array.length t.levels then
    invalid_arg "Hierarchy.restore: level count mismatch";
  Array.iteri (fun i (l, _) -> Level.restore l snap.levels.(i)) t.levels

let snapshot_perfect snap = snap.snap_perfect

let snapshot_bytes snap =
  Array.fold_left (fun acc l -> acc + Level.snapshot_bytes l) 0 snap.levels

let pp_stats ppf s =
  Format.fprintf ppf
    "L1 %d/%d L2 %d/%d L3 %d/%d (hits/misses), %d writebacks" s.l1_hits
    s.l1_misses s.l2_hits s.l2_misses s.l3_hits s.l3_misses s.writebacks
