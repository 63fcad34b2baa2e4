type way = { mutable tag : int; mutable dirty : bool; mutable stamp : int }
(* tag = -1 encodes an invalid way. *)

type t = {
  sets : way array array;
  block_bytes : int;
  block_shift : int;
  n_sets : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  (* Journal of sets mutated since the last [clear]: large levels see a
     handful of distinct sets per short run, so clearing, snapshotting
     and restoring walk the journal instead of the whole array —
     O(touched), not O(capacity). Every way mutation goes through
     [touch]. *)
  touched : int array;  (* stack of touched set indices *)
  touched_flag : Bytes.t;  (* per-set membership bit for the stack *)
  mutable n_touched : int;
}

type outcome = Hit | Miss of { evicted_dirty : bool }

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else if 1 lsl k > n then -1 else go (k + 1) in
  go 0

let create ~size_bytes ~block_bytes ~assoc =
  if size_bytes <= 0 || block_bytes <= 0 || assoc <= 0 then
    invalid_arg "Level.create: non-positive parameter";
  if size_bytes mod (block_bytes * assoc) <> 0 then
    invalid_arg "Level.create: size not divisible by block * assoc";
  let block_shift = log2_exact block_bytes in
  if block_shift < 0 then invalid_arg "Level.create: block size not a power of 2";
  let n_sets = size_bytes / (block_bytes * assoc) in
  let sets =
    Array.init n_sets (fun _ ->
        Array.init assoc (fun _ -> { tag = -1; dirty = false; stamp = 0 }))
  in
  {
    sets;
    block_bytes;
    block_shift;
    n_sets;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    touched = Array.make n_sets 0;
    touched_flag = Bytes.make n_sets '\000';
    n_touched = 0;
  }

let of_config (c : Casted_machine.Config.cache_level) =
  create ~size_bytes:c.Casted_machine.Config.size_bytes
    ~block_bytes:c.Casted_machine.Config.block_bytes
    ~assoc:c.Casted_machine.Config.assoc

let locate t addr =
  let block = addr lsr t.block_shift in
  let set = block mod t.n_sets in
  let tag = block / t.n_sets in
  (set, tag)

let touch t set_idx =
  if Bytes.unsafe_get t.touched_flag set_idx = '\000' then begin
    Bytes.unsafe_set t.touched_flag set_idx '\001';
    t.touched.(t.n_touched) <- set_idx;
    t.n_touched <- t.n_touched + 1
  end

let access t ~addr ~write =
  if addr < 0 then invalid_arg "Level.access: negative address";
  t.clock <- t.clock + 1;
  let set_idx, tag = locate t addr in
  touch t set_idx;
  let set = t.sets.(set_idx) in
  let hit = Array.find_opt (fun w -> w.tag = tag) set in
  match hit with
  | Some w ->
      w.stamp <- t.clock;
      if write then w.dirty <- true;
      t.hits <- t.hits + 1;
      Hit
  | None ->
      t.misses <- t.misses + 1;
      (* Evict the LRU way (invalid ways have stamp 0, oldest). *)
      let victim = ref set.(0) in
      Array.iter (fun w -> if w.stamp < !victim.stamp then victim := w) set;
      let evicted_dirty = !victim.tag >= 0 && !victim.dirty in
      if evicted_dirty then t.writebacks <- t.writebacks + 1;
      !victim.tag <- tag;
      !victim.dirty <- write;
      !victim.stamp <- t.clock;
      Miss { evicted_dirty }

let probe t ~addr =
  let set_idx, tag = locate t addr in
  Array.exists (fun w -> w.tag = tag) t.sets.(set_idx)

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

(* O(touched): only sets in the journal can differ from the pristine
   all-invalid state, because every way mutation records its set. *)
let clear t =
  for k = 0 to t.n_touched - 1 do
    let s = t.touched.(k) in
    Bytes.unsafe_set t.touched_flag s '\000';
    Array.iter
      (fun w ->
        w.tag <- -1;
        w.dirty <- false;
        w.stamp <- 0)
      t.sets.(s)
  done;
  t.n_touched <- 0;
  t.clock <- 0;
  reset_stats t

let num_sets t = t.n_sets
let block_bytes t = t.block_bytes

(* Sparse snapshot: only the touched sets (everything else is in the
   pristine all-invalid state a [clear] re-establishes). [set_idx.(k)]
   names the k-th of the [n_sets_captured] captured sets; its ways live
   at [k * assoc ..] in the flat arrays, which a reused snapshot may
   hold with spare capacity. Never mutated after capture unless handed
   back as [reuse] — safe to share read-only across domains. *)
type snapshot = {
  snap_sets : int;  (* geometry guard: n_sets *)
  assoc : int;
  n_sets_captured : int;
  set_idx : int array;
  tags : int array;  (* length >= n_sets_captured * assoc *)
  stamps : int array;
  dirty : Bytes.t;
  clock : int;
  s_hits : int;
  s_misses : int;
  s_writebacks : int;
}

let snapshot ?reuse t =
  let assoc = Array.length t.sets.(0) in
  let set_idx, tags, stamps, dirty =
    match reuse with
    | Some s
      when s.snap_sets = t.n_sets && s.assoc = assoc
           && Array.length s.set_idx >= t.n_touched ->
        (s.set_idx, s.tags, s.stamps, s.dirty)
    | _ ->
        (* A reused snapshot outgrown by the touched sets is replaced
           with headroom, so a run whose working set keeps growing
           reallocates O(log sets) times. *)
        let cap =
          match reuse with
          | Some s ->
              min t.n_sets (max t.n_touched (2 * Array.length s.set_idx))
          | None -> t.n_touched
        in
        let c = max (cap * assoc) 1 in
        (Array.make cap 0, Array.make c (-1), Array.make c 0,
         Bytes.make c '\000')
  in
  Array.blit t.touched 0 set_idx 0 t.n_touched;
  for k = 0 to t.n_touched - 1 do
    let set = t.sets.(set_idx.(k)) in
    for w = 0 to assoc - 1 do
      let i = (k * assoc) + w in
      tags.(i) <- set.(w).tag;
      stamps.(i) <- set.(w).stamp;
      Bytes.unsafe_set dirty i (if set.(w).dirty then '\001' else '\000')
    done
  done;
  {
    snap_sets = t.n_sets;
    assoc;
    n_sets_captured = t.n_touched;
    set_idx;
    tags;
    stamps;
    dirty;
    clock = t.clock;
    s_hits = t.hits;
    s_misses = t.misses;
    s_writebacks = t.writebacks;
  }

(* O(touched of t + touched of snap): clear the level back to pristine,
   then write the snapshot's sets (re-journalling them, so a later
   [clear] undoes the restore too). *)
let restore t snap =
  let assoc = Array.length t.sets.(0) in
  if snap.snap_sets <> t.n_sets || snap.assoc <> assoc then
    invalid_arg "Level.restore: geometry mismatch";
  clear t;
  for k = 0 to snap.n_sets_captured - 1 do
    let s = snap.set_idx.(k) in
    touch t s;
    let set = t.sets.(s) in
    for w = 0 to assoc - 1 do
      let i = (k * assoc) + w in
      set.(w).tag <- snap.tags.(i);
      set.(w).stamp <- snap.stamps.(i);
      set.(w).dirty <- Bytes.unsafe_get snap.dirty i <> '\000'
    done
  done;
  t.clock <- snap.clock;
  t.hits <- snap.s_hits;
  t.misses <- snap.s_misses;
  t.writebacks <- snap.s_writebacks

(* Rough heap footprint of one snapshot, for observability. *)
let snapshot_bytes snap =
  let words =
    (2 * Array.length snap.tags) + Array.length snap.set_idx + 8
  in
  (words * Sys.word_size / 8) + Bytes.length snap.dirty
