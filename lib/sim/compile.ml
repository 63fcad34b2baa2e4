(* Stage-2 compilation: lower a pre-decoded program (Decode.t) into
   arrays of pre-bound OCaml closures — classic threaded code. Every
   per-instruction decision the interpreter makes dynamically (the
   ~40-arm Opcode match, Reg.cls dispatch per operand, latency lookup,
   immediate/target fetch, fault-site option matching, array bounds
   checks) is resolved here, once, at compile time. What remains at run
   time is a flat array walk: one indirect call per dynamic instruction
   into a closure that reads its operands from unsafe, compile-proven
   indices, computes, and writes back.

   The contract is bit-identity with the interpreter (Simulator): both
   engines mutate the same State.t with the same event ordering — dyn /
   fuel / role accounting first, operand reads left to right, memory
   touch after the cache access and the load itself, def-slot injection
   after the write-back, branch-counter increment after the predicate
   read. The verify oracle's cross-check (run / run_decoded /
   run_compiled, and this engine's replay from every capture snapshot)
   holds the two engines to that contract over the whole example
   matrix. Golden-prefix replay exists only here (run_replayed): the
   interpreter is the full-length reference.

   Fault hooks are pre-extracted into plain int "arms" on the compile
   context: an event counter fires its fault when it equals the arm
   after increment, and arm 0 means never (counters are >= 1 after
   increment). This removes every per-event [Fault.t option] match from
   the hot loop.

   Malformed programs (register indices out of the frame proven at
   compile time, non-canonical operand shapes) compile to poison
   closures that raise at execution time — the same observable point
   where the interpreter's own bounds checks would have raised — so
   compiling a bad program is harmless until it actually runs. *)

module Reg = Casted_ir.Reg
module Opcode = Casted_ir.Opcode
module Cond = Casted_ir.Cond
module Func = Casted_ir.Func
module Config = Casted_machine.Config
module Hierarchy = Casted_cache.Hierarchy

(* Region-head bookkeeping of a rollback run. A region head (the loop
   top of an entry-function block holding a Cpt marker, call stack
   empty) records where it was — block, dyn, time — and copies nothing;
   the checkpoint state is rebuilt by re-execution only when a rollback
   needs it (run_recovering). [stop_dyn] lets that rebuild halt the
   machine at the head whose dyn it names. Non-recovering runs carry a
   private record they never read. *)
type marks = {
  mutable mk_block : int;  (* -1: no region head passed yet *)
  mutable mk_dyn : int;
  mutable mk_time : int;
  mutable stop_dyn : int;  (* max_int: never stop *)
}

exception Stop

type cctx = {
  st : State.t;
  funcs : cfunc array;
  marks : marks;
  (* Golden-run modes, [None] on every trial: the capture hook fires at
     entry-function block-loop tops with an empty call stack (the only
     points where State.snapshot is valid); the profile takes one
     visit/cycle record per completed block. *)
  capture : (State.t -> State.regfile -> int -> unit) option;
  profile : Profile.t option;
  fuel : int;
  delay : int;  (* cross-cluster interconnect delay, from the config *)
  (* Pre-extracted fault triggers: counter value (post-increment) at
     which the single armed fault site fires; 0 = never. *)
  def_arm : int;
  def_bit : int;
  def_width : int;
  mem_arm : int;
  mem_off : int;
  mem_bit : int;
  br_arm : int;
  x_arm : int;
  x_bit : int;
  (* Return-value scratch: Ret parks the value here (class-coded, -1 =
     none), Call consumes it — no [State.value option] allocation. *)
  mutable ret_cls : int;
  mutable ret_gp : int64;
  mutable ret_fp : float;
  mutable ret_pr : bool;
}

and cinsn = cctx -> State.regfile -> int -> unit

and cbundle = {
  c_at : int;  (* earliest issue offset within the block *)
  c_oob : bool;  (* an issue-scan operand is out of frame: raise *)
  (* Issue-scan queues, one per register class: each entry packs
     [(reg_idx lsl 16) lor cluster] so the scan is a flat int walk. *)
  q_gp : int array;
  q_fp : int array;
  q_pr : int array;
  c_body : cinsn array;  (* flattened (cluster, slot) order *)
}

and cblock = {
  c_bundles : cbundle array;
  c_cpt : bool;  (* a rollback-region head: entry function, Cpt block *)
  c_entry : bool;  (* an entry-function block: a capture point *)
  c_func_name : string;  (* profile key: function name and block label *)
  c_label : string;
}
and cfunc = { c_func : Func.t; c_blocks : cblock array }

type t = { d : Decode.t; cfuncs : cfunc array }

let decoded t = t.d

let oob = "index out of bounds"

(* Per-instruction bookkeeping shared by every closure: dynamic count,
   fuel, role tally. Mirrors the interpreter's exec_insn preamble. *)
let pre c role =
  let st = c.st in
  let dyn = st.State.dyn + 1 in
  st.State.dyn <- dyn;
  if dyn > c.fuel then raise Runtime.Out_of_fuel;
  let roles = st.State.roles in
  Array.unsafe_set roles role (Array.unsafe_get roles role + 1)

(* Operand reads with cross-cluster accounting; indices are proven in
   bounds at compile time. *)

let read_gp c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.gp i in
  let home = Array.unsafe_get fr.State.gp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then Fault.flip_int ~bit:c.x_bit v else v
  end
  else v

let read_fp c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.fpv i in
  let home = Array.unsafe_get fr.State.fp_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then Fault.flip_float ~bit:c.x_bit v else v
  end
  else v

let read_pr c (fr : State.regfile) i cluster =
  let v = Array.unsafe_get fr.State.prv i in
  let home = Array.unsafe_get fr.State.pr_home i in
  if home >= 0 && home <> cluster then begin
    let st = c.st in
    let x = st.State.xreads + 1 in
    st.State.xreads <- x;
    if x = c.x_arm then not v else v
  end
  else v

(* Write-back: value, ready time (monotone max), producing cluster. *)

let wr_gp (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.gp i v;
  if ready > Array.unsafe_get fr.State.gp_ready i then
    Array.unsafe_set fr.State.gp_ready i ready;
  Array.unsafe_set fr.State.gp_home i home

let wr_fp (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.fpv i v;
  if ready > Array.unsafe_get fr.State.fp_ready i then
    Array.unsafe_set fr.State.fp_ready i ready;
  Array.unsafe_set fr.State.fp_home i home

let wr_pr (fr : State.regfile) i v ready home =
  Array.unsafe_set fr.State.prv i v;
  if ready > Array.unsafe_get fr.State.pr_ready i then
    Array.unsafe_set fr.State.pr_ready i ready;
  Array.unsafe_set fr.State.pr_home i home

(* Def-slot fault injection, right after write-back. *)

let inject_gp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.gp i
      (Fault.flip_burst ~bit:c.def_bit ~width:c.def_width
         (Array.unsafe_get fr.State.gp i))

let inject_fp c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.fpv i
      (Fault.flip_float_burst ~bit:c.def_bit ~width:c.def_width
         (Array.unsafe_get fr.State.fpv i))

let inject_pr c (fr : State.regfile) i =
  let st = c.st in
  let n = st.State.defs + 1 in
  st.State.defs <- n;
  if n = c.def_arm then
    Array.unsafe_set fr.State.prv i (not (Array.unsafe_get fr.State.prv i))

let touch_mem c addr =
  let st = c.st in
  let n = st.State.mems + 1 in
  st.State.mems <- n;
  if n = c.mem_arm then begin
    let line =
      Int64.logand addr (Int64.lognot (Int64.of_int (Fault.line_bytes - 1)))
    in
    Memory.flip_bit st.State.mem
      ~addr:(Int64.add line (Int64.of_int c.mem_off))
      ~bit:c.mem_bit
  end

(* Issue-time scan over one packed queue: fold cross-cluster-delayed
   operand arrival times into st.tmax. *)
let scan_q st (ready : int array) (home : int array) delay (q : int array) =
  for i = 0 to Array.length q - 1 do
    let p = Array.unsafe_get q i in
    let idx = p lsr 16 in
    let cl = p land 0xffff in
    let r = Array.unsafe_get ready idx in
    let h = Array.unsafe_get home idx in
    let need = if h >= 0 && h <> cl then r + delay else r in
    if need > st.State.tmax then st.State.tmax <- need
  done

(* A region head at the loop top of [cur]: the interpreter's eager
   snapshot point, reduced to three integer writes. Only entry-function
   blocks carry the flag; a recursive call into the entry function
   (depth > 1) is not a head, as in the interpreter. *)
let region_head c cur =
  let st = c.st in
  if st.State.depth = 1 then begin
    let m = c.marks in
    if st.State.dyn = m.stop_dyn then raise Stop;
    m.mk_block <- cur;
    m.mk_dyn <- st.State.dyn;
    m.mk_time <- st.State.time
  end

(* The block loop — same two-phase bundle semantics as the interpreter:
   compute the lockstep issue time over every operand of the whole
   bundle, then execute the flattened body at that time. Tail-recursive;
   the only per-block work beyond the bundles is one test each for the
   region-head flag, the capture hook and the profile. *)
let rec exec_cblocks c (fr : State.regfile) (blocks : cblock array) cur =
  let st = c.st in
  let b = Array.unsafe_get blocks cur in
  if b.c_cpt then region_head c cur;
  (match c.capture with
  | Some hook when b.c_entry && st.State.depth = 1 -> hook st fr cur
  | Some _ | None -> ());
  let block_start = st.State.time + 1 in
  st.State.xfer <- State.xfer_none;
  let bundles = b.c_bundles in
  for i = 0 to Array.length bundles - 1 do
    let cb = Array.unsafe_get bundles i in
    if cb.c_oob then invalid_arg oob;
    let t0 = st.State.time + 1 in
    let nb = block_start + cb.c_at in
    st.State.tmax <- (if nb > t0 then nb else t0);
    scan_q st fr.State.gp_ready fr.State.gp_home c.delay cb.q_gp;
    scan_q st fr.State.fp_ready fr.State.fp_home c.delay cb.q_fp;
    scan_q st fr.State.pr_ready fr.State.pr_home c.delay cb.q_pr;
    let t = st.State.tmax in
    st.State.time <- t;
    let body = cb.c_body in
    for k = 0 to Array.length body - 1 do
      (Array.unsafe_get body k) c fr t
    done
  done;
  (match c.profile with
  | Some p ->
      Profile.record p ~func:b.c_func_name ~label:b.c_label
        ~cycles:(st.State.time + 1 - block_start)
  | None -> ());
  if st.State.xfer >= 0 then exec_cblocks c fr blocks st.State.xfer
  else if st.State.xfer = State.xfer_return then ()
  else invalid_arg "Simulator: block finished without control transfer"

(* ---- Instruction compilation ---- *)

(* Argument binders for Call: read one caller operand (cross-cluster
   accounted), write it into the fresh callee frame. Compiled per formal
   parameter so the call site does no class dispatch. *)
type binder = cctx -> State.regfile -> State.regfile -> int -> unit

let compile_binder ~cluster ~caller:(cngp, cnfp, cnpr)
    ~callee:(kngp, knfp, knpr) (u : Reg.t) (p : Reg.t) : binder =
  let ui = Reg.idx u and pi = Reg.idx p in
  match (Reg.cls u, Reg.cls p) with
  | Reg.Gp, Reg.Gp when ui < cngp && pi < kngp ->
      fun c caller callee ready ->
        let v = read_gp c caller ui cluster in
        wr_gp callee pi v ready (-1)
  | Reg.Fp, Reg.Fp when ui < cnfp && pi < knfp ->
      fun c caller callee ready ->
        let v = read_fp c caller ui cluster in
        wr_fp callee pi v ready (-1)
  | Reg.Pr, Reg.Pr when ui < cnpr && pi < knpr ->
      fun c caller callee ready ->
        let v = read_pr c caller ui cluster in
        wr_pr callee pi v ready (-1)
  | (Reg.Gp, Reg.Gp) | (Reg.Fp, Reg.Fp) | (Reg.Pr, Reg.Pr) ->
      fun _ _ _ _ -> invalid_arg oob
  | _ -> fun _ _ _ _ -> invalid_arg "Simulator: value class mismatch"

let compile_insn (d : Decode.t) ~sizes:(ngp, nfp, npr) ~cluster
    (di : Decode.dinsn) : cinsn =
  let role = di.Decode.role in
  let lat = di.Decode.latency in
  let uses = di.Decode.uses and defs = di.Decode.defs in
  let nu = Array.length uses and nd = Array.length defs in
  let u i = Reg.idx uses.(i) in
  let poison msg : cinsn = fun c _ _ -> pre c role; invalid_arg msg in
  (* Canonical single-def shapes, checked against the frame the written
     array actually lives in AND the declared class (injection dispatches
     on the declared class, the write on the arm's class — they agree in
     every pipeline-built program). *)
  let gp_def () = nd = 1 && Reg.cls defs.(0) = Reg.Gp && Reg.idx defs.(0) < ngp in
  let fp_def () = nd = 1 && Reg.cls defs.(0) = Reg.Fp && Reg.idx defs.(0) < nfp in
  let pr_def () = nd = 1 && Reg.cls defs.(0) = Reg.Pr && Reg.idx defs.(0) < npr in
  let no_def () = nd = 0 in
  match di.Decode.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
  | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
  | Opcode.Sra ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f =
          match di.Decode.op with
          | Opcode.Add -> Int64.add
          | Opcode.Sub -> Int64.sub
          | Opcode.Mul -> Int64.mul
          | Opcode.Div -> Alu.sdiv
          | Opcode.Rem -> Alu.srem
          | Opcode.And -> Int64.logand
          | Opcode.Or -> Int64.logor
          | Opcode.Xor -> Int64.logxor
          | Opcode.Shl -> fun x y -> Int64.shift_left x (Alu.shift_amount y)
          | Opcode.Shr ->
              fun x y -> Int64.shift_right_logical x (Alu.shift_amount y)
          | _ -> fun x y -> Int64.shift_right x (Alu.shift_amount y)
        in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          let y = read_gp c fr b cluster in
          wr_gp fr dd (f x y) (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Addi | Opcode.Muli | Opcode.Andi | Opcode.Xori | Opcode.Shli
  | Opcode.Shri | Opcode.Srai ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let f =
          match di.Decode.op with
          | Opcode.Addi -> Int64.add
          | Opcode.Muli -> Int64.mul
          | Opcode.Andi -> Int64.logand
          | Opcode.Xori -> Int64.logxor
          | Opcode.Shli -> fun x y -> Int64.shift_left x (Alu.shift_amount y)
          | Opcode.Shri ->
              fun x y -> Int64.shift_right_logical x (Alu.shift_amount y)
          | _ -> fun x y -> Int64.shift_right x (Alu.shift_amount y)
        in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          wr_gp fr dd (f x imm) (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Mov ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = read_gp c fr a cluster in
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Movi ->
      if not (gp_def ()) then poison oob
      else
        let dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        fun c fr t ->
          pre c role;
          wr_gp fr dd imm (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Cmp cond ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && pr_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f = Cond.eval_int cond in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          let y = read_gp c fr b cluster in
          wr_pr fr dd (f x y) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Cmpi cond ->
      if not (nu >= 1 && u 0 < ngp && pr_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let f = Cond.eval_int cond in
        fun c fr t ->
          pre c role;
          let x = read_gp c fr a cluster in
          wr_pr fr dd (f x imm) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Sel ->
      if
        not
          (nu >= 3 && u 0 < npr && u 1 < ngp && u 2 < ngp && gp_def ())
      then poison oob
      else
        let up = u 0 and u1 = u 1 and u2 = u 2 and dd = Reg.idx defs.(0) in
        let voting = role = 2 (* Insn.Check: TMR majority vote *) in
        fun c fr t ->
          pre c role;
          let p = read_pr c fr up cluster in
          let v =
            if p then read_gp c fr u1 cluster else read_gp c fr u2 cluster
          in
          if
            voting
            && ((not p)
               || not (Int64.equal v (Array.unsafe_get fr.State.gp u2)))
          then c.st.State.corrections <- c.st.State.corrections + 1;
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv ->
      if not (nu >= 2 && u 0 < nfp && u 1 < nfp && fp_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f =
          match di.Decode.op with
          | Opcode.Fadd -> ( +. )
          | Opcode.Fsub -> ( -. )
          | Opcode.Fmul -> ( *. )
          | _ -> ( /. )
        in
        fun c fr t ->
          pre c role;
          let x = read_fp c fr a cluster in
          let y = read_fp c fr b cluster in
          wr_fp fr dd (f x y) (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fmov ->
      if not (nu >= 1 && u 0 < nfp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = read_fp c fr a cluster in
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fmovi ->
      if not (fp_def ()) then poison oob
      else
        let dd = Reg.idx defs.(0) and fimm = di.Decode.fimm in
        fun c fr t ->
          pre c role;
          wr_fp fr dd fimm (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Fcmp cond ->
      if not (nu >= 2 && u 0 < nfp && u 1 < nfp && pr_def ()) then poison oob
      else
        let a = u 0 and b = u 1 and dd = Reg.idx defs.(0) in
        let f = Cond.eval_float cond in
        fun c fr t ->
          pre c role;
          let x = read_fp c fr a cluster in
          let y = read_fp c fr b cluster in
          wr_pr fr dd (f x y) (t + lat) cluster;
          inject_pr c fr dd
  | Opcode.Itof ->
      if not (nu >= 1 && u 0 < ngp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let v = Int64.to_float (read_gp c fr a cluster) in
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.Ftoi ->
      if not (nu >= 1 && u 0 < nfp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) in
        fun c fr t ->
          pre c role;
          let f = read_fp c fr a cluster in
          let v =
            if Float.is_nan f then 0L else Int64.of_float (Float.trunc f)
          in
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Ld w | Opcode.Lds w ->
      if not (nu >= 1 && u 0 < ngp && gp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        let signed =
          match di.Decode.op with Opcode.Lds _ -> true | _ -> false
        in
        fun c fr t ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr a cluster) imm in
          let lat =
            Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
              ~write:false
          in
          let v = Memory.read st.State.mem ~addr ~width:w ~signed in
          touch_mem c addr;
          wr_gp fr dd v (t + lat) cluster;
          inject_gp c fr dd
  | Opcode.Fld ->
      if not (nu >= 1 && u 0 < ngp && fp_def ()) then poison oob
      else
        let a = u 0 and dd = Reg.idx defs.(0) and imm = di.Decode.imm in
        fun c fr t ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr a cluster) imm in
          let lat =
            Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
              ~write:false
          in
          let v = Memory.read_float st.State.mem ~addr in
          touch_mem c addr;
          wr_fp fr dd v (t + lat) cluster;
          inject_fp c fr dd
  | Opcode.St w ->
      if not (nu >= 2 && u 0 < ngp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        fun c fr _ ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr aaddr cluster) imm in
          let v = read_gp c fr aval cluster in
          Memory.write st.State.mem ~addr ~width:w v;
          ignore
            (Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
               ~write:true);
          touch_mem c addr
  | Opcode.Fst ->
      if not (nu >= 2 && u 0 < nfp && u 1 < ngp && no_def ()) then poison oob
      else
        let aval = u 0 and aaddr = u 1 and imm = di.Decode.imm in
        fun c fr _ ->
          pre c role;
          let st = c.st in
          let addr = Int64.add (read_gp c fr aaddr cluster) imm in
          let v = read_fp c fr aval cluster in
          Memory.write_float st.State.mem ~addr v;
          ignore
            (Hierarchy.access st.State.hier ~addr:(Runtime.addr_int addr)
               ~write:true);
          touch_mem c addr
  | Opcode.Chk ->
      if not (nu >= 2 && no_def ()) then poison oob
      else
        let id = di.Decode.id in
        (* Chk dispatches on the declared class of its first operand;
           both operands are then read through that class's file. *)
        (match Reg.cls uses.(0) with
        | Reg.Gp ->
            if not (u 0 < ngp && u 1 < ngp) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_gp c fr a cluster in
                let y = read_gp c fr b cluster in
                if not (Int64.equal x y) then raise (Runtime.Check_failed id)
        | Reg.Fp ->
            if not (u 0 < nfp && u 1 < nfp) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_fp c fr a cluster in
                let y = read_fp c fr b cluster in
                if
                  not
                    (Int64.equal (Int64.bits_of_float x)
                       (Int64.bits_of_float y))
                then raise (Runtime.Check_failed id)
        | Reg.Pr ->
            if not (u 0 < npr && u 1 < npr) then poison oob
            else
              let a = u 0 and b = u 1 in
              fun c fr _ ->
                pre c role;
                let x = read_pr c fr a cluster in
                let y = read_pr c fr b cluster in
                if not (Bool.equal x y) then raise (Runtime.Check_failed id))
  | Opcode.Br ->
      if not (no_def ()) then poison oob
      else
        let target = di.Decode.target in
        fun c _ _ ->
          pre c role;
          c.st.State.xfer <- target
  | Opcode.Brc flag ->
      if not (nu >= 1 && u 0 < npr && no_def ()) then poison oob
      else
        let a = u 0 in
        let target = di.Decode.target and target2 = di.Decode.target2 in
        fun c fr _ ->
          pre c role;
          let taken = Bool.equal (read_pr c fr a cluster) flag in
          let st = c.st in
          let n = st.State.branches + 1 in
          st.State.branches <- n;
          let taken = if n = c.br_arm then not taken else taken in
          st.State.xfer <- (if taken then target else target2)
  | Opcode.Ret ->
      if not (no_def ()) then poison oob
      else if nu = 0 then
        fun c _ _ ->
          pre c role;
          c.ret_cls <- -1;
          c.st.State.xfer <- State.xfer_return
      else (
        match Reg.cls uses.(0) with
        | Reg.Gp ->
            if not (u 0 < ngp) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_gp c fr a cluster in
                c.ret_cls <- 0;
                c.ret_gp <- v;
                c.st.State.xfer <- State.xfer_return
        | Reg.Fp ->
            if not (u 0 < nfp) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_fp c fr a cluster in
                c.ret_cls <- 1;
                c.ret_fp <- v;
                c.st.State.xfer <- State.xfer_return
        | Reg.Pr ->
            if not (u 0 < npr) then poison oob
            else
              let a = u 0 in
              fun c fr _ ->
                pre c role;
                let v = read_pr c fr a cluster in
                c.ret_cls <- 2;
                c.ret_pr <- v;
                c.st.State.xfer <- State.xfer_return)
  | Opcode.Halt ->
      if nu = 0 then fun c _ _ ->
        pre c role;
        raise (Runtime.Halted 0)
      else if not (u 0 < ngp) then poison oob
      else
        let a = u 0 in
        fun c fr _ ->
          pre c role;
          let v = read_gp c fr a cluster in
          raise (Runtime.Halted (Int64.to_int v))
  | Opcode.Call ->
      let target = di.Decode.target in
      let callee = d.Decode.funcs.(target) in
      let kfunc = callee.Decode.func in
      let kngp = max 1 (Func.reg_count kfunc Reg.Gp) in
      let knfp = max 1 (Func.reg_count kfunc Reg.Fp) in
      let knpr = max 1 (Func.reg_count kfunc Reg.Pr) in
      let params = Array.of_list kfunc.Func.params in
      if nd > 1 then poison "Simulator: call with multiple defs"
      else if Array.length params <> nu then
        poison "Simulator: call arity mismatch"
      else
        let binders =
          Array.init nu (fun i ->
              compile_binder ~cluster ~caller:(ngp, nfp, npr)
                ~callee:(kngp, knfp, knpr) uses.(i) params.(i))
        in
        (* def_kind: -1 none, 0/1/2 = Gp/Fp/Pr destination. *)
        let def_kind, dd =
          if nd = 0 then (-1, 0)
          else
            let r = defs.(0) in
            let i = Reg.idx r in
            (match Reg.cls r with
            | Reg.Gp -> if i < ngp then (0, i) else (-2, 0)
            | Reg.Fp -> if i < nfp then (1, i) else (-2, 0)
            | Reg.Pr -> if i < npr then (2, i) else (-2, 0))
        in
        if def_kind = -2 then poison oob
        else
          fun c fr _ ->
            pre c role;
            let st = c.st in
            (* The callee drives xfer and the return scratch for its own
               blocks; restore the caller's pending values around the
               nested execution. *)
            let saved_xfer = st.State.xfer in
            let saved_cls = c.ret_cls in
            let saved_gp = c.ret_gp in
            let saved_fp = c.ret_fp in
            let saved_pr = c.ret_pr in
            let ready = st.State.time + 1 in
            let nfr = State.make_regfile kfunc ~time:ready in
            for i = 0 to Array.length binders - 1 do
              (Array.unsafe_get binders i) c fr nfr ready
            done;
            st.State.depth <- st.State.depth + 1;
            if st.State.depth > Runtime.max_call_depth then
              raise (Trap.Trap Trap.Stack_overflow);
            exec_cblocks c nfr (Array.unsafe_get c.funcs target).c_blocks 0;
            st.State.depth <- st.State.depth - 1;
            let rcls = c.ret_cls in
            let rgp = c.ret_gp in
            let rfp = c.ret_fp in
            let rpr = c.ret_pr in
            c.ret_cls <- saved_cls;
            c.ret_gp <- saved_gp;
            c.ret_fp <- saved_fp;
            c.ret_pr <- saved_pr;
            st.State.xfer <- saved_xfer;
            if def_kind >= 0 then begin
              if rcls < 0 then
                invalid_arg "Simulator: call expected a return value";
              if rcls <> def_kind then
                invalid_arg "Simulator: value class mismatch";
              let wready = st.State.time + 1 in
              match def_kind with
              | 0 ->
                  wr_gp fr dd rgp wready cluster;
                  inject_gp c fr dd
              | 1 ->
                  wr_fp fr dd rfp wready cluster;
                  inject_fp c fr dd
              | _ ->
                  wr_pr fr dd rpr wready cluster;
                  inject_pr c fr dd
            end
  | Opcode.Cpt | Opcode.Nop ->
      if not (no_def ()) then poison oob else fun c _ _ -> pre c role

let compile_bundle (d : Decode.t) ~sizes (db : Decode.dbundle) : cbundle =
  let ngp, nfp, npr = sizes in
  let qg = ref [] and qf = ref [] and qp = ref [] in
  let bad = ref false in
  Array.iteri
    (fun cluster insns ->
      Array.iter
        (fun (di : Decode.dinsn) ->
          Array.iter
            (fun r ->
              let i = Reg.idx r in
              let pk = (i lsl 16) lor cluster in
              match Reg.cls r with
              | Reg.Gp -> if i >= ngp then bad := true else qg := pk :: !qg
              | Reg.Fp -> if i >= nfp then bad := true else qf := pk :: !qf
              | Reg.Pr -> if i >= npr then bad := true else qp := pk :: !qp)
            di.Decode.uses)
        insns)
    db.Decode.slots;
  if Array.length db.Decode.slots > 0x10000 then bad := true;
  let arr l = Array.of_list (List.rev l) in
  let body =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun cluster insns ->
              Array.map (compile_insn d ~sizes ~cluster) insns)
            db.Decode.slots))
  in
  {
    c_at = db.Decode.at;
    c_oob = !bad;
    q_gp = arr !qg;
    q_fp = arr !qf;
    q_pr = arr !qp;
    c_body = body;
  }

let of_decoded (d : Decode.t) : t =
  Casted_obs.Trace.with_span ~cat:"sim" "sim.compile" (fun () ->
      Casted_obs.Metrics.incr "sim.compiles";
      let compile_func fi (df : Decode.dfunc) =
        let func = df.Decode.func in
        let n c = max 1 (Func.reg_count func c) in
        let sizes = (n Reg.Gp, n Reg.Fp, n Reg.Pr) in
        let entry = fi = d.Decode.entry in
        let compile_block (db : Decode.dblock) =
          {
            c_bundles = Array.map (compile_bundle d ~sizes) db.Decode.bundles;
            c_cpt = entry && db.Decode.checkpoint;
            c_entry = entry;
            c_func_name = func.Func.name;
            c_label = db.Decode.label;
          }
        in
        { c_func = func; c_blocks = Array.map compile_block df.Decode.blocks }
      in
      { d; cfuncs = Array.mapi compile_func d.Decode.funcs })

let of_schedule sched = of_decoded (Decode.of_schedule sched)

(* ---- Entry points ---- *)

let arms_of_fault = function
  | None -> (0, 0, 1, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Reg_flip { target_slot; bit }) ->
      (target_slot + 1, bit, 1, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Burst_flip { target_slot; bit; width }) ->
      (target_slot + 1, bit, width, 0, 0, 0, 0, 0, 0)
  | Some (Fault.Mem_flip { target_access; offset; bit }) ->
      (0, 0, 1, target_access + 1, offset, bit, 0, 0, 0)
  | Some (Fault.Branch_flip { target_branch }) ->
      (0, 0, 1, 0, 0, 0, target_branch + 1, 0, 0)
  | Some (Fault.Xcluster_flip { target_read; bit }) ->
      (0, 0, 1, 0, 0, 0, 0, target_read + 1, bit)

let new_marks () =
  { mk_block = -1; mk_dyn = -1; mk_time = 0; stop_dyn = max_int }

let make_cctx ?(marks = new_marks ()) ?capture ?profile (p : t) ~fault ~fuel
    st =
  let ( def_arm, def_bit, def_width, mem_arm, mem_off, mem_bit, br_arm, x_arm,
        x_bit ) =
    arms_of_fault fault
  in
  {
    st;
    funcs = p.cfuncs;
    marks;
    capture;
    profile;
    fuel;
    delay = p.d.Decode.config.Config.delay;
    def_arm;
    def_bit;
    def_width;
    mem_arm;
    mem_off;
    mem_bit;
    br_arm;
    x_arm;
    x_bit;
    ret_cls = -1;
    ret_gp = 0L;
    ret_fp = 0.0;
    ret_pr = false;
  }

(* Enter the entry function on a fresh machine: its frame, at depth 1. *)
let enter (st : State.t) cf =
  st.State.depth <- st.State.depth + 1;
  if st.State.depth > Runtime.max_call_depth then
    raise (Trap.Trap Trap.Stack_overflow);
  let fr = State.make_regfile cf.c_func ~time:(st.State.time + 1) in
  (match cf.c_func.Func.params with
  | [] -> ()
  | _ :: _ -> invalid_arg "Simulator: call arity mismatch");
  fr

let exec_entry c entry =
  let st = c.st in
  let cf = Array.unsafe_get c.funcs entry in
  let fr = enter st cf in
  exec_cblocks c fr cf.c_blocks 0;
  st.State.depth <- st.State.depth - 1

let run ?fault ?(fuel = max_int) ?(perfect_cache = false) ?profile
    ?(with_mem_digest = false) ?capture (p : t) =
  let d = p.d in
  let st =
    State.fresh ~image:d.Decode.image ~cache:d.Decode.config.Config.cache
      ~perfect:perfect_cache
  in
  let c = make_cctx ?capture ?profile p ~fault ~fuel st in
  let termination =
    Runtime.termination_of (fun () ->
        exec_entry c d.Decode.entry;
        (* Entry returned instead of halting: treat as exit 0. *)
        Outcome.Exit 0)
  in
  Runtime.finish ~config:d.Decode.config ~output_base:d.Decode.output_base
    ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
    ~with_mem_digest st termination

(* Replay composition: restore a golden-prefix snapshot (captured by
   [run ~capture]; block boundaries and counters are engine independent,
   so a snapshot from either engine will do) and run only the entry
   function's suffix on the compiled path. *)
let run_replayed ?fault ?(fuel = max_int) ?(with_mem_digest = false) ~snapshot
    (p : t) =
  let d = p.d in
  let st, fr = State.restore ~cache:d.Decode.config.Config.cache snapshot in
  let c = make_cctx p ~fault ~fuel st in
  let blocks = (Array.unsafe_get c.funcs d.Decode.entry).c_blocks in
  let start = snapshot.State.block in
  if start < 0 || start >= Array.length blocks then invalid_arg oob;
  let termination =
    Runtime.termination_of (fun () ->
        exec_cblocks c fr blocks start;
        Outcome.Exit 0)
  in
  let module M = Casted_obs.Metrics in
  if M.enabled () then M.incr "sim.replays";
  Runtime.finish ~config:d.Decode.config ~output_base:d.Decode.output_base
    ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
    ~with_mem_digest st termination

(* ---- Region rollback ---- *)

type head = { h_block : int; h_dyn : int; h_time : int }

type prefix = {
  start : State.snapshot;
  head : head option;
  base : int -> State.snapshot option;
}

(* Region rollback on the compiled engine, with lazy checkpoints. The
   semantics are Simulator.run_recovering's, which eagerly copies the
   machine at every region head; here a head only records its (block,
   dyn, time) in [marks], and a rollback rebuilds the checkpoint state
   by re-execution:

   - every attempt after the first runs disarmed from the checkpoint it
     rolled back to, so all of them lie on one deterministic trajectory:
     armed from the run's start up to the first rollback's checkpoint
     (dyn d1), disarmed from there on. The checkpoint of any later
     rollback (dyn dk >= d1) is on that trajectory too;
   - a golden snapshot no later than both d1 and the trial's start is on
     it as well (the run is golden until its fault fires, which is after
     the start), so the rebuild restores the latest such snapshot (or a
     fresh machine), runs armed to the head at d1 and disarmed to the
     head at dk. That leaves exactly the State.t and entry register file
     the eager snapshot held — dyn names a head uniquely, since every
     block executes at least its terminator.

   A trial started from a golden snapshot ([prefix]) may fail before
   reaching a head of its own; its latest head is then the golden one
   at or before the start ([prefix.head]). [prefix.base dyn] must return
   the latest golden snapshot at or before [dyn] and never one after
   [prefix.start]. *)
let run_recovering ?fault ?(fuel = max_int) ?(with_mem_digest = false)
    ?prefix ~retry_budget (p : t) =
  let module M = Casted_obs.Metrics in
  let d = p.d in
  let config = d.Decode.config in
  let entry = p.cfuncs.(d.Decode.entry) in
  let blocks = entry.c_blocks in
  let marks = new_marks () in
  (* A machine at a block top of the entry function, and that block: a
     restored golden snapshot, or a fresh machine entering block 0. *)
  let load = function
    | Some (snap : State.snapshot) ->
        let st, fr = State.restore ~cache:config.Config.cache snap in
        let b = snap.State.block in
        if b < 0 || b >= Array.length blocks then invalid_arg oob;
        (st, fr, b)
    | None ->
        let st =
          State.fresh ~image:d.Decode.image ~cache:config.Config.cache
            ~perfect:false
        in
        (st, enter st entry, 0)
  in
  let run_to ~fault ~stop st fr cur =
    marks.stop_dyn <- stop;
    match exec_cblocks (make_cctx ~marks p ~fault ~fuel st) fr blocks cur with
    | exception Stop -> marks.stop_dyn <- max_int
    | exception e ->
        failwith
          ("Compile.run_recovering: checkpoint rebuild diverged: "
         ^ Printexc.to_string e)
    | () -> failwith "Compile.run_recovering: checkpoint rebuild diverged"
  in
  let first_block = ref (-1) and first_dyn = ref (-1) in
  let rebuild () =
    let tb = marks.mk_block and td = marks.mk_dyn and tt = marks.mk_time in
    if !first_dyn < 0 then begin
      first_block := tb;
      first_dyn := td
    end;
    let from = match prefix with Some pf -> pf.base !first_dyn | None -> None in
    let st, fr, cur = load from in
    if M.enabled () then begin
      M.incr "sim.rollback_rebuilds";
      M.incr
        ~by:(td - match from with Some s -> s.State.s_dyn | None -> 0)
        "sim.rollback_rebuild_insns"
    end;
    run_to ~fault ~stop:!first_dyn st fr cur;
    if td > !first_dyn then run_to ~fault:None ~stop:td st fr !first_block;
    marks.mk_block <- tb;
    marks.mk_dyn <- td;
    marks.mk_time <- tt;
    (st, fr, tb)
  in
  let wasted_cycles = ref 0 and wasted_dyn = ref 0 in
  let assemble st termination =
    let r =
      Runtime.fold_wasted ~config ~cycles:!wasted_cycles ~dyn:!wasted_dyn
        (Runtime.outcome ~config ~output_base:d.Decode.output_base
           ~output_len:d.Decode.output_len ~digest_len:d.Decode.digest_len
           ~with_mem_digest st termination)
    in
    Runtime.record_metrics r;
    r
  in
  let rec attempt ~retries st fr cur =
    let st_dyn0 = st.State.dyn in
    let c =
      make_cctx ~marks p ~fault:(if retries = 0 then fault else None) ~fuel st
    in
    let outcome =
      try
        exec_cblocks c fr blocks cur;
        Ok (Outcome.Exit 0)
      with
      | Runtime.Halted code ->
          Ok
            (if retries > 0 then
               Outcome.Recovered { exit_code = code; retries }
             else Outcome.Exit code)
      | Runtime.Out_of_fuel -> Ok Outcome.Timeout
      | Runtime.Check_failed id -> Error (Outcome.Detected id)
      | Trap.Trap tr -> Error (Outcome.Trapped tr)
    in
    match outcome with
    | Error termination when marks.mk_dyn >= 0 && retries < retry_budget ->
        let cycles = st.State.time - marks.mk_time in
        let dyn = st.State.dyn - marks.mk_dyn in
        if retries > 0 && marks.mk_dyn = st_dyn0 then begin
          (* A disarmed attempt that failed before passing a region head
             of its own would restart from the very state it started
             from: every remaining retry repeats it exactly, so fold
             them in without running them. *)
          let n = retry_budget - retries in
          wasted_cycles := !wasted_cycles + (n * cycles);
          wasted_dyn := !wasted_dyn + (n * dyn);
          M.incr ~by:n "sim.rollbacks";
          assemble st termination
        end
        else begin
          wasted_cycles := !wasted_cycles + cycles;
          wasted_dyn := !wasted_dyn + dyn;
          M.incr "sim.rollbacks";
          let st, fr, cur =
            Casted_obs.Trace.with_span ~cat:"sim" "sim.rollback.rebuild"
              rebuild
          in
          attempt ~retries:(retries + 1) st fr cur
        end
    | Ok termination | Error termination -> assemble st termination
  in
  let st, fr, cur = load (Option.map (fun pf -> pf.start) prefix) in
  (match prefix with
  | Some { head = Some h; _ } ->
      marks.mk_block <- h.h_block;
      marks.mk_dyn <- h.h_dyn;
      marks.mk_time <- h.h_time
  | Some { head = None; _ } | None -> ());
  if Option.is_some prefix && M.enabled () then M.incr "sim.replays";
  attempt ~retries:0 st fr cur
