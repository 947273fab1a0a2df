open Mbu_circuit
open Mbu_telemetry

(* Runtime instruments, registered at module init so no registry work ever
   lands inside a measured run. Counters stripe per domain, so the parallel
   shot runner bumps them contention-free; totals merge on read. *)
let m_runs = Telemetry.counter ~help:"Completed Sim.run executions" "mbu_sim_runs"

let m_run_seconds =
  Telemetry.histogram ~help:"Per-run wall-clock latency in seconds"
    "mbu_sim_run_seconds"

let m_gc_minor_words =
  Telemetry.counter ~help:"Minor-heap words allocated during runs"
    "mbu_sim_gc_minor_words"

let m_gc_major_words =
  Telemetry.counter ~help:"Major-heap words allocated during runs"
    "mbu_sim_gc_major_words"

let m_gates =
  Telemetry.counter ~help:"Program gates applied (injected faults excluded)"
    "mbu_sim_gates"

let m_measurements =
  Telemetry.counter ~help:"Measurements performed" "mbu_sim_measurements"

let m_branches =
  Telemetry.counter ~help:"If_bit branches evaluated" "mbu_sim_branches"

let m_branches_taken =
  Telemetry.counter ~help:"If_bit branches whose body executed"
    "mbu_sim_branches_taken"

let m_peak_terms =
  Telemetry.gauge
    ~help:"Sparse-state support size sampled at run start and measurements"
    "mbu_sim_peak_terms"

type run = {
  state : State.t;
  bits : bool array;
  executed : Counts.t;
  injected : int;
}

type event =
  | Gate_applied of Gate.t
  | Measured of { qubit : Gate.qubit; bit : int; outcome : bool }
  | Branch of { bit : int; value : bool; taken : bool }
  | Span_enter of { label : string; path : string list }
  | Span_exit of { label : string; path : string list }

type engine = Fast | Reference

(* Every [run] without [?rng] gets its own freshly seeded generator: a
   shared global would make results depend on how many unseeded runs
   happened earlier in the process (test execution order, REPL history). *)
let default_seed = [| 0x6d62755f; 0x51432025 |]
let fresh_rng () = Random.State.make default_seed

(* Deterministic per-shot split: shot [i] of a multi-shot run draws from a
   generator derived only from the caller's seed and the shot index, so the
   outcome of shot [i] does not depend on the other shots — which is what
   makes the parallel runner's output independent of [jobs]. *)
let shot_rng ~seed i = Random.State.make [| 0x6d62755f; 0x51432025; seed; i |]

let draw_outcome rng p1 =
  if p1 <= 1e-12 then false
  else if p1 >= 1.0 -. 1e-12 then true
  else Random.State.float rng 1.0 < p1

(* A fault plan resolved against the tape: the faults at each tape index,
   sorted by index (Paulis in plan order), and the flipped outcome bits. *)
type positional = { at : int; paulis : Gate.t list; count : int; skip : bool }

let resolve = function
  | [] -> ([||], [])
  | faults ->
      let tbl = Hashtbl.create 8 in
      let update pos f =
        Hashtbl.replace tbl pos
          (f
             (Option.value (Hashtbl.find_opt tbl pos)
                ~default:{ at = pos; paulis = []; count = 0; skip = false }))
      in
      let flips =
        List.filter_map
          (function
            | Fault.Pauli_after { pos; qubit; pauli } ->
                update pos (fun p ->
                    { p with paulis = p.paulis @ Fault.pauli_gates pauli qubit;
                             count = p.count + 1 });
                None
            | Fault.Skip_block { pos } ->
                update pos (fun p -> { p with skip = true });
                None
            | Fault.Flip_outcome { bit } -> Some bit)
          faults
      in
      let plan = Array.of_seq (Hashtbl.to_seq_values tbl) in
      Array.sort (fun a b -> compare a.at b.at) plan;
      (plan, flips)

let counts_of_tally t =
  { Counts.x = float_of_int t.(0);
    z = float_of_int t.(1);
    h = float_of_int t.(2);
    phase = float_of_int t.(3);
    cnot = float_of_int t.(4);
    cz = float_of_int t.(5);
    swap = float_of_int t.(6);
    toffoli = float_of_int t.(7);
    cphase = float_of_int t.(8);
    measure = float_of_int t.(9) }

(* One loop over the circuit's tape serves every engine and option. A
   plain run touches only the op array: fault, hook and budget work sits
   behind booleans computed once per run. *)
let run ?rng ?on_event ?(engine = Fast) ?force ?(faults = []) ?max_terms
    (c : Circuit.t) ~init =
  let rng = match rng with Some r -> r | None -> fresh_rng () in
  if State.num_qubits init < c.num_qubits then
    Mbu_error.invalid ~subsystem:"Sim.run" "state narrower than circuit";
  let tape = Circuit.tape c in
  let n = Tape.length tape in
  let bits = Array.make (max c.num_bits 1) false in
  (* Executed ops per Tape kind code; gates first, measurements at 9. *)
  let tally = Array.make 10 0 in
  (* The runner owns a private copy, so [Fast] can mutate it in place. *)
  let fast = engine = Fast in
  let state = ref (State.copy init) in
  let apply_gate g =
    if fast then State.apply_gate_inplace !state g
    else state := State.Reference.apply_gate !state g
  in
  let plan, flips = resolve faults in
  let has_plan = Array.length plan > 0 in
  let next = ref 0 in
  (* Index into [plan] of the faults at tape index [i], or -1. Execution
     only moves forward, so faults behind [i] can never fire again. *)
  let fault_at i =
    while !next < Array.length plan && plan.(!next).at < i do incr next done;
    if !next < Array.length plan && plan.(!next).at = i then !next else -1
  in
  let injected = ref 0 in
  (* Hoist the hook check out of the loop: without a hook every event site
     is one always-false branch and no event block is allocated. *)
  let hooked, emit =
    match on_event with Some f -> (true, f) | None -> (false, ignore)
  in
  let budgeted, limit =
    match max_terms with Some l -> (true, l) | None -> (false, max_int)
  in
  (* Span paths come from the tape's event table, read only by hooked or
     budgeted runs; [ev] is the next span event, [rpath] the open spans,
     innermost first. *)
  let spans = if hooked || budgeted then Tape.span_events tape else [||] in
  let tracked = Array.length spans > 0 in
  let ev = ref 0 and rpath = ref [] in
  let spans_before i =
    while !ev < Array.length spans && spans.(!ev).Tape.at <= i do
      let e = spans.(!ev) in
      if hooked then begin
        let label = List.hd e.rpath and path = List.rev e.rpath in
        emit
          (if e.enter then Span_enter { label; path }
           else Span_exit { label; path })
      end;
      rpath := if e.enter then e.rpath else List.tl e.rpath;
      incr ev
    done
  in
  let t_start = Telemetry.now () in
  let minor0, _, major0 = Gc.counters () in
  let branches = ref 0 and branches_taken = ref 0 in
  let peak_terms = ref (State.support_size !state) in
  let pc = ref 0 in
  while !pc < n do
    let i = !pc in
    let op = Tape.op tape i in
    if tracked then spans_before i;
    pc := i + 1;
    match Tape.kind op with
    | Tape.Measure ->
        let qubit = Tape.q0 op and bit = Tape.measure_bit op in
        (* Support size peaks just before a measurement collapses the
           state, so sampling here catches the run's high-water without a
           per-gate probe. *)
        let terms = State.support_size !state in
        if terms > !peak_terms then peak_terms := terms;
        let p1 = State.prob_bit_one !state qubit in
        let forced = match force with Some f -> f bit | None -> None in
        let outcome =
          match forced with
          | Some v ->
              if (if v then p1 <= 1e-12 else p1 >= 1.0 -. 1e-12) then
                Mbu_error.invalid ~subsystem:"Sim.run" ~qubit ~bit
                  ~path:(List.rev !rpath)
                  (Printf.sprintf "forced outcome %b has probability zero" v);
              v
          | None -> draw_outcome rng p1
        in
        if fast then State.project_inplace !state ~qubit ~value:outcome
        else state := State.Reference.project !state ~qubit ~value:outcome;
        let recorded =
          if flips <> [] && List.mem bit flips then begin
            incr injected;
            not outcome
          end
          else outcome
        in
        bits.(bit) <- recorded;
        (* Reset is an X conditioned on the *recorded* outcome, so a
           misread fault leaves the qubit physically wrong — exactly the
           failure mode the campaigns probe. *)
        if Tape.measure_reset op && recorded then
          if not outcome then apply_gate (Gate.X qubit)
          else if fast then State.set_bit_zero_inplace !state ~qubit
          else state := State.Reference.set_bit_zero !state ~qubit;
        tally.(9) <- tally.(9) + 1;
        if hooked then emit (Measured { qubit; bit; outcome = recorded })
    | Tape.If_bit ->
        let bit = Tape.if_bit op and value = Tape.if_value op in
        let taken = bits.(bit) = value in
        let taken =
          if has_plan && (let f = fault_at i in f >= 0 && plan.(f).skip)
          then begin
            if taken then incr injected;
            false
          end
          else taken
        in
        incr branches;
        if taken then incr branches_taken;
        if hooked then emit (Branch { bit; value; taken });
        if not taken then begin
          let stop = i + 1 + Tape.if_skip op in
          (* Span events inside the skipped body never fire. *)
          if tracked then
            while
              !ev < Array.length spans
              && spans.(!ev).Tape.guard >= i
              && spans.(!ev).Tape.guard < stop
            do
              incr ev
            done;
          pc := stop
        end
    | k ->
        let s = !state in
        (if not fast then state := State.Reference.apply_gate s (Tape.gate tape op)
         else
           match k with
           | Tape.X -> State.x s (Tape.q0 op)
           | Tape.Z -> State.z s (Tape.q0 op)
           | Tape.H -> State.h s (Tape.q0 op)
           | Tape.Phase -> State.phase s (Tape.q0 op) (Tape.phase tape op)
           | Tape.Cnot -> State.cnot s (Tape.q0 op) (Tape.q1 op)
           | Tape.Cz -> State.cz s (Tape.q0 op) (Tape.q1 op)
           | Tape.Swap -> State.swap s (Tape.q0 op) (Tape.q1 op)
           | Tape.Toffoli -> State.toffoli s (Tape.q0 op) (Tape.q1 op) (Tape.q2 op)
           | Tape.Cphase ->
               State.cphase s (Tape.q0 op) (Tape.q1 op) (Tape.phase tape op)
           | Tape.Measure | Tape.If_bit -> assert false);
        let kc = Tape.code k in
        tally.(kc) <- tally.(kc) + 1;
        if hooked then emit (Gate_applied (Tape.gate tape op));
        (if has_plan then
           let f = fault_at i in
           if f >= 0 then begin
             (* Injected Paulis are faults, not program gates: applied
                through the engine but never tallied. *)
             List.iter apply_gate plan.(f).paulis;
             injected := !injected + plan.(f).count
           end);
        if budgeted then begin
          let actual = State.support_size !state in
          if actual > limit then
            Mbu_error.resource_limit ~path:(List.rev !rpath) ~limit ~actual
              ~subsystem:"Sim.run" "sparse state exceeds the term budget"
        end
  done;
  if tracked then spans_before n;
  (* Per-run telemetry lands once per run, not per op. [Gc.counters] reads
     the calling domain's allocation counters, so a shot's delta is its
     own allocation even under the parallel runner. *)
  Telemetry.incr m_runs;
  Telemetry.observe m_run_seconds (Telemetry.now () -. t_start);
  let minor1, _, major1 = Gc.counters () in
  Telemetry.add m_gc_minor_words (max 0 (int_of_float (minor1 -. minor0)));
  Telemetry.add m_gc_major_words (max 0 (int_of_float (major1 -. major0)));
  Telemetry.add m_gates (Array.fold_left ( + ) 0 tally - tally.(9));
  Telemetry.add m_measurements tally.(9);
  Telemetry.add m_branches !branches;
  Telemetry.add m_branches_taken !branches_taken;
  Telemetry.observe_max m_peak_terms !peak_terms;
  { state = !state; bits; executed = counts_of_tally tally;
    injected = !injected }

let init_registers ~num_qubits assignments =
  let idx = ref 0 in
  List.iter
    (fun (reg, v) ->
      let n = Register.length reg in
      (* [v lsr n] instead of [v >= 1 lsl n]: the latter overflows for wide
         registers, and the seed guard silently skipped validation whenever
         [n >= 62]. Shifts of [Sys.int_size] or more are unspecified, but a
         register that wide holds any non-negative int. *)
      if v < 0 || (n < Sys.int_size && v lsr n <> 0) then
        Mbu_error.invalid ~subsystem:"Sim.init_registers"
          ~register:(Register.name reg)
          (Printf.sprintf "%d does not fit %s" v (Register.name reg));
      for i = 0 to n - 1 do
        if (v lsr i) land 1 = 1 then idx := !idx lor (1 lsl Register.get reg i)
      done)
    assignments;
  State.basis ~num_qubits !idx

let run_builder ?rng ?on_event ?engine ?force ?faults ?max_terms b ~inits =
  let c = Builder.to_circuit b in
  let init = init_registers ~num_qubits:(Builder.num_qubits b) inits in
  run ?rng ?on_event ?engine ?force ?faults ?max_terms c ~init

(* ------------------------------------------------------------------ *)
(* Aggregate branch / outcome statistics over Monte-Carlo runs *)

type stats = {
  mutable runs : int;
  branch : (int, int * int) Hashtbl.t;  (* bit -> taken, seen *)
  outcome : (int, int * int) Hashtbl.t;  (* bit -> ones, measured *)
}

let new_stats () = { runs = 0; branch = Hashtbl.create 16; outcome = Hashtbl.create 16 }

let bump tbl key hit =
  let a, b = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
  Hashtbl.replace tbl key ((if hit then a + 1 else a), b + 1)

let stats_hook st = function
  | Branch { bit; taken; _ } -> bump st.branch bit taken
  | Measured { bit; outcome; _ } -> bump st.outcome bit outcome
  | Gate_applied _ | Span_enter _ | Span_exit _ -> ()

let record_run st = st.runs <- st.runs + 1
let runs st = st.runs

let merge_stats ~into src =
  into.runs <- into.runs + src.runs;
  let merge dst tbl =
    Hashtbl.iter
      (fun k (a, b) ->
        let a0, b0 = Option.value (Hashtbl.find_opt dst k) ~default:(0, 0) in
        Hashtbl.replace dst k (a0 + a, b0 + b))
      tbl
  in
  merge into.branch src.branch;
  merge into.outcome src.outcome

let freq = function
  | _, 0 -> None
  | taken, seen -> Some (float_of_int taken /. float_of_int seen)

let bit_taken_frequency st bit =
  Option.bind (Hashtbl.find_opt st.branch bit) (fun c -> freq c)

let taken_frequency st =
  let taken, seen =
    Hashtbl.fold (fun _ (t, s) (at, as_) -> (at + t, as_ + s)) st.branch (0, 0)
  in
  freq (taken, seen)

let measured_one_frequency st bit =
  Option.bind (Hashtbl.find_opt st.outcome bit) (fun c -> freq c)

let branch_bits st = Hashtbl.fold (fun k _ acc -> k :: acc) st.branch [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Parallel multi-shot runner *)

let default_jobs = Parallel.default_jobs
let parallel_backend = Parallel.backend

let run_shots ?(seed = 0) ?jobs ?stats ?(engine = Fast) ?force ?faults
    ?max_terms ~shots c ~init =
  if shots < 0 then
    Mbu_error.invalid ~subsystem:"Sim.run_shots" "negative shot count";
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
  in
  let collect = Option.is_some stats in
  let shot i =
    let rng = shot_rng ~seed i in
    if collect then begin
      let st = new_stats () in
      let r =
        run ~rng ~on_event:(stats_hook st) ~engine ?force ?faults ?max_terms c
          ~init
      in
      record_run st;
      (r, Some st)
    end
    else (run ~rng ~engine ?force ?faults ?max_terms c ~init, None)
  in
  let results = Parallel.map_tasks ~jobs ~tasks:shots shot in
  (match stats with
  | Some acc ->
      Array.iter
        (fun (_, st) -> Option.iter (fun st -> merge_stats ~into:acc st) st)
        results
  | None -> ());
  Array.map fst results

let run_shots_builder ?seed ?jobs ?stats ?engine ?force ?faults ?max_terms
    ~shots b ~inits =
  let c = Builder.to_circuit b in
  let init = init_registers ~num_qubits:(Builder.num_qubits b) inits in
  run_shots ?seed ?jobs ?stats ?engine ?force ?faults ?max_terms ~shots c ~init

let register_value state reg =
  (* Accumulate from the MSB down so bit i lands at weight 2^i. *)
  let rec from_msb acc i =
    if i < 0 then Some acc
    else
      match State.bit_value state (Register.get reg i) with
      | Some b -> from_msb ((acc lsl 1) lor (if b then 1 else 0)) (i - 1)
      | None -> None
  in
  from_msb 0 (Register.length reg - 1)

let register_value_exn state reg =
  match register_value state reg with
  | Some v -> v
  | None ->
      Mbu_error.invalid ~subsystem:"Sim.register_value_exn"
        ~register:(Register.name reg)
        (Printf.sprintf "%s is in superposition" (Register.name reg))

let wires_zero state ~except =
  let marked = Hashtbl.create 64 in
  List.iter
    (fun r -> Array.iter (fun q -> Hashtbl.replace marked q ()) (Register.qubits r))
    except;
  let n = State.num_qubits state in
  let rec check q =
    if q >= n then true
    else if Hashtbl.mem marked q then check (q + 1)
    else
      match State.bit_value state q with
      | Some false -> check (q + 1)
      | Some true | None -> false
  in
  check 0

(* Sample one register value from a final state, consuming the given rng.
   Mutates [state] (the caller passes a run-private state). *)
let measure_register rng state reg =
  let v = ref 0 in
  for i = Register.length reg - 1 downto 0 do
    let q = Register.get reg i in
    let p1 = State.prob_bit_one state q in
    let bit = draw_outcome rng p1 in
    State.project_inplace state ~qubit:q ~value:bit;
    v := (!v lsl 1) lor (if bit then 1 else 0)
  done;
  !v

let tally_of_values values =
  let tally = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Hashtbl.replace tally v
        (1 + Option.value (Hashtbl.find_opt tally v) ~default:0))
    values;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (va, a) (vb, b) ->
         if a <> b then compare b a else compare va vb)

let sample_register ?rng ?(seed = 0) ?jobs ~shots c ~init reg =
  match rng with
  | Some rng ->
      (* Legacy sequential path: a caller-supplied generator is shared
         across shots, so the shots must run in order on one thread. *)
      let values = Array.make shots 0 in
      for i = 0 to shots - 1 do
        let r = run ~rng c ~init in
        values.(i) <- measure_register rng r.state reg
      done;
      tally_of_values values
  | None ->
      let jobs =
        match jobs with Some j -> max 1 j | None -> Parallel.default_jobs ()
      in
      let values =
        Parallel.map_tasks ~jobs ~tasks:shots (fun i ->
            let rng = shot_rng ~seed i in
            let r = run ~rng c ~init in
            measure_register rng r.state reg)
      in
      tally_of_values values

let unitary_column (c : Circuit.t) j =
  if not (Circuit.is_unitary c) then
    invalid_arg "Sim.unitary_column: circuit contains measurements";
  (run c ~init:(State.basis ~num_qubits:c.Circuit.num_qubits j)).state

let circuits_equal_unitary ?dim_qubits a b =
  let n =
    match dim_qubits with
    | Some n -> n
    | None -> max a.Circuit.num_qubits b.Circuit.num_qubits
  in
  if n > 12 then invalid_arg "Sim.circuits_equal_unitary: too wide";
  let widen (c : Circuit.t) =
    Circuit.make ~num_qubits:n ~num_bits:c.Circuit.num_bits c.Circuit.instrs
  in
  let a = widen a and b = widen b in
  (* Columns must match up to a single global phase shared across all
     columns. Compare the relative phase of each column against column 0 by
     checking U_a |+...+> against U_b |+...+> as well as each basis state. *)
  let dim = 1 lsl n in
  let col_ok = ref true in
  for j = 0 to dim - 1 do
    if State.fidelity (unitary_column a j) (unitary_column b j) < 1. -. 1e-9 then
      col_ok := false
  done;
  (* catching relative-phase differences between columns: feed the uniform
     superposition through both *)
  let uniform =
    let amp : Complex.t = { re = 1.0 /. sqrt (float_of_int dim); im = 0.0 } in
    State.of_alist ~num_qubits:n (List.init dim (fun j -> (j, amp)))
  in
  let through (c : Circuit.t) = (run c ~init:uniform).state in
  !col_ok && State.fidelity (through a) (through b) > 1. -. 1e-9
