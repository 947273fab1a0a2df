(* Execute-path workloads.

   montecarlo-ripple  the five ripple rows of table 1, MBU on. Per pass and
                      row: a seeded random input pair, one Sim.run_shots
                      batch of 64 shots at jobs = nproc, then 64 sequential
                      Sim.run shots timed one by one. One operation is one
                      shot.
   faults-catalogue   every Catalogue.all family at n = 5. Per pass and
                      family: Engine.check_forced_branches, then a seeded
                      Random campaign (64 runs, one fault each) at
                      jobs = nproc and the same campaign at jobs = 1 timed
                      run by run. One operation is one fault run. *)

open Mbu_circuit
open Mbu_simulator
open Mbu_robustness

let shots = 64
let campaign_runs = 64

let spec_of ~family ~n ~p =
  match Catalogue.find family with
  | Some e -> e.Catalogue.make ~n ~p
  | None -> failwith ("the catalogue has no family " ^ family)

(* ------------------------------------------------------------------ *)
(* Kernel floor: a shot's executed gates and projections, replayed through
   State's in-place functions. *)

type replay_op = Apply of Gate.t | Project of { qubit : int; value : bool; reset : bool }

(* Which measurement bits reset their qubit. *)
let resets (c : Circuit.t) =
  let tbl = Hashtbl.create 16 in
  let rec walk = function
    | Instr.Measure { bit; reset; _ } -> Hashtbl.replace tbl bit reset
    | Instr.If_bit { body; _ } | Instr.Span { body; _ } -> List.iter walk body
    | Instr.Call node -> List.iter walk node.Instr.body
    | Instr.Gate _ -> ()
  in
  List.iter walk c.Circuit.instrs;
  tbl

(* Run one shot with the event hook and return its replay tape plus the
   (taken, seen) conditional tallies. *)
let record c ~init ~rng =
  let resets = resets c in
  let tape = ref [] and taken = ref 0 and seen = ref 0 in
  let on_event = function
    | Sim.Gate_applied g -> tape := Apply g :: !tape
    | Sim.Measured { qubit; bit; outcome } ->
        tape :=
          Project { qubit; value = outcome; reset = Option.value ~default:false (Hashtbl.find_opt resets bit) }
          :: !tape
    | Sim.Branch { taken = t; _ } ->
        incr seen;
        if t then incr taken
    | Sim.Span_enter _ | Sim.Span_exit _ -> ()
  in
  ignore (Sim.run ~rng ~on_event c ~init);
  (Array.of_list (List.rev !tape), !taken, !seen)

(* Replay the tape; [peak] receives the largest support seen. *)
let replay ?peak tape ~init =
  let s = State.copy init in
  Array.iter
    (fun op ->
      (match op with
      | Apply g -> State.apply_gate_inplace s g
      | Project { qubit; value; reset } ->
          State.project_inplace s ~qubit ~value;
          if reset && value then State.set_bit_zero_inplace s ~qubit);
      match peak with Some r -> r := max !r (State.support_size s) | None -> ())
    tape

(* ------------------------------------------------------------------ *)

type row = { name : string; circuit : Circuit.t; p : int; x : Register.t; y : Register.t }

let build_rows (ctx : Util.ctx) i =
  let rng = Util.rng ~seed:ctx.seed "montecarlo.setup" i in
  List.map
    (fun (name, n) ->
      let p = Util.odd_modulus rng n in
      let spec = spec_of ~family:name ~n ~p in
      match spec.Engine.keep with
      | [ x; y ] -> { name; circuit = spec.Engine.circuit; p; x; y }
      | _ -> failwith (name ^ ": expected the (x, y) register pair"))
    Metrics.sim_rows

(* Per-row accumulators. *)
type row_stats = {
  replay_us : Util.Samples.t;
  gates : Util.Samples.t;
  mutable peak_terms : int;
}

let montecarlo (ctx : Util.ctx) =
  let nrows = List.length Metrics.sim_rows in
  let seq_time = ref 0. and seq_shots = ref 0 and par_time = ref 0. and par_shots = ref 0 in
  let fanout_us = Util.Samples.create () and minor_words = Util.Samples.create () in
  let taken = ref 0 and seen = ref 0 in
  let stats =
    List.map
      (fun (name, _) ->
        (name, { replay_us = Util.Samples.create (); gates = Util.Samples.create (); peak_terms = 0 }))
      Metrics.sim_rows
  in
  let check_runs r ~xv ~yv runs =
    let want_y = Util.reference ctx ((xv + yv) mod r.p) in
    Array.iter
      (fun (run : Sim.run) ->
        let st = run.Sim.state in
        Util.Checks.check ctx.checks
          (Sim.register_value st r.y = Some want_y
          && Sim.register_value st r.x = Some xv
          && Sim.wires_zero st ~except:[ r.x; r.y ])
          (fun () -> Printf.sprintf "%s: x=%d y=%d p=%d: wrong sum or dirty ancilla" r.name xv yv r.p))
      runs
  in
  (* Traced run only, outside the pass: the same row and inputs as one
     Sim.run_shots batch fanned out over jobs = nproc, and the kernel-floor
     replay. *)
  let fan_out r ~idx ~init ~xv ~yv ~t_row seq =
    let st = List.assoc r.name stats in
    let seed = Random.State.bits (Util.rng ~seed:ctx.seed "montecarlo.batch" idx) in
    let t0 = Util.now () in
    let par =
      Tracer.with_span ~op:(Tracer.new_op ()) "fanout" (fun () ->
          Tracer.with_span ("sim.run_shots." ^ r.name) (fun () ->
              Sim.run_shots ~seed ~jobs:ctx.jobs ~shots r.circuit ~init))
    in
    let t_par = Util.now () -. t0 in
    par_time := !par_time +. t_par;
    par_shots := !par_shots + shots;
    seq_time := !seq_time +. t_row;
    seq_shots := !seq_shots + shots;
    Util.Samples.add fanout_us ((t_par -. (t_row /. float_of_int ctx.jobs)) *. 1e6);
    check_runs r ~xv ~yv par;
    Array.iter (fun (run : Sim.run) -> Util.Samples.add st.gates (Counts.total_gates run.Sim.executed)) seq;
    let tape, t, s = record r.circuit ~init ~rng:(Util.rng ~seed:ctx.seed "montecarlo.shot" (idx * shots)) in
    taken := !taken + t;
    seen := !seen + s;
    let peak = ref 0 in
    replay ~peak tape ~init;
    st.peak_terms <- max st.peak_terms !peak;
    for _ = 1 to 16 do
      let (), dt = Util.time (fun () -> replay tape ~init) in
      Util.Samples.add st.replay_us (dt *. 1e6)
    done
  in
  let pass rows i =
    let traced = !Tracer.enabled in
    let after =
      List.mapi
        (fun k r ->
          let idx = (i * nrows) + k in
          let rng = Util.rng ~seed:ctx.seed "montecarlo.inputs" idx in
          let xv = Random.State.int rng r.p and yv = Random.State.int rng r.p in
          let init =
            Tracer.with_span ~op:(Tracer.new_op ()) "sim.init_registers" (fun () ->
                Sim.init_registers ~num_qubits:r.circuit.Circuit.num_qubits [ (r.x, xv); (r.y, yv) ])
          in
          let rngs =
            Array.init shots (fun s -> Util.rng ~seed:ctx.seed "montecarlo.shot" ((idx * shots) + s))
          in
          let w0 = Gc.minor_words () in
          let t_row = ref 0. in
          let seq =
            Array.map
              (fun rng ->
                let t0 = Util.now () in
                let run =
                  Tracer.with_span ~op:(Tracer.new_op ()) ("sim.run." ^ r.name) (fun () ->
                      Sim.run ~rng r.circuit ~init)
                in
                let dt = Util.now () -. t0 in
                t_row := !t_row +. dt;
                Phases.op ~kind:r.name dt;
                run)
              rngs
          in
          Util.Samples.add minor_words ((Gc.minor_words () -. w0) /. float_of_int shots);
          fun () ->
            check_runs r ~xv ~yv seq;
            if traced then fan_out r ~idx ~init ~xv ~yv ~t_row:!t_row seq)
        rows
    in
    fun () -> List.iter (fun f -> f ()) after
  in
  let ph = Phases.run ctx ~reps:9 ~setup:(build_rows ctx) pass in
  if not ctx.trace then Phases.end_to_end ph
  else begin
    let sm = Tracer.summarize () in
    let us name = Util.median (Tracer.samples sm name) *. 1e6 in
    let per_row =
      List.concat_map
        (fun (name, st) ->
          let run = us ("sim.run." ^ name) and rep = Util.median (Util.Samples.to_array st.replay_us) in
          [ ("sim.run_us." ^ name, run); ("state.replay_us." ^ name, rep);
            ("sim.dispatch_us." ^ name, run -. rep);
            ("sim.gates_per_shot." ^ name,
             Util.sum (Util.Samples.to_array st.gates) /. float_of_int (Util.Samples.length st.gates));
            ("sim.peak_terms." ^ name, float_of_int st.peak_terms) ])
        stats
    in
    let par_speed = float_of_int !par_shots /. !par_time in
    per_row
    @ [ ("sim.branch_taken_ratio", float_of_int !taken /. float_of_int (max 1 !seen));
        ("parallel.shots_per_s", par_speed);
        ("parallel.speedup", par_speed /. (float_of_int !seq_shots /. !seq_time));
        ("parallel.fanout_us", Util.median (Util.Samples.to_array fanout_us));
        ("gc.minor_words_per_shot", Util.median (Util.Samples.to_array minor_words));
        ("sim.init_registers_us", us "sim.init_registers") ]
    @ Phases.common_layers ph sm
  end

(* ------------------------------------------------------------------ *)

(* Set-up builds each family at every odd 5-bit modulus; each pass then
   draws one per family from the seeded stream, so a run covers the moduli
   evenly whatever its seed. *)
let faults (ctx : Util.ctx) =
  let n = 5 in
  let moduli = List.init (1 lsl (n - 2)) (fun j -> (1 lsl (n - 1)) + (2 * j) + 1) in
  let setup _ =
    List.map
      (fun family -> (family, Array.of_list (List.map (fun p -> spec_of ~family ~n ~p) moduli)))
      Metrics.families
  in
  let nfam = List.length Metrics.families in
  let plan = Engine.Random { runs = campaign_runs; faults_per_run = 1 } in
  let minor_words = Util.Samples.create () in
  let first = Hashtbl.create 8 and fan_runs_per_s = Hashtbl.create 8 in
  let stamps = Array.make (campaign_runs + 1) 0. in
  let split (r : Engine.result) =
    r.Engine.runs = Util.reference ctx campaign_runs
    && r.Engine.correct + r.Engine.detected + r.Engine.silent = r.Engine.runs
  in
  (* Traced run only, outside the pass: the same campaign fanned out over
     jobs = nproc, which must classify every run the same way. *)
  let fan_out family spec ~seed (seq : Engine.result) =
    let t0 = Util.now () in
    let par =
      Tracer.with_span ~op:(Tracer.new_op ()) "fanout" (fun () ->
          Tracer.with_span ("engine.run_campaign." ^ family ^ ".fanout") (fun () ->
              Engine.run_campaign ~seed ~jobs:ctx.jobs ~plan spec))
    in
    let dt = Util.now () -. t0 in
    Util.Samples.add_keyed fan_runs_per_s family (float_of_int par.Engine.runs /. dt);
    Util.Checks.check ctx.checks (split par) (fun () -> family ^ ": fanned-out campaign runs do not split");
    Util.Checks.check ctx.checks
      (par.Engine.correct = seq.Engine.correct && par.Engine.detected = seq.Engine.detected
     && par.Engine.silent = seq.Engine.silent)
      (fun () -> family ^ ": campaign outcome depends on jobs")
  in
  let pass pool i =
    let traced = !Tracer.enabled in
    let after =
      List.mapi
        (fun k (family, specs) ->
          let op = Tracer.new_op () in
          let rng = Util.rng ~seed:ctx.seed "faults.campaign" ((i * nfam) + k) in
          let spec = specs.(Random.State.int rng (Array.length specs)) in
          let seed = Random.State.bits rng in
          let cov =
            Tracer.with_span ~op ("engine.check_forced_branches." ^ family) (fun () ->
                Engine.check_forced_branches spec)
          in
          let w0 = Gc.minor_words () in
          let on_progress ~completed ~total:_ = stamps.(completed) <- Util.now () in
          let seq =
            Tracer.with_span ~op ("engine.run_campaign." ^ family) (fun () ->
                Engine.run_campaign ~seed ~jobs:1 ~on_progress ~plan spec)
          in
          Util.Samples.add minor_words ((Gc.minor_words () -. w0) /. float_of_int campaign_runs);
          (* Run 1's interval also holds the campaign's baseline check. *)
          for r = 2 to campaign_runs do
            Phases.op ~kind:family (stamps.(r) -. stamps.(r - 1))
          done;
          if i = 0 then Hashtbl.replace first family seq;
          fun () ->
            Util.Checks.check ctx.checks (Engine.covered cov) (fun () ->
                family ^ ": a forced branch arm is uncovered or misclassified");
            Util.Checks.check ctx.checks (split seq) (fun () -> family ^ ": campaign runs do not split");
            if traced then fan_out family spec ~seed seq)
        pool
    in
    fun () -> List.iter (fun f -> f ()) after
  in
  let ph = Phases.run ctx ~reps:9 ~setup pass in
  if not ctx.trace then Phases.end_to_end ph
  else begin
    let sm = Tracer.summarize () in
    let med name = Util.median (Tracer.samples sm name) in
    List.concat_map
      (fun family ->
        let r : Engine.result = Hashtbl.find first family in
        [ ("engine.run_campaign_s." ^ family, med ("engine.run_campaign." ^ family));
          ("engine.runs_per_s." ^ family,
           Util.median (Util.Samples.to_array (Hashtbl.find fan_runs_per_s family)));
          ("engine.check_forced_branches_s." ^ family, med ("engine.check_forced_branches." ^ family));
          ("fault.sites." ^ family, float_of_int r.Engine.sites);
          ("engine.correct." ^ family, float_of_int r.Engine.correct);
          ("engine.detected." ^ family, float_of_int r.Engine.detected);
          ("engine.silent." ^ family, float_of_int r.Engine.silent) ])
      Metrics.families
    @ [ ("gc.minor_words_per_run", Util.median (Util.Samples.to_array minor_words)) ]
    @ Phases.common_layers ph sm
  end
