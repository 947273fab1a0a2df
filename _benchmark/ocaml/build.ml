(* Build-path workloads: build and fully analyse a set of circuits per
   pass.

   table1-2048   Table-1 ripple modular adders at n = 2048 (Mod_add.modadd_big),
                 CDKPM / Gidney / CDKPM+Gidney, MBU off and on.
   modexp-shared Mod_mul.modexp with the ripple CDKPM engine at n = 16 and a
                 2-bit exponent, MBU off and on.

   One operation is one circuit: emit, to_circuit, Counts, Depth and
   Trace.profile under the paper's cost model (Expected 0.5). Each pass
   draws fresh constants so the process-global intern table cannot turn
   later passes into cache hits a user building once never gets. *)

open Mbu_circuit
open Mbu_core
module Bits = Mbu_bitstring.Bitstring

type job = {
  label : string;
  emit : Builder.t -> unit;
  toffoli : float;  (** closed-form expected Toffoli count (the reference) *)
}

(* Closed forms written down here, not taken from the library: the leading
   coefficients of propositions 3.4-3.6 / theorems 4.3-4.5 (8n/7n, 4n/3.5n,
   6n/5.5n) plus an O(1) term pinned for this construction. *)
let table1_set ~n ~p =
  let nf = float_of_int n in
  List.concat_map
    (fun (name, spec, off, on, const) ->
      List.map
        (fun mbu ->
          { label = Printf.sprintf "%s%s" name (if mbu then "+mbu" else "");
            emit =
              (fun b ->
                let x = Builder.fresh_register b "x" n in
                let y = Builder.fresh_register b "y" n in
                Mod_add.modadd_big ~mbu spec b ~p ~x ~y);
            toffoli = ((if mbu then on else off) *. nf) +. const })
        [ false; true ])
    [ ("cdkpm", Mod_add.spec_cdkpm, 8., 7., 2.);
      ("gidney", Mod_add.spec_gidney, 4., 3.5, 1.);
      ("mixed", Mod_add.spec_mixed, 6., 5.5, 2.) ]

let big_modulus rng n = Bits.init n (fun i -> i = 0 || i = n - 1 || Random.State.bool rng)

(* Modexp closed form from per-adder costs times ladder length: each of the
   m exponent bits runs one controlled in-place multiplication = two
   n-adder ladders plus an n-Toffoli controlled swap. Each ladder step is a
   logical-AND (1 Toffoli to compute, 0 to uncompute by measurement) and a
   controlled constant modular adder of a n + 2 Toffoli (a = 8, or 7 with
   MBU). *)
let modexp_set ~n ~m ~p ~a =
  List.map
    (fun mbu ->
      let coeff = if mbu then 7 else 8 in
      { label = Printf.sprintf "modexp%s" (if mbu then "+mbu" else "");
        emit =
          (fun b ->
            let e = Builder.fresh_register b "e" m in
            let x = Builder.fresh_register b "x" n in
            Mod_mul.modexp (Mod_mul.ripple_engine ~mbu Mod_add.spec_cdkpm) b ~a ~p ~e ~x);
        toffoli = float_of_int (m * n * ((2 * ((coeff * n) + 3)) + 1)) })
    [ false; true ]

(* A prime n-bit modulus, so every base is invertible and the ladder's
   constants a^(2^j) rarely repeat: how much the DAG shares is then a
   property of the construction, not of the draw. *)
let modexp_constants rng n =
  let is_prime p =
    let rec go d = d * d > p || (p mod d <> 0 && go (d + 2)) in
    p > 2 && p land 1 = 1 && go 3
  in
  let rec prime () =
    let p = Util.odd_modulus rng n in
    if is_prime p then p else prime ()
  in
  let p = prime () in
  (p, 2 + Random.State.int rng (p - 3))

let counter name = Mbu_telemetry.Telemetry.(counter_value (counter name))

(* What one operation leaves for the checks and the per-layer metrics. *)
type result = {
  job : job;
  counted : float;  (** Counts.of_instrs Toffoli *)
  profiled : float;  (** Trace.profile root cumulative Toffoli *)
  expanded : int;
  nodes : int;
  interned : int;
  allocated : int;
}

let run_job job =
  let op = Tracer.new_op () in
  let nodes0 = Instr.shared_nodes () in
  let hit0 = counter "mbu_builder_nodes_interned"
  and miss0 = counter "mbu_builder_nodes_allocated" in
  let t0 = Util.now () in
  let b = Builder.create () in
  Tracer.with_span ~op "builder.emit" (fun () -> job.emit b);
  let c = Tracer.with_span ~op "builder.to_circuit" (fun () -> Builder.to_circuit b) in
  let instrs = c.Circuit.instrs in
  let mode = Counts.Expected 0.5 in
  let counts = Tracer.with_span ~op "counts.of_instrs" (fun () -> Counts.of_instrs ~mode instrs) in
  ignore
    (Tracer.with_span ~op "depth.of_instrs" (fun () -> Depth.of_instrs ~mode:(`Expected 0.5) instrs));
  let prof = Tracer.with_span ~op "trace.profile" (fun () -> Trace.profile ~mode instrs) in
  Phases.op ~kind:job.label (Util.now () -. t0);
  Phases.at_peak ();
  { job; counted = counts.Counts.toffoli; profiled = prof.Trace.cum.Counts.toffoli;
    expanded = Instr.count_instrs instrs;
    nodes = Instr.shared_nodes () - nodes0;
    interned = counter "mbu_builder_nodes_interned" - hit0;
    allocated = counter "mbu_builder_nodes_allocated" - miss0 }

let check (ctx : Util.ctx) results =
  let checks = ctx.checks in
  List.iter
    (fun r ->
      let want = Util.reference_f ctx r.job.toffoli in
      Util.Checks.check checks (r.counted = want) (fun () ->
          Printf.sprintf "%s: Counts Toffoli %.1f, closed form %.1f" r.job.label r.counted want);
      Util.Checks.check checks (r.profiled = want) (fun () ->
          Printf.sprintf "%s: Trace.profile Toffoli %.1f, closed form %.1f" r.job.label
            r.profiled want))
    results;
  (* MBU must save Toffolis: results come in (off, on) pairs. *)
  let rec pairs = function
    | off :: on :: rest ->
        Util.Checks.check checks
          (off.counted -. on.counted > Util.reference_f ctx 0.)
          (fun () -> Printf.sprintf "%s: no MBU Toffoli saving" off.job.label);
        pairs rest
    | _ -> ()
  in
  pairs results

(* [jobs_for_pass rng] draws a pass's constants; [setup_jobs rng] the
   reduced-width set the set-up runs. Returns the metrics of the run. *)
let run (ctx : Util.ctx) ~name ~jobs_for_pass ~setup_jobs =
  (* Set-up: seeded inputs and one reduced-width pass through every layer,
     so lazy initialisation and heap growth happen before timing. *)
  let setup i =
    check ctx (List.map run_job (setup_jobs (Util.rng ~seed:ctx.seed (name ^ ".setup") i)))
  in
  let per_pass = Hashtbl.create 64 in
  let pass () i =
    let results = List.map run_job (jobs_for_pass (Util.rng ~seed:ctx.seed (name ^ ".pass") i)) in
    Hashtbl.replace per_pass i results;
    fun () -> check ctx results
  in
  let ph = Phases.run ctx ~reps:9 ~setup pass in
  if not ctx.trace then Phases.end_to_end ph
  else begin
    let sm = Tracer.summarize () in
    let layer name = Util.median (Tracer.per_pass sm name) in
    let sum_over f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
    let traced_instrs =
      Hashtbl.fold
        (fun i rs acc -> if i >= ph.first_traced then acc + sum_over (fun r -> r.expanded) rs else acc)
        per_pass 0
    in
    let ns_per_instr name =
      Util.sum (Tracer.per_pass sm name) *. 1e9 /. float_of_int traced_instrs
    in
    (* Deterministic counts come from pass 0: its inputs depend only on the
       seed. *)
    let first = Hashtbl.find per_pass 0 in
    let interned = sum_over (fun r -> r.interned) first
    and allocated = sum_over (fun r -> r.allocated) first in
    [ ("builder.emit_s", layer "builder.emit"); ("builder.to_circuit_s", layer "builder.to_circuit");
      ("counts.of_instrs_s", layer "counts.of_instrs"); ("depth.of_instrs_s", layer "depth.of_instrs");
      ("trace.profile_s", layer "trace.profile");
      ("depth.ns_per_instr", ns_per_instr "depth.of_instrs");
      ("trace.ns_per_instr", ns_per_instr "trace.profile");
      ("instr.expanded_instrs", float_of_int (sum_over (fun r -> r.expanded) first));
      ("instr.distinct_nodes", float_of_int (sum_over (fun r -> r.nodes) first));
      ("instr.intern_hit_ratio",
       if interned + allocated = 0 then 0.
       else float_of_int interned /. float_of_int (interned + allocated)) ]
    @ Phases.common_layers ph sm
  end

let table1 ctx =
  let n = 2048 in
  run ctx ~name:"table1-2048"
    ~jobs_for_pass:(fun rng -> table1_set ~n ~p:(big_modulus rng n))
    ~setup_jobs:(fun rng -> table1_set ~n:256 ~p:(big_modulus rng 256))

(* Two exponent bits: every ladder step is one more controlled
   multiplication of the same shape, so a two-step ladder already shares
   as a longer one does (about 34k expanded instructions per circuit,
   some 290 per distinct node and 89 % intern hits, as at 2n bits). A
   2n-bit ladder made one operation take about 2 s on a shared 2-vCPU
   host, so a 40-s run held ten passes and its fast end moved 20-30 %
   between runs; shorter operations give the fast end more quiet moments
   to land in (six interleaved runs spread 0.18 at one bit against 0.23
   at four). *)
let modexp ctx =
  let set n rng =
    let p, a = modexp_constants rng n in
    modexp_set ~n ~m:2 ~p ~a
  in
  run ctx ~name:"modexp-shared" ~jobs_for_pass:(set 16) ~setup_jobs:(set 8)
