(* The metric names BENCHMARK.json declares, and the result line.

   Every workload prints every end-to-end metric (untraced run) or every
   per-layer metric (traced run). A per-layer metric of a layer the
   workload never calls reads 0. *)

(* The five ripple rows of table 1 simulated by montecarlo-ripple, with the
   widths that keep them under the simulator's 62-wire cap. *)
let sim_rows = [ ("vbe5", 15); ("vbe4", 15); ("cdkpm", 16); ("gidney", 14); ("mixed", 16) ]

(* Catalogue.all, in order. *)
let families =
  [ "vbe5"; "vbe4"; "cdkpm"; "gidney"; "mixed"; "draper"; "modadd-const"; "takahashi" ]

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("ops_per_s", "1/s"); ("op_us_p50", "us");
    ("op_us_p99", "us"); ("peak_heap_mb", "MB") ]

let per_layer =
  let each names suffixes unit =
    List.concat_map (fun n -> List.map (fun s -> (n ^ "." ^ s, unit)) suffixes) names
  in
  let rows = List.map fst sim_rows in
  [ ("builder.emit_s", "s"); ("builder.to_circuit_s", "s"); ("counts.of_instrs_s", "s");
    ("depth.of_instrs_s", "s"); ("trace.profile_s", "s"); ("depth.ns_per_instr", "ns");
    ("trace.ns_per_instr", "ns"); ("instr.expanded_instrs", "count");
    ("instr.distinct_nodes", "count"); ("instr.intern_hit_ratio", "ratio");
    ("gc.alloc_words_per_pass", "words"); ("gc.live_words_after_pass", "words") ]
  @ each [ "sim.run_us"; "state.replay_us"; "sim.dispatch_us" ] rows "us"
  @ each [ "sim.gates_per_shot"; "sim.peak_terms" ] rows "count"
  @ [ ("sim.branch_taken_ratio", "ratio"); ("parallel.shots_per_s", "1/s"); ("parallel.speedup", "ratio");
      ("parallel.fanout_us", "us"); ("gc.minor_words_per_shot", "words");
      ("sim.init_registers_us", "us") ]
  @ each [ "engine.run_campaign_s"; "engine.check_forced_branches_s" ] families "s"
  @ each [ "engine.runs_per_s" ] families "1/s"
  @ [ ("gc.minor_words_per_run", "words") ]
  @ each [ "fault.sites"; "engine.correct"; "engine.detected"; "engine.silent" ] families
      "count"
  @ [ ("bench.glue_s", "s"); ("bench.tracing_overhead_s", "s") ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* One JSON object per line, in declaration order. *)
let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

(* The last line of standard output. Values the workload did not measure
   read 0 (per-layer only: the end-to-end metrics are measured everywhere). *)
let print_result (checks : Util.Checks.t) ~declared values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        (name, json_object [ ("value", number v); ("unit", Printf.sprintf "%S" unit) ]))
      declared
  in
  print_endline
    (json_object
       [ ("correct", string_of_bool (checks.failed = 0));
         ("attempted", string_of_int checks.attempted);
         ("failed", string_of_int checks.failed);
         ("metrics", json_object metrics) ])
