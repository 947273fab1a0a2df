(* Benchmark entry point: one workload per process.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 --jobs J
            [--trace-file PATH] [--corrupt-reference]

   Prints an environment record (workload, seed, compiler, jobs, parallel
   backend, check tallies, sample counts), then, as the last line, the
   result object with the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1). *)

let workloads =
  [ ("table1-2048", Build.table1); ("modexp-shared", Build.modexp);
    ("montecarlo-ripple", Execute.montecarlo); ("faults-catalogue", Execute.faults) ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let jobs = ref 0 and trace_file = ref "" and corrupt = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--jobs", Arg.Set_int jobs, "J domains for the fan-out (nproc)");
      ("--trace-file", Arg.Set_string trace_file, "PATH where the traced run writes its spans");
      ("--corrupt-reference", Arg.Set corrupt, " shift every reference value (tests the checks)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --jobs J";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 || !jobs < 1 || !seconds <= 0. then begin
    prerr_endline "--trace must be 0 or 1, --jobs at least 1, --seconds positive";
    exit 2
  end;
  let ctx =
    { Util.seed = !seed; seconds = !seconds; jobs = !jobs; trace = !trace = 1;
      corrupt = !corrupt; checks = Util.Checks.create () }
  in
  let values = run ctx in
  let c = ctx.checks in
  print_endline
    ("env "
    ^ Metrics.json_object
        ([ ("workload", Printf.sprintf "%S" !workload); ("seed", string_of_int !seed);
          ("trace", string_of_int !trace); ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
          ("jobs", string_of_int !jobs);
          ("parallel_backend", Printf.sprintf "%S" Mbu_simulator.Sim.parallel_backend);
          ("attempted", string_of_int c.attempted); ("failed", string_of_int c.failed);
          ("error_rate", Metrics.number (float_of_int c.failed /. float_of_int (max 1 c.attempted))) ]
        @ List.filter_map
        (fun (k, v) ->
              if String.starts_with ~prefix:"samples." k then Some (k, Metrics.number v) else None)
            values));
  if ctx.trace && !trace_file <> "" then Tracer.write !trace_file ~workload:!workload ~seed:!seed;
  Metrics.print_result c ~declared:(if ctx.trace then Metrics.per_layer else Metrics.end_to_end) values
