(* The measurement loop every workload shares.

   Untraced run: passes for the whole budget, no spans recorded; the
   end-to-end metrics come from it. Traced run: the first 30 % of the
   budget untraced (the baseline for the tracing overhead), the rest with
   spans on; the per-layer metrics come from the traced passes.

   A pass returns the thunk that checks its outputs; the checks run after
   the pass clock stops and outside every span. A pass runs on one domain:
   on a shared two-CPU host the jobs = nproc fan-out ran up to twice as
   slow whenever another tenant held the second CPU, so the workloads
   measure it in the traced run only, outside the pass. During a pass the
   workload reports each operation's latency ([op]); the latencies are
   summarised per pass (p50, p99, operations per second of operation
   time).

   The run reports the fast end over passes: the 2nd percentile of times,
   the 98th of rates. Contention from other tenants only ever slows a
   pass, and on a shared host it moved the median and the quartiles of
   the same code by 30-70 % between runs, in states lasting minutes, while
   every run still held some uncontended passes. *)

type t = {
  setup_s : float;  (** median set-up time *)
  durations : float array;  (** every pass, in order *)
  first_traced : int;  (** passes from this index on were traced *)
  op_p50 : float array;
      (** per pass: median over operation kinds of each kind's mean latency, s *)
  op_p99 : float array;  (** per pass: 99th-percentile operation latency, s *)
  rates : float array;  (** per pass: operations per second of operation time *)
  ops : int;  (** operations timed over the run *)
  peak_heap_mb : float;
      (** largest live major heap seen at the first pass's peaks, after a
          full collection: a function of the inputs alone, unlike the top
          heap, which moves with GC timing *)
  alloc_words : float array;  (** per pass, calling domain *)
  first_live_words : float;  (** live words the first pass left behind *)
}

let pass_ops = Util.Samples.create ()
let pass_kinds : (string, Util.Samples.t) Hashtbl.t = Hashtbl.create 16

(* One operation of kind [kind] (a circuit, a row, a family) took
   [seconds]. *)
let op ~kind seconds =
  Util.Samples.add pass_ops seconds;
  Util.Samples.add_keyed pass_kinds kind seconds

(* The median latency of a pass would be ill-conditioned: MBU makes one
   kind's latencies bimodal with equal weights (correction block taken or
   not), so the plain median sits on the gap between the modes and jumps
   between them from pass to pass. Kind means are stable. *)
let kinds_median () =
  Util.median
    (Array.of_list
       (Hashtbl.fold
          (fun _ b acc ->
            let a = Util.Samples.to_array b in
            (Util.sum a /. float_of_int (Array.length a)) :: acc)
          pass_kinds []))

let sampling = ref false
let live_peak = ref 0

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Workloads call this where a pass holds the most data (a circuit and its
   analyses); it samples only during the first pass. *)
let at_peak () = if !sampling then live_peak := max !live_peak (live_words ())

(* [setup 0] runs first and its result feeds [pass]. In the untraced run
   [setup 1] .. [setup (reps - 1)] run between passes, spread evenly over
   the budget, so that their median samples the host at several moments
   rather than in one burst; their results are dropped. *)
let run (ctx : Util.ctx) ~reps ~(setup : int -> 'a) (pass : 'a -> int -> unit -> unit) =
  let env, t_setup = Util.time (fun () -> setup 0) in
  let pass = pass env in
  let setups = Util.Samples.create () in
  Util.Samples.add setups t_setup;
  let start = Util.now () in
  let setup_between () =
    let k = Util.Samples.length setups in
    if (not ctx.trace) && k < reps
       && Util.now () -. start >= float_of_int k *. ctx.seconds /. float_of_int reps
    then Util.Samples.add setups (snd (Util.time (fun () -> ignore (setup k))))
  in
  let arr = Util.Samples.to_array in
  let alloc = Util.Samples.create () and p50 = Util.Samples.create ()
  and p99 = Util.Samples.create () and rates = Util.Samples.create () in
  let ops = ref 0 and live = ref 0. in
  let timed i =
    let live0 = if i = 0 then live_words () else 0 in
    sampling := i = 0;
    Util.Samples.clear pass_ops;
    Hashtbl.reset pass_kinds;
    let a0 = Util.allocated_words () in
    let t0 = Util.now () in
    let check = Tracer.with_span ~op:(-1) "pass" (fun () -> pass i) in
    let dt = Util.now () -. t0 in
    Util.Samples.add alloc (Util.allocated_words () -. a0);
    at_peak ();
    sampling := false;
    let lat = Util.Samples.to_array pass_ops in
    ops := !ops + Array.length lat;
    Util.Samples.add p50 (kinds_median ());
    Util.Samples.add p99 (Util.quantile 0.99 lat);
    Util.Samples.add rates (float_of_int (Array.length lat) /. Util.sum lat);
    check ();
    if i = 0 then live := float_of_int (live_words () - live0);
    setup_between ();
    dt
  in
  let durations, first_traced =
    if not ctx.trace then
      (fst (Util.run_passes ~first:0 ~budget:ctx.seconds ~min_passes:3 timed), max_int)
    else begin
      let d0, next = Util.run_passes ~first:0 ~budget:(0.3 *. ctx.seconds) ~min_passes:1 timed in
      Tracer.enabled := true;
      let d1, _ = Util.run_passes ~first:next ~budget:(0.7 *. ctx.seconds) ~min_passes:1 timed in
      Tracer.enabled := false;
      (Array.append d0 d1, next)
    end
  in
  { setup_s = Util.median (arr setups); durations; first_traced; op_p50 = arr p50;
    op_p99 = arr p99; rates = arr rates; ops = !ops;
    peak_heap_mb = float_of_int (!live_peak * (Sys.word_size / 8)) /. 1048576.;
    alloc_words = arr alloc; first_live_words = !live }

let untraced t = Array.sub t.durations 0 (min t.first_traced (Array.length t.durations))

let traced t =
  let n = Array.length t.durations in
  if t.first_traced >= n then [||] else Array.sub t.durations t.first_traced (n - t.first_traced)

(* The end-to-end metrics, plus the sample counts for the environment
   record. *)
let end_to_end t =
  let fast_times = Util.quantile 0.02 and fast_rates = Util.quantile 0.98 in
  [ ("setup_s", t.setup_s); ("pass_s", fast_times t.durations);
    ("ops_per_s", fast_rates t.rates);
    ("op_us_p50", fast_times t.op_p50 *. 1e6); ("op_us_p99", fast_times t.op_p99 *. 1e6);
    ("peak_heap_mb", t.peak_heap_mb);
    ("samples.passes", float_of_int (Array.length t.durations));
    ("samples.ops", float_of_int t.ops) ]

(* Per-layer metrics every workload reports from its traced run. *)
let common_layers t (sm : Tracer.summary) =
  [ ("gc.alloc_words_per_pass", Util.median t.alloc_words);
    ("gc.live_words_after_pass", t.first_live_words);
    ("bench.glue_s", Util.median (Tracer.per_pass sm "pass"));
    ("bench.tracing_overhead_s", Util.median (traced t) -. Util.median (untraced t)) ]
