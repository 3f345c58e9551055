(* perfbench: one run of one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1 --hetarch PATH

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   first runs the same workload untraced in a child process (the reference
   for the tracing overhead and for exact-count comparison), then runs it
   traced here and reports the per-layer metrics.  The last stdout line is
   the result object; the exit code is 1 when any check fails. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let hetarch = ref "_build/default/bin/main.exe"
let role = ref "run"

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed the workload inputs are made from");
    ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ("--hetarch", Arg.Set_string hetarch, "PATH the hetarch binary under test");
    ("--role", Arg.Set_string role, "run|setup (internal: set-up-only child)") ]

let say fmt = Printf.printf (fmt ^^ "\n%!")

type run = {
  attempted : int;
  failed : int;
  fails : string list;  (** failed checks, reported on stderr *)
  metrics : Measure.metric list;
  detail : (string * Obs.Json.t) list;  (** what a traced run compares against *)
}

(* setup_s is the best of several set-ups spread over the run, and wall_s
   adds it to the best-time figure (or script pass): every part at its best
   of several runs, so a slow spell of the host during one part does not
   move it. *)
let best = List.fold_left Float.min infinity

(* ------------------------------------------------------ experiment runs *)

let cli_args sub ~seed =
  match sub with
  | "cells" -> [ sub; "--jobs"; "1" ]
  | _ ->
      [ sub; "--seed"; string_of_int (Inputs.pass_seed ~seed 0); "--shots";
        string_of_int Inputs.shots; "--jobs"; "1" ]

(* Pass 0 against what the `hetarch` subcommands print for the same seed
   and shots. *)
let check_tables (o : Experiments.outcome) =
  if o.Experiments.tables = [] then [ "pass 0 did not complete" ]
  else
    let subs = List.sort_uniq compare (List.map (fun (s, _, _) -> s) o.Experiments.tables) in
    List.concat_map
      (fun sub ->
        match Proc.capture !hetarch (cli_args sub ~seed:!seed) with
        | Error e -> [ e ]
        | Ok out ->
            List.filter_map
              (fun (s, title, table) ->
                if s <> sub then None
                else
                  Result.fold ~ok:(fun () -> None) ~error:Option.some
                    (Verify.check_table ~what:title ~expected:table out))
              o.Experiments.tables)
      subs

(* Set-up again in fresh processes, so each repetition pays the
   per-process cold costs once, as a user does. *)
let setup_child () =
  match
    Proc.capture Sys.executable_name
      [ "--role"; "setup"; "--workload"; !workload; "--seed"; string_of_int !seed ]
  with
  | Ok out -> (
      match List.rev (String.split_on_char ' ' (String.trim out)) with
      | v :: _ -> float_of_string v
      | [] -> failwith "set-up child printed nothing")
  | Error e -> failwith e

let experiment ?(between = ignore) ~trace () =
  let f = if !workload = "fig6-d13" then Experiments.fig6 else Experiments.het in
  f ~trace ~seed:!seed ~seconds:!seconds ~between

let tables_digest (o : Experiments.outcome) =
  Verify.digest (String.concat "\n" (List.map (fun (_, _, t) -> t) o.Experiments.tables))

let experiment_e2e () =
  (* The repetitions run between passes, spread over the run rather than
     bunched into one slow spell of the host. *)
  let reps = ref [] in
  let between k = if k < Measure.setup_reps - 1 then reps := setup_child () :: !reps in
  let o = experiment ~between ~trace:false () in
  let reps = !reps @ List.init (Measure.setup_reps - 1 - List.length !reps) (fun _ -> setup_child ()) in
  let setups = o.Experiments.setup_s :: reps in
  let fails = check_tables o in
  let figure_s = o.Experiments.figure_s and passes = o.Experiments.passes in
  { attempted = o.Experiments.units + List.length o.Experiments.tables;
    failed = o.Experiments.unit_failures + List.length fails;
    fails;
    metrics =
      Measure.
        [ metric "wall_s" "s" (best setups +. figure_s) ~samples:passes;
          metric "setup_s" "s" (best setups) ~samples:(List.length setups);
          metric "peak_heap_mb" "MB" o.Experiments.peak_heap_mb;
          metric "throughput_per_s" "1/s"
            (float_of_int o.Experiments.pass_shots /. figure_s)
            ~samples:passes ];
    detail =
      Obs.Json.
        [ ("figure_s", Float figure_s);
          ("digest", String (tables_digest o));
          ("counts", List (List.map (fun c -> Int c) o.Experiments.counts)) ] }

(* --------------------------------------------------------- serve runs *)

(* Requests in one script pass over the best-time pass. *)
let serve_rate (o : Serve_load.outcome) =
  if o.Serve_load.cycles = 0 then 0.
  else
    float_of_int (List.length o.Serve_load.responses)
    *. float_of_int Serve_load.script_cycles /. float_of_int o.Serve_load.cycles
    /. o.Serve_load.pass_s

let serve_metrics (o : Serve_load.outcome) =
  Measure.
    [ metric "wall_s" "s" (best o.Serve_load.setups +. o.Serve_load.pass_s)
        ~samples:(o.Serve_load.cycles / Serve_load.script_cycles);
      metric "setup_s" "s" (best o.Serve_load.setups)
        ~samples:(List.length o.Serve_load.setups);
      metric "peak_heap_mb" "MB" o.Serve_load.peak_heap_mb;
      metric "throughput_per_s" "1/s" (serve_rate o)
        ~samples:(List.length o.Serve_load.responses) ]

(* Round-trip latency percentiles of the warm and cold tiers.  They are
   measured with tracing off, here, and reported by the traced run as
   per-layer metrics of the serve layer. *)
let serve_latencies (o : Serve_load.outcome) =
  (* a script that stopped early may leave a pass too short for a
     percentile; its failed requests missed every latency limit *)
  let latency name ~q passes =
    match Measure.latency_ms name ~q passes with
    | Ok m -> m
    | Error _ when o.Serve_load.aborted <> None ->
        Measure.metric name "ms" (Serve_load.request_timeout *. 1e3) ~samples:o.Serve_load.lost
    | Error e -> failwith e
  in
  [ latency "serve.warm_p50_ms" ~q:0.5 o.Serve_load.warm;
    latency "serve.warm_p99_ms" ~q:0.99 o.Serve_load.warm;
    latency "serve.cold_p50_ms" ~q:0.5 o.Serve_load.cold;
    latency "serve.cold_p90_ms" ~q:0.9 o.Serve_load.cold ]

let latency_json ms =
  Obs.Json.Obj
    (List.map
       (fun m ->
         ( m.Measure.name,
           Obs.Json.(Obj [ ("value", Float m.Measure.value); ("samples", Int m.Measure.samples) ])
         ))
       ms)

let latency_of_json = function
  | Obs.Json.Obj l ->
      List.map
        (fun (name, v) ->
          let field k = Option.get (Obs.Json.member k v) in
          Measure.metric name "ms" (Obs.Json.to_float (field "value"))
            ~samples:(Obs.Json.to_int (field "samples")))
        l
  | _ -> failwith "untraced reference run: latencies are not an object"

let serve_attempted (o : Serve_load.outcome) =
  List.length o.Serve_load.responses + List.length o.Serve_load.priming + o.Serve_load.lost

(* Failed operations: every failed check, plus the requests that got no
   reply (or, when the load stopped for another reason, one). *)
let serve_failed (o : Serve_load.outcome) fails =
  List.length fails
  + if o.Serve_load.aborted = None then 0 else max 1 o.Serve_load.lost - 1

(* ---------------------------------------------------------------- runs *)

let e2e = function
  | Spec.Experiment -> experiment_e2e ()
  | Spec.Service ->
      let o = Serve_load.run ~hetarch:!hetarch ~seed:!seed ~seconds:!seconds in
      let fails, _ = Serve_load.verify ~trace:false ~dir:(Lazy.force Proc.run_dir) o in
      { attempted = serve_attempted o;
        failed = serve_failed o fails;
        fails;
        metrics = serve_metrics o;
        detail =
          [ ("rate", Obs.Json.Float (serve_rate o));
            ("latency", latency_json (serve_latencies o)) ] }

(* The untraced reference run, in a child process. *)
let reference () =
  match
    Proc.capture Sys.executable_name
      [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
        Printf.sprintf "%.17g" !seconds; "--trace"; "0"; "--hetarch"; !hetarch ]
  with
  | Error e -> failwith ("untraced reference run: " ^ e)
  | Ok out -> (
      let prefix = "# detail " in
      match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out) with
      | Some l ->
          let n = String.length prefix in
          Obs.Json.parse (String.sub l n (String.length l - n))
      | None -> failwith "untraced reference run printed no detail")

let traced kind =
  let reference = reference () in
  let ref_field k = Option.get (Obs.Json.member k reference) in
  (* the traced run starts once the reference child has finished *)
  let t_start = Measure.now_s () in
  Spans.enabled := true;
  let attributed_frac () =
    float_of_int (Spans.attributed_ns ()) /. 1e9 /. (Measure.now_s () -. t_start)
  in
  let run ~attempted ~failed ~fails ~layers ~attributed ~overhead =
    { attempted;
      failed;
      fails;
      metrics =
        Spec.layer_report
          (layers
          @ Measure.
              [ metric "attributed_frac" "frac" attributed;
                metric "trace_overhead_frac" "frac" overhead ]);
      detail = [] }
  in
  match kind with
  | Spec.Experiment ->
      let o = experiment ~trace:true () in
      let attributed = attributed_frac () in
      let ref_counts =
        match ref_field "counts" with
        | Obs.Json.List l -> List.map Obs.Json.to_int l
        | _ -> []
      in
      let fails =
        (if Obs.Json.String (tables_digest o) <> ref_field "digest" then
           [ "traced pass 0 differs from the untraced run" ]
         else [])
        @
        if ref_counts <> o.Experiments.counts then
          [ "decomposed sample+decode counts differ from Surface_circuit.logical_error_count" ]
        else []
      in
      run ~attempted:o.Experiments.units
        ~failed:(o.Experiments.unit_failures + List.length fails)
        ~fails ~layers:o.Experiments.layers ~attributed
        ~overhead:((o.Experiments.figure_s /. Obs.Json.to_float (ref_field "figure_s")) -. 1.)
  | Spec.Service ->
      let o = Serve_load.run ~hetarch:!hetarch ~seed:!seed ~seconds:!seconds in
      (* attribution covers set-up and load, not the checks that follow *)
      let attributed = attributed_frac () in
      let fails, layers = Serve_load.verify ~trace:true ~dir:(Lazy.force Proc.run_dir) o in
      let layers = latency_of_json (ref_field "latency") @ layers in
      run ~attempted:(serve_attempted o) ~failed:(serve_failed o fails) ~fails ~layers
        ~attributed
        ~overhead:((Obs.Json.to_float (ref_field "rate") /. serve_rate o) -. 1.)

let finish r =
  (* every workload reports exactly the catalogue's metrics *)
  let r =
    let catalogue = if !trace = 0 then Spec.end_to_end else Spec.per_layer in
    if List.map (fun m -> (m.Measure.name, m.Measure.unit_)) r.metrics = catalogue then r
    else { r with fails = r.fails @ [ "reported metrics differ from the catalogue in Spec" ] }
  in
  List.iter (fun e -> Printf.eprintf "perfbench: check failed: %s\n" e) r.fails;
  let failed = max r.failed (List.length r.fails) in
  let correct = failed = 0 in
  if r.detail <> [] then say "# detail %s" (Obs.Json.to_string (Obs.Json.Obj r.detail));
  say "perfbench %s seed=%d trace=%d: %s" !workload !seed !trace
    (if correct then "correct" else "INCORRECT");
  List.iter (fun m -> say "%s" (Measure.human_line m)) r.metrics;
  say "%s"
    (Measure.result_json
       { Measure.correct; attempted = max 1 r.attempted; failed; metrics = r.metrics });
  exit (if correct then 0 else 1)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  at_exit Proc.cleanup;
  (* a daemon that dies must fail a write, not kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Parallel.set_jobs 1;
  let kind =
    match Spec.kind_of !workload with
    | Some k -> k
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst Spec.workloads));
        exit 2
  in
  if !role = "setup" then begin
    let t0 = Measure.now_s () in
    Experiments.setup_only !workload;
    say "setup_s %.17g" (Measure.now_s () -. t0);
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2);
  if not (Sys.file_exists !hetarch) then (
    Printf.eprintf "perfbench: no hetarch binary at %s\n" !hetarch;
    exit 2);
  match if !trace = 0 then e2e kind else traced kind with
  | r -> finish r
  | exception e ->
      Printf.eprintf "perfbench: run failed: %s\n" (Printexc.to_string e);
      exit 1
