(* The benchmark's metric catalogue, mirrored by BENCHMARK.json (a test
   keeps the two equal).  Every untraced run reports every end-to-end
   metric, and every traced run every per-layer metric, with 0 for a layer
   the workload does not exercise — the control reading. *)

type kind = Experiment | Service

let workloads = [ ("fig6-d13", Experiment); ("het-modules", Experiment); ("serve-mixed", Service) ]

let end_to_end =
  [ ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("throughput_per_s", "1/s") ]

let per_layer =
  [ (* fig6-d13 *)
    ("qec.build.ms", "ms");
    ("pauli.dem_compile.ms", "ms");
    ("pauli.dem_compile.minor_words", "words");
    ("pauli.dem.mechanisms", "count");
    ("pauli.sample.ns_per_shot", "ns");
    ("pauli.sample.minor_words_per_shot", "words");
    ("qec.decode.us_per_shot", "us");
    ("qec.decode.minor_words_per_shot", "words");
    ("qec.decode.defects_per_shot", "count");
    ("qec.decode.nonquiet_frac", "frac");
    ("qec.logical_errors", "count");
    (* het-modules *)
    ("uec.profile.ms", "ms");
    ("uec.profile.calls", "count");
    ("uec.failures.us_per_shot_round", "us");
    ("qec.threshold.ms", "ms");
    ("distill.run.ms", "ms");
    ("distill.success_frac", "frac");
    ("teleport.point.ms", "ms");
    ("cell.characterize.us_per_call", "us");
    ("dse.char_cache.hit_frac", "frac");
    (* serve-mixed *)
    ("serve.warm_p50_ms", "ms");
    ("serve.warm_p99_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("serve.cold_p90_ms", "ms");
    ("serve.parse.us_per_req", "us");
    ("serve.warm_answer.us_per_req", "us");
    ("serve.rtt_overhead_us", "us");
    ("serve.hol_wait_ms", "ms");
    ("serve.compute.ms.threshold", "ms");
    ("serve.compute.ms.uec", "ms");
    ("serve.compute.ms.distill", "ms");
    ("serve.compute.ms.dse", "ms");
    ("dse.store.put_us", "us");
    ("dse.store.find_us", "us");
    ("dse.store.bytes_written", "bytes");
    ("serve.coalesced_frac", "frac");
    ("serve.warm_mem_frac", "frac");
    ("serve.warm_disk_frac", "frac");
    ("serve.rejected_frac", "frac");
    (* every workload *)
    ("attributed_frac", "frac");
    ("trace_overhead_frac", "frac") ]

let kind_of workload = List.assoc_opt workload workloads

(* Order the measured readings as the catalogue lists them, filling the
   layers this workload leaves idle with 0. *)
let layer_report measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Measure.name = name) measured with
      | Some m when m.Measure.unit_ = unit_ -> m
      | Some _ -> invalid_arg ("Spec.layer_report: unit mismatch for " ^ name)
      | None -> Measure.metric ~samples:0 name unit_ 0.)
    per_layer
