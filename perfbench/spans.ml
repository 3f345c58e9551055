(* Layer spans recorded from the benchmark's side of each call into the
   program, through the program's own tracer ([Obs.Trace]), and read once
   the run ends.  The program records spans of its own inside some calls,
   a few under a layer's name (teleport.point, distill.run,
   pauli.dem_compile); the benchmark's spans are never nested in each
   other or in the program's, so they are exactly the root-level caller
   paths bearing their names, and their sum is the attributed time.  With
   tracing off, [span] is a plain call. *)

let enabled = ref false
let names : (string, unit) Hashtbl.t = Hashtbl.create 32

let span name f =
  if not !enabled then f ()
  else begin
    Hashtbl.replace names name ();
    Obs.Trace.with_span name f
  end

let roots () =
  List.filter (fun (path, _, _, _, _, _) -> Hashtbl.mem names path) (Obs.Trace.by_path ())

let root name =
  List.find_map
    (fun (path, count, ns, words, _, _) ->
      if path = name then Some (count, Int64.to_int ns, words) else None)
    (roots ())
  |> Option.value ~default:(0, 0, 0)

let calls name = let c, _, _ = root name in c
let ns name = let _, t, _ = root name in t
let words name = let _, _, w = root name in float_of_int w

let attributed_ns () =
  List.fold_left (fun acc (_, _, ns, _, _, _) -> acc + Int64.to_int ns) 0 (roots ())

(* Per-call and per-unit means; 0 when the layer did no work in this
   workload (the control reading). *)
let per_call_ms name =
  match calls name with 0 -> 0. | c -> float_of_int (ns name) /. 1e6 /. float_of_int c

let per_call_us name =
  match calls name with 0 -> 0. | c -> float_of_int (ns name) /. 1e3 /. float_of_int c

let per_unit ~units x = if units <= 0 then 0. else x /. float_of_int units
