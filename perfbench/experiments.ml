(* The two in-process experiment workloads.

   fig6-d13 reproduces `hetarch fig6` (d = 13, ten (alpha, Tcd/Tca)
   points); het-modules reproduces `hetarch fig9`, `table3`, `fig12` and
   `table4` in one process, plus the standard-cell characterizations of
   `hetarch cells` and one USC check per stabilizer of every paper code.
   Both build every experiment first (set-up), then run passes over their
   points at fixed shots.  Pass 0 uses the CLI's seed and shot count and
   must print the CLI's tables; later passes use fresh seeds. *)

let g = Tableio.fmt_g
let shots = Inputs.shots
let now_s = Measure.now_s

type outcome = {
  setup_s : float;
  figure_s : float;  (** one figure from its points' best times *)
  pass_shots : int;  (** Monte-Carlo shots in one figure *)
  passes : int;
  units : int;
  unit_failures : int;
  tables : (string * string * string) list;
      (** pass-0 (subcommand, table title, rendered table) *)
  counts : int list;  (** exact pass-0 counts, compared across processes *)
  peak_heap_mb : float;
  layers : Measure.metric list;  (** per-layer readings, traced runs only *)
}

let peak_heap_mb () = Measure.words_to_mb (Gc.quick_stat ()).Gc.top_heap_words

(* Timed phase.  The first [Measure.min_passes] passes run whole; later passes stop
   at the first point boundary after [seconds], not counting the time spent
   in [between] (the set-up repetitions).  Each point is timed every time
   it runs: the figure time is the sum over points of each point's best
   time, which keeps the host's slow spells (the CPU alternates between a
   fast and a ~1.4x slower state for seconds at a time) out of the figure
   as long as every point meets one fast spell. *)
type timing = {
  units : int;
  failures : int;
  figure_s : float;
  passes : int;  (** complete passes *)
  peak0_mb : float;  (** peak heap at the end of pass 0: set-up plus one figure *)
}

let run_passes ?(on_pass0 = ignore) ~between ~seconds pass =
  let t0 = now_s () in
  let units = ref 0 and failures = ref 0 and peak0 = ref 0. in
  let paused = ref 0. in
  let elapsed () = now_s () -. t0 -. !paused in
  let best = Hashtbl.create 128 in
  let rec go k =
    let rec each j = function
      | [] -> true
      | u :: rest ->
          let tu = now_s () in
          (try u ()
           with e ->
             incr failures;
             Printf.eprintf "perfbench: point failed: %s\n%!" (Printexc.to_string e));
          let dt = now_s () -. tu in
          Hashtbl.replace best j
            (match Hashtbl.find_opt best j with Some b -> Float.min b dt | None -> dt);
          incr units;
          if k < Measure.min_passes || elapsed () < seconds then each (j + 1) rest else false
    in
    let finished = each 0 (pass k) in
    if k = 0 then begin
      peak0 := peak_heap_mb ();
      on_pass0 ()
    end;
    if finished then begin
      let tp = now_s () in
      between k;
      paused := !paused +. (now_s () -. tp)
    end;
    if finished && (k + 1 < Measure.min_passes || elapsed () < seconds) then go (k + 1)
    else if finished then k + 1
    else k
  in
  let passes = go 0 in
  { units = !units;
    failures = !failures;
    figure_s = Hashtbl.fold (fun _ b acc -> acc +. b) best 0.;
    passes;
    peak0_mb = !peak0 }

(* ------------------------------------------------------------ fig6-d13 *)

let fig6_params (_, t_data, t_anc) =
  { (Surface_circuit.default ~distance:13) with t_data; t_anc }

let fig6_setup () =
  List.map
    (fun pt ->
      let p = fig6_params pt in
      Spans.span "qec.build" (fun () -> Surface_circuit.build p))
    Inputs.fig6_points

(* Tallies over pass 0, which is fixed for a seed, so they repeat exactly. *)
type tally = { mutable defects : int; mutable nonquiet : int; mutable shots0 : int }

(* Traced form of [Surface_circuit.logical_error_count]: the same
   Monte-Carlo chunking over the same two calls, with a span around each.
   Its counts must equal the untraced path's. *)
let decomposed_count ~tally ~sampled (exp : Surface_circuit.experiment) rng =
  Parallel.monte_carlo_count ~rng ~shots (fun rng nshots ->
      let b =
        Spans.span "pauli.sample" (fun () ->
            Dem_sampler.sample exp.Surface_circuit.sampler rng ~nshots)
      in
      sampled := !sampled + nshots;
      Option.iter
        (fun t ->
          let any = Bitvec.create nshots in
          Array.iter
            (fun row ->
              t.defects <- t.defects + Bitvec.popcount row;
              Bitvec.or_into ~dst:any row)
            b.Frame_batch.detectors;
          t.nonquiet <- t.nonquiet + Bitvec.popcount any;
          t.shots0 <- t.shots0 + nshots)
        tally;
      Spans.span "qec.decode" (fun () ->
          Decoder_uf.decode_batch_count exp.Surface_circuit.graph
            ~detectors:b.Frame_batch.detectors
            ~observable:b.Frame_batch.observables.(0) ~nshots))

let fig6_table counts =
  let rate j =
    let p = fig6_params (List.nth Inputs.fig6_points j) in
    Surface_circuit.per_cycle_rate
      ~shot_rate:(float_of_int counts.(j) /. float_of_int shots)
      ~rounds:p.Surface_circuit.rounds
  in
  Tableio.render
    ~header:[ "alpha"; "Tcd = a*100us (Tca=100us)"; "Tca = a*100us (Tcd=100us)" ]
    (List.mapi
       (fun i a -> [ g a; g (rate (2 * i)); g (rate ((2 * i) + 1)) ])
       Inputs.fig6_alphas)

let fig6 ~trace ~seed ~seconds ~between =
  let t0 = now_s () in
  let exps = Array.of_list (fig6_setup ()) in
  let setup_s = now_s () -. t0 in
  (* DEM compile happens inside build; the traced run compiles the first
     point's circuit once more on its own to time that layer, and checks
     the result is the same model. *)
  let mechanisms =
    if not trace then 0
    else begin
      let e = exps.(0) in
      let s =
        Spans.span "pauli.dem_compile" (fun () ->
            Dem_sampler.compile e.Surface_circuit.circuit)
      in
      if Dem_sampler.mechanisms s <> Dem_sampler.mechanisms e.Surface_circuit.sampler
      then failwith "DEM recompile differs from the built model";
      Array.length (Dem_sampler.mechanisms s)
    end
  in
  let counts0 = Array.make (Array.length exps) (-1) in
  let tally = { defects = 0; nonquiet = 0; shots0 = 0 } in
  let sampled = ref 0 in
  let pass k =
    let rng () = Rng.create (Inputs.pass_seed ~seed k) in
    List.init (Array.length exps) (fun j () ->
        let c =
          if trace then
            decomposed_count ~tally:(if k = 0 then Some tally else None) ~sampled
              exps.(j) (rng ())
          else Surface_circuit.logical_error_count exps.(j) (rng ()) ~shots
        in
        if k = 0 then counts0.(j) <- c)
  in
  let tm = run_passes ~between ~seconds pass in
  let tables =
    if Array.exists (fun c -> c < 0) counts0 then []
    else
      [ ( "fig6",
          "Fig 6: d=13 surface-code logical error per cycle vs coherence scaling alpha",
          fig6_table counts0 ) ]
  in
  let per_shot name scale =
    Spans.per_unit ~units:!sampled (float_of_int (Spans.ns name) /. scale)
  in
  let per_shot_words name = Spans.per_unit ~units:!sampled (Spans.words name) in
  let layers =
    if not trace then []
    else
      Measure.
        [ metric "qec.build.ms" "ms" (Spans.per_call_ms "qec.build")
            ~samples:(Spans.calls "qec.build");
          metric "pauli.dem_compile.ms" "ms" (Spans.per_call_ms "pauli.dem_compile");
          metric "pauli.dem_compile.minor_words" "words"
            (Spans.per_unit ~units:(Spans.calls "pauli.dem_compile")
               (Spans.words "pauli.dem_compile"));
          metric "pauli.dem.mechanisms" "count" (float_of_int mechanisms);
          metric "pauli.sample.ns_per_shot" "ns" (per_shot "pauli.sample" 1.)
            ~samples:!sampled;
          metric "pauli.sample.minor_words_per_shot" "words"
            (per_shot_words "pauli.sample");
          metric "qec.decode.us_per_shot" "us" (per_shot "qec.decode" 1e3)
            ~samples:!sampled;
          metric "qec.decode.minor_words_per_shot" "words" (per_shot_words "qec.decode");
          metric "qec.decode.defects_per_shot" "count"
            (Spans.per_unit ~units:tally.shots0 (float_of_int tally.defects))
            ~samples:tally.shots0;
          metric "qec.decode.nonquiet_frac" "frac"
            (Spans.per_unit ~units:tally.shots0 (float_of_int tally.nonquiet));
          metric "qec.logical_errors" "count"
            (float_of_int (Array.fold_left ( + ) 0 counts0)) ]
  in
  { setup_s;
    figure_s = tm.figure_s;
    pass_shots = shots * Array.length exps;
    passes = tm.passes;
    units = tm.units;
    unit_failures = tm.failures;
    tables;
    counts = Array.to_list counts0;
    peak_heap_mb = tm.peak0_mb;
    layers }

(* --------------------------------------------------------- het-modules *)

let paper_codes = Codes.paper_codes
let arch_key = function Uec.Het { ts } -> Printf.sprintf "het%h" ts | Uec.Hom -> "hom"

let cell_ops () =
  let reg = Cell.register () in
  [ ("Register load (SWAP in)", reg, Characterize.Load);
    ("Register retention (10 us)", reg, Characterize.Retention { dt = 10e-6 });
    ("ParCheck parity check", Cell.parcheck (), Characterize.Parity_check);
    ("SeqOp 5 sequential CNOTs", Cell.seqop (), Characterize.Seq_cnots { count = 5 });
    ( "USC weight-4 stabilizer (serial)",
      Cell.usc (),
      Characterize.Stabilizer { weight = 4; serialized = true } ) ]

(* Set-up: the standard-cell channels (Table 2's operations, then one USC
   check per stabilizer of every code, memoized by the DSE cache), and the
   UEC profile of every (architecture, code) pair the figures use — the
   first Het profile of a code pays its register-assignment search. *)
let het_setup () =
  let memo = Char_store.memo () in
  let characterize cell op =
    Spans.span "cell.characterize" (fun () -> Characterize.characterize_op ~memo cell op)
  in
  let cells =
    List.map
      (fun (label, cell, op) -> (label, (characterize cell op).Characterize.perf))
      (cell_ops ())
  in
  let usc = Cell.usc () in
  List.iter
    (fun (code : Code.t) ->
      Array.iter
        (fun supp ->
          ignore
            (characterize usc
               (Characterize.Stabilizer { weight = Array.length supp; serialized = true })))
        (Array.append code.Code.x_stabs code.Code.z_stabs))
    paper_codes;
  let profiles = Hashtbl.create 64 in
  List.iter
    (fun (code : Code.t) ->
      List.iter
        (fun arch ->
          Hashtbl.replace profiles (code.Code.name, arch_key arch)
            (Spans.span "uec.profile" (fun () -> Uec.profile arch code)))
        (List.map (fun ts -> Uec.Het { ts }) Inputs.fig9_ts @ [ Uec.Hom ]))
    paper_codes;
  (cells, profiles)

let cells_table cells =
  Tableio.render ~align:Tableio.Left
    ~header:[ "Operation"; "Duration (us)"; "Error" ]
    (List.map
       (fun (label, p) ->
         [ label; g (p.Characterize.duration *. 1e6); g p.Characterize.error ])
       cells)

let het ~trace ~seed ~seconds ~between =
  let t0 = now_s () in
  let cells, profiles = het_setup () in
  let setup_s = now_s () -. t0 in
  let profile code arch = Hashtbl.find profiles (code.Code.name, arch_key arch) in
  let shot_rounds = ref 0 in
  let failures prof ~rounds rng =
    shot_rounds := !shot_rounds + (rounds * shots);
    let f = Spans.span "uec.failures" (fun () -> Uec.logical_failures prof ~rounds ~shots rng) in
    Uec.per_round_rate ~failures:f ~rounds ~shots
  in
  (* The traced run also times the distillation sub-module each CT point
     runs inside Teleport, on the same configuration with its own stream. *)
  let distill_attempts = ref 0 and distill_successes = ref 0 in
  let distill_probe ~het ~ts rng_seed =
    if trace then begin
      let p = Teleport.default_params in
      let cfg =
        if het then Distill_module.heterogeneous ~ts ~rate_hz:p.Teleport.ep_rate_hz ()
        else Distill_module.homogeneous ~rate_hz:p.Teleport.ep_rate_hz ()
      in
      let cfg = { cfg with Distill_module.target_fidelity = p.Teleport.ep_target } in
      let r =
        Spans.span "distill.run" (fun () ->
            Distill_module.run cfg (Rng.create rng_seed) ~horizon:p.Teleport.distill_horizon)
      in
      distill_attempts := !distill_attempts + r.Distill_module.distill_attempts;
      distill_successes := !distill_successes + r.Distill_module.distill_successes
    end
  in
  let teleport ~het ~code_a ~code_b ~ts rng probe_seed =
    distill_probe ~het ~ts probe_seed;
    Spans.span "teleport.point" (fun () ->
        if het then (Teleport.heterogeneous ~code_a ~code_b ~ts ~shots rng).Teleport.total
        else (Teleport.homogeneous ~code_a ~code_b ~shots rng).Teleport.total)
  in
  let ncodes = List.length paper_codes in
  let fig9_0 = Array.make_matrix ncodes (List.length Inputs.fig9_ts) nan in
  let table3_0 = Array.make ncodes [] in
  let pairs = Inputs.fig12_pairs () in
  let fig12_0 = Array.make_matrix (List.length pairs) (List.length Inputs.fig12_ts) nan in
  let table4_0 = ref [] in
  let pass k =
    let s = Inputs.pass_seed ~seed k in
    let keep f = if k = 0 then f () in
    let fig9 =
      List.concat
        (List.mapi
           (fun ci code ->
             List.mapi
               (fun ti ts () ->
                 let r = failures (profile code (Uec.Het { ts })) ~rounds:3 (Rng.create s) in
                 keep (fun () -> fig9_0.(ci).(ti) <- r))
               Inputs.fig9_ts)
           paper_codes)
    in
    let table3 =
      List.mapi
        (fun ci (code : Code.t) () ->
          let rng = Rng.create s in
          let pt =
            if code.Code.planar then "-"
            else
              g
                (Spans.span "qec.threshold" (fun () ->
                     Threshold.pseudothreshold ~shots:(max 2000 (shots / 2)) code rng))
          in
          let het = failures (profile code (Uec.Het { ts = Inputs.table_ts })) ~rounds:3 rng in
          let hom = failures (profile code Uec.Hom) ~rounds:3 rng in
          let red = if het > 0. then hom /. het else infinity in
          keep (fun () ->
              table3_0.(ci) <- [ code.Code.name; pt; g het; g hom; Printf.sprintf "%.1fx" red ]))
        paper_codes
    in
    let fig12 =
      List.concat
        (List.mapi
           (fun pi (a, b) ->
             List.mapi
               (fun ti ts () ->
                 let v =
                   teleport ~het:true ~code_a:a ~code_b:b ~ts (Rng.create s)
                     (Inputs.mix s ((100 * pi) + ti))
                 in
                 keep (fun () -> fig12_0.(pi).(ti) <- v))
               Inputs.fig12_ts)
           pairs)
    in
    let table4 =
      (* one stream across all ordered pairs, as Teleport.table4 does *)
      let rng = lazy (Rng.create s) in
      List.concat_map
        (fun (a : Code.t) ->
          List.filter_map
            (fun (b : Code.t) ->
              if a.Code.name = b.Code.name then None
              else
                Some
                  (fun () ->
                    let rng = Lazy.force rng in
                    let probe = Inputs.mix s (Hashtbl.hash (a.Code.name, b.Code.name)) in
                    let het =
                      teleport ~het:true ~code_a:a ~code_b:b ~ts:Inputs.table_ts rng probe
                    in
                    let hom = teleport ~het:false ~code_a:a ~code_b:b ~ts:0. rng probe in
                    keep (fun () -> table4_0 := (a.Code.name, b.Code.name, het, hom) :: !table4_0)))
            paper_codes)
        paper_codes
    in
    fig9 @ table3 @ fig12 @ table4
  in
  let c_uec = Obs.Counter.create "uec.shots_total" in
  let c_thr = Obs.Counter.create "qec.threshold_shots_total" in
  let shots_now () = Obs.Counter.value c_uec + Obs.Counter.value c_thr in
  let shots_before = shots_now () in
  let pass_shots = ref 0 in
  let tm = run_passes ~on_pass0:(fun () -> pass_shots := shots_now () - shots_before) ~between
      ~seconds pass
  in
  let ts_header fmt l = List.map (fun ts -> Printf.sprintf fmt (ts *. 1e3)) l in
  let complete =
    Array.for_all (Array.for_all Float.is_finite) fig9_0
    && Array.for_all (( <> ) []) table3_0
    && Array.for_all (Array.for_all Float.is_finite) fig12_0
    && List.length !table4_0 = ncodes * (ncodes - 1)
  in
  let tables =
    if not complete then []
    else
      [ ( "cells",
          "Characterized operations (density-matrix simulation):",
          cells_table cells );
        ( "fig9",
          "Fig 9: UEC logical error rate per round vs storage coherence Ts",
          Tableio.render
            ~header:("code" :: ts_header "Ts=%gms" Inputs.fig9_ts)
            (List.mapi
               (fun ci (code : Code.t) ->
                 code.Code.name :: Array.to_list (Array.map g fig9_0.(ci)))
               paper_codes) );
        ( "table3",
          "Table 3: pseudothreshold and UEC logical error rates (Ts = 50 ms)",
          Tableio.render ~header:[ "Code"; "PT"; "Het."; "Hom."; "Red." ]
            (Array.to_list table3_0) );
        ( "fig12",
          "Fig 12: code-teleportation logical error probability vs Ts",
          Tableio.render
            ~header:("codes" :: ts_header "Ts=%gms" Inputs.fig12_ts)
            (List.mapi
               (fun pi ((a : Code.t), (b : Code.t)) ->
                 Printf.sprintf "%s & %s" a.Code.name b.Code.name
                 :: Array.to_list (Array.map g fig12_0.(pi)))
               pairs) );
        ( "table4",
          "Table 4: CT logical error probabilities, heterogeneous vs homogeneous",
          Tableio.render ~align:Tableio.Left
            ~header:[ "Code A"; "Code B"; "Het."; "Hom."; "Red." ]
            (List.rev_map
               (fun (a, b, het, hom) ->
                 [ a; b; g het; g hom; Printf.sprintf "%.2fx" (hom /. het) ])
               !table4_0) ) ]
  in
  let cache_hits = Cache.hits Char_store.cache and cache_misses = Cache.misses Char_store.cache in
  let layers =
    if not trace then []
    else
      Measure.
        [ metric "uec.profile.ms" "ms" (Spans.per_call_ms "uec.profile")
            ~samples:(Spans.calls "uec.profile");
          metric "uec.profile.calls" "count" (float_of_int (Spans.calls "uec.profile"));
          metric "uec.failures.us_per_shot_round" "us"
            (Spans.per_unit ~units:!shot_rounds (float_of_int (Spans.ns "uec.failures") /. 1e3))
            ~samples:!shot_rounds;
          metric "qec.threshold.ms" "ms" (Spans.per_call_ms "qec.threshold")
            ~samples:(Spans.calls "qec.threshold");
          metric "distill.run.ms" "ms" (Spans.per_call_ms "distill.run")
            ~samples:(Spans.calls "distill.run");
          metric "distill.success_frac" "frac"
            (Spans.per_unit ~units:!distill_attempts (float_of_int !distill_successes))
            ~samples:!distill_attempts;
          metric "teleport.point.ms" "ms" (Spans.per_call_ms "teleport.point")
            ~samples:(Spans.calls "teleport.point");
          metric "cell.characterize.us_per_call" "us" (Spans.per_call_us "cell.characterize")
            ~samples:(Spans.calls "cell.characterize");
          metric "dse.char_cache.hit_frac" "frac"
            (Spans.per_unit ~units:(cache_hits + cache_misses) (float_of_int cache_hits))
            ~samples:(cache_hits + cache_misses) ]
  in
  { setup_s;
    figure_s = tm.figure_s;
    pass_shots = !pass_shots;
    passes = tm.passes;
    units = tm.units;
    unit_failures = tm.failures;
    tables;
    counts = [];
    peak_heap_mb = tm.peak0_mb;
    layers }

let setup_only = function
  | "fig6-d13" -> ignore (fig6_setup ())
  | "het-modules" -> ignore (het_setup ())
  | w -> invalid_arg ("no in-process set-up for workload " ^ w)
