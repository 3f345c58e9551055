(* Statistics, metric naming and the result line.

   Percentiles follow one rule: a percentile is reported only when at least
   ten samples lie beyond it, so a tail figure is never the single slowest
   sample of a run.  Everything here is pure, so the benchmark's own tests
   exercise exactly the code the runs use. *)

let min_beyond = 10

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9
let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Every workload times its set-up [setup_reps] times and its fixed script
   (a figure, or the serve script) in at least [min_passes] passes. *)
let setup_reps = 7
let min_passes = 3

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: rank r = ceil(q n) (1-based); the samples
   beyond it are the n - r larger ones. *)
let rank ~q n = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let percentile ~q xs =
  if q <= 0. || q >= 1. then invalid_arg "Measure.percentile: q in (0, 1)";
  let a = sorted xs in
  let n = Array.length a in
  let r = rank ~q n in
  if n = 0 || n - r < min_beyond then None else Some a.(r - 1)

(* Median: a central value, not a tail, so the beyond rule does not
   apply. *)
let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Measure.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Names and units as the result consumer accepts them. *)
let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* One reported metric: value, unit, and how many samples back it (shown
   in the human-readable lines; the result line carries value and unit). *)
type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value =
  if not (valid_name name) then invalid_arg ("Measure.metric: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Measure.metric: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg ("Measure.metric: non-finite value for " ^ name);
  { name; value; unit_; samples }

(* A latency percentile (seconds in, ms out) over the positions of the
   workload's script: the k-th request of a tier is the same request in
   every pass but for its seed, and each position enters at its best over
   the passes, as the pass time does.  The host's slow spells (seconds
   long, striking a different part of each pass) drop out; a tail the
   program causes at a position recurs in every pass and stays.  [Error]
   names the metric when the passes differ in length or have too few
   positions for the percentile. *)
let latency_ms name ~q passes =
  match passes with
  | [] -> Error (name ^ ": no passes")
  | first :: rest ->
      let n = List.length first in
      if List.exists (fun p -> List.length p <> n) rest then
        Error (name ^ ": passes differ in length")
      else
        let best = List.fold_left (List.map2 Float.min) first rest in
        match percentile ~q best with
        | None ->
            Error
              (Printf.sprintf "%s: %d positions leave fewer than %d beyond p%g" name n
                 min_beyond (q *. 100.))
        | Some v -> Ok (metric ~samples:(n * List.length passes) name "ms" (v *. 1e3))

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  Obs.Json.(
    to_string
      (Obj
         [ ("correct", Bool r.correct);
           ("attempted", Int r.attempted);
           ("failed", Int r.failed);
           ( "metrics",
             Obj
               (List.map
                  (fun m ->
                    (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                  r.metrics) ) ]))

let human_line m =
  Printf.sprintf "  %-36s %14.6g %-6s (n=%d)" m.name m.value m.unit_ m.samples
