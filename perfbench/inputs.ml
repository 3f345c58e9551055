(* Workload inputs, generated from the run's --seed and nothing else: the
   program under test receives only these.  Pass 0 of each experiment
   workload uses [pass_seed ~seed 0], the seed the matching `hetarch`
   subcommand is run with for the correctness check. *)

(* splitmix64 finaliser, truncated to a non-negative 30-bit seed. *)
let mix seed k =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFL)

let pass_seed ~seed pass = mix seed pass

(* Shots per point: the CLI default, so pass 0 is exactly what
   `hetarch <figure>` computes. *)
let shots = 2000

(* ------------------------------------------------------------ fig6-d13 *)

(* Fig. 6: d = 13, Tcd or Tca scaled by alpha over a 100 us base, in the
   CLI's row order (both columns of each alpha row). *)
let fig6_base = 1e-4
let fig6_alphas = [ 1.; 2.; 3.; 4.; 5. ]

let fig6_points =
  List.concat_map
    (fun a -> [ (a, a *. fig6_base, fig6_base); (a, fig6_base, a *. fig6_base) ])
    fig6_alphas

(* --------------------------------------------------------- het-modules *)

let fig9_ts = [ 0.5e-3; 1e-3; 2e-3; 5e-3; 10e-3; 20e-3; 50e-3 ]
let table_ts = 50e-3
let fig12_ts = [ 1e-3; 5e-3; 10e-3; 25e-3; 50e-3 ]

let fig12_pairs () =
  [ (Codes.surface 3, Codes.reed_muller_15);
    (Codes.surface 3, Codes.surface 4);
    (Codes.color_17, Codes.surface 4) ]

(* ---------------------------------------------------------- serve-mixed *)

(* Request seeds live in one per-run block, [base + 4 i + tag], so hot,
   cold, coalesced and disk-block keys can never collide within a run. *)
let seed_block ~seed = (mix seed 1_000_003 land 0xFFFFF) * 4_000_000
let cold_seed ~seed i = seed_block ~seed + (4 * i) + 1
let pair_seed ~seed i = seed_block ~seed + (4 * i) + 2
let disk_seed ~seed i = seed_block ~seed + (4 * i) + 3

let threshold_line ~seed_value =
  Printf.sprintf "{\"kind\":\"threshold\",\"distance\":5,\"seed\":%d}" seed_value

(* The hot set: one request of every query kind.  The uec request on
   17QCC makes priming pay the costliest assignment search. *)
let hot_set ~seed =
  let s = seed_block ~seed in
  let alpha = 1. +. (float_of_int (mix seed 7 mod 1000) /. 1000.) in
  [ threshold_line ~seed_value:s;
    Printf.sprintf "{\"kind\":\"uec\",\"code\":\"17QCC\",\"seed\":%d}" s;
    Printf.sprintf "{\"kind\":\"distill\",\"seed\":%d}" s;
    Printf.sprintf "{\"kind\":\"dse\",\"op\":\"stabilizer\",\"alpha\":%.6f}" alpha ]

(* Cold population: one kind at one size, fresh seeds. *)
let cold_line ~seed i = threshold_line ~seed_value:(cold_seed ~seed i)

(* Duplicate pairs, sent at once on both connections. *)
let pair_line ~seed i = threshold_line ~seed_value:(pair_seed ~seed i)

(* The disk block: cheap requests (uec on SC3, one shot, ~0.2 ms to
   compute) that priming writes to the store and each pass's daemon first
   reads from it. *)
let disk_line ~seed i =
  Printf.sprintf "{\"kind\":\"uec\",\"code\":\"SC3\",\"shots\":1,\"seed\":%d}"
    (disk_seed ~seed i)
