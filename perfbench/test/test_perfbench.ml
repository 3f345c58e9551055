(* The benchmark's own checks: metric naming (and agreement with
   BENCHMARK.json), the ten-beyond percentile rule, seed-only inputs, and
   the correctness checks' rejection of tampered results. *)

open Perfbench

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* ------------------------------------------------------------ naming *)

let test_names_valid () =
  let all = Spec.end_to_end @ Spec.per_layer in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("name " ^ name) true (Measure.valid_name name);
      Alcotest.(check bool) ("unit " ^ unit_) true (Measure.valid_unit unit_))
    all;
  let names = List.map fst all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Measure.valid_name bad))
    [ ""; "_lead"; ".lead"; "has space"; "slash/y"; "pipe|y"; String.make 65 'a' ];
  Alcotest.check_raises "metric refuses a bad name"
    (Invalid_argument "Measure.metric: bad name a b") (fun () ->
      ignore (Measure.metric "a b" "ms" 1.))

let json_list key doc =
  match Obs.Json.member key doc with
  | Some (Obs.Json.List l) -> l
  | _ -> Alcotest.failf "BENCHMARK.json: no list %s" key

let str key o =
  match Obs.Json.member key o with
  | Some (Obs.Json.String s) -> s
  | _ -> Alcotest.failf "BENCHMARK.json: no string %s" key

let test_benchmark_json_matches () =
  let doc =
    Obs.Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  let pairs key = List.map (fun o -> (str "name" o, str "unit" o)) (json_list key doc) in
  Alcotest.(check (list (pair string string))) "end_to_end" Spec.end_to_end (pairs "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Spec.per_layer (pairs "per_layer");
  Alcotest.(check (list string)) "workloads" (List.map fst Spec.workloads)
    (List.map (str "name") (json_list "workloads" doc))

(* ------------------------------------------------------- percentiles *)

let samples n = List.init n (fun i -> float_of_int (n - i))

let test_ten_beyond () =
  let has ~q n = Measure.percentile ~q (samples n) <> None in
  Alcotest.(check bool) "p50 of 19" false (has ~q:0.5 19);
  Alcotest.(check bool) "p50 of 20" true (has ~q:0.5 20);
  Alcotest.(check bool) "p90 of 99" false (has ~q:0.9 99);
  Alcotest.(check bool) "p90 of 100" true (has ~q:0.9 100);
  Alcotest.(check bool) "p99 of 999" false (has ~q:0.99 999);
  Alcotest.(check bool) "p99 of 1000" true (has ~q:0.99 1000);
  Alcotest.(check (option (float 0.))) "nearest rank" (Some 90.)
    (Measure.percentile ~q:0.9 (samples 100));
  let refused passes =
    Result.is_error (Measure.latency_ms "cold_p90_ms" ~q:0.9 passes)
  in
  Alcotest.(check bool) "a short pass refuses the percentile" true
    (refused [ samples 100; samples 99 ]);
  Alcotest.(check bool) "99 positions refuse p90" true (refused [ samples 99; samples 99 ]);
  (* each pass slowed 10x over a different half: every position is fast
     in one pass, so the percentile reads the unslowed script *)
  let slowed lo = List.mapi (fun i x -> if i >= lo && i < lo + 50 then 10. *. x else x) (samples 100) in
  match Measure.latency_ms "cold_p90_ms" ~q:0.9 [ slowed 0; slowed 50 ] with
  | Ok m ->
      Alcotest.(check (float 1e-9)) "best per position" 90e3 m.Measure.value;
      Alcotest.(check int) "samples" 200 m.Measure.samples
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------ inputs *)

let lines ~seed =
  Inputs.hot_set ~seed
  @ List.init 50 (Inputs.cold_line ~seed)
  @ List.init 50 (Inputs.pair_line ~seed)
  @ List.init 50 (Inputs.disk_line ~seed)

let test_seed_only () =
  Alcotest.(check (list string)) "same seed, same inputs" (lines ~seed:7) (lines ~seed:7);
  Alcotest.(check bool) "another seed, other inputs" true (lines ~seed:7 <> lines ~seed:8);
  Alcotest.(check bool) "pass seeds differ" true
    (Inputs.pass_seed ~seed:7 0 <> Inputs.pass_seed ~seed:7 1
    && Inputs.pass_seed ~seed:7 0 <> Inputs.pass_seed ~seed:8 0);
  let l = lines ~seed:7 in
  Alcotest.(check int) "no key repeats within a run" (List.length l)
    (List.length (List.sort_uniq compare l));
  List.iter
    (fun line ->
      match Serve.parse_request line with
      | Ok (Serve.Query _) -> ()
      | _ -> Alcotest.failf "generated request does not parse: %s" line)
    l

(* ------------------------------------------------------- correctness *)

let table =
  Tableio.render ~header:[ "alpha"; "rate" ] [ [ "1"; "0.01492" ]; [ "2"; "0.009655" ] ]

let test_table_digest () =
  let out = "Fig 6: title\n" ^ table ^ "\n(note)\n" in
  Alcotest.(check bool) "untampered" true (Verify.check_table ~what:"t" ~expected:table out = Ok ());
  let tampered = replace_first ~sub:"0.009655" ~by:"0.009656" out in
  Alcotest.(check bool) "tampered digit" true
    (Result.is_error (Verify.check_table ~what:"t" ~expected:table tampered));
  Alcotest.(check bool) "missing table" true
    (Result.is_error (Verify.check_table ~what:"t" ~expected:table "no table here"))

let test_serve_body () =
  let q =
    match Serve.parse_request "{\"kind\":\"dse\",\"op\":\"load\"}" with
    | Ok (Serve.Query q) -> q
    | _ -> Alcotest.fail "query does not parse"
  in
  let body = Serve.compute_answer q in
  Alcotest.(check bool) "genuine body" true (Verify.check_body q body = Ok ());
  Alcotest.(check bool) "same bytes" true (Verify.same_bytes ~what:"b" ~expected:body body = Ok ());
  let tampered_hash = replace_first ~sub:q.Serve.hash ~by:"0000000000000000" body in
  Alcotest.(check bool) "tampered request hash" true
    (Result.is_error (Verify.check_body q tampered_hash));
  let tampered_value = replace_first ~sub:"\"error\":0." ~by:"\"error\":1." body in
  Alcotest.(check bool) "value changed" true (tampered_value <> body);
  Alcotest.(check bool) "tampered value" true
    (Result.is_error (Verify.same_bytes ~what:"b" ~expected:body tampered_value));
  Alcotest.(check bool) "error response" true
    (Result.is_error
       (Verify.check_body q (Serve.error_body { Serve.code = 429; message = "queue full" })))

let () =
  Alcotest.run "perfbench"
    [ ( "naming",
        [ Alcotest.test_case "metric names and units" `Quick test_names_valid;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            test_benchmark_json_matches ] );
      ("percentiles", [ Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond ]);
      ("inputs", [ Alcotest.test_case "made from the seed only" `Quick test_seed_only ]);
      ( "correctness",
        [ Alcotest.test_case "table digest rejects tampering" `Quick test_table_digest;
          Alcotest.test_case "serve body rejects tampering" `Quick test_serve_body ] ) ]
