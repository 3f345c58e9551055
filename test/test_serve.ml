(* Serve daemon: request codec (malformed input -> structured errors, never
   a crash or hang), pinned request-hash wire vectors, warm-tier byte
   identity at any --jobs, and the end-to-end daemon contract — split
   socket reads, oversized bodies, and SIGTERM shutdown that leaves valid
   registry artifacts exactly once. *)

let parse_err line =
  match Serve.parse_request line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "expected a parse error for %S" line

let parse_query line =
  match Serve.parse_request line with
  | Ok (Serve.Query q) -> q
  | Ok (Serve.Control _) -> Alcotest.failf "expected a query for %S" line
  | Error e -> Alcotest.failf "unexpected error %d (%s) for %S" e.Serve.code e.Serve.message line

(* ------------------------------------------------------ codec errors *)

let test_codec_errors () =
  let code line = (parse_err line).Serve.code in
  Alcotest.(check int) "malformed JSON" 400 (code "{nope");
  Alcotest.(check int) "trailing garbage" 400 (code "{\"kind\":\"ping\"} {}");
  Alcotest.(check int) "non-object body" 400 (code "[1,2,3]");
  Alcotest.(check int) "missing kind" 400 (code "{}");
  Alcotest.(check int) "non-string kind" 400 (code "{\"kind\":3}");
  Alcotest.(check int) "unknown kind" 404 (code "{\"kind\":\"frobnicate\"}");
  Alcotest.(check int) "unknown field" 400
    (code "{\"kind\":\"threshold\",\"distence\":5}");
  Alcotest.(check int) "wrong type" 400
    (code "{\"kind\":\"threshold\",\"distance\":\"five\"}");
  Alcotest.(check int) "out of range" 400
    (code "{\"kind\":\"threshold\",\"distance\":99}");
  Alcotest.(check int) "unknown code name" 400
    (code "{\"kind\":\"uec\",\"code\":\"NOPE\"}");
  (* bounds are the constructors' own: each of these used to pass the
     codec and fail (or crash) in the computation *)
  Alcotest.(check int) "no delivery required" 400
    (code "{\"kind\":\"distill\",\"min_delivered\":0}");
  Alcotest.(check int) "code the catalog cannot build" 400
    (code "{\"kind\":\"uec\",\"code\":\"SC1\"}");
  Alcotest.(check int) "code too large for the lookup decoder" 400
    (code "{\"kind\":\"uec\",\"code\":\"SC6\"}");
  Alcotest.(check int) "absurd code size" 400
    (code "{\"kind\":\"uec\",\"code\":\"SC99999999\"}");
  Alcotest.(check int) "control kind with stray field" 400
    (code "{\"kind\":\"ping\",\"x\":1}");
  let oversized =
    Printf.sprintf "{\"kind\":\"threshold\",\"pad\":\"%s\"}"
      (String.make Serve.max_request_bytes 'x')
  in
  Alcotest.(check int) "oversized body" 413 (code oversized);
  (* error bodies are themselves parseable one-line JSON *)
  let body = Serve.error_body { Serve.code = 429; message = "queue full" } in
  (match Obs.Json.member "error" (Obs.Json.parse body) with
  | Some e ->
      Alcotest.(check int) "error code round-trips" 429
        (Obs.Json.to_int (Option.get (Obs.Json.member "code" e)))
  | None -> Alcotest.fail "error body without error object");
  Alcotest.(check bool) "error body is one line" false
    (String.contains body '\n')

(* ------------------------------------------------- request identity *)

let test_pinned_hashes () =
  (* Wire-compatibility vectors: these hashes key persisted responses, so
     a change here invalidates every warm store in the fleet.  Bump the
     protocol version tag when the identity scheme must change. *)
  List.iter
    (fun (line, expect) ->
      Alcotest.(check string) line expect (parse_query line).Serve.hash)
    [ ("{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}", "7b1a24fa9b5a045b");
      ("{\"kind\":\"dse\"}", "4c5ff39bcead6a4c");
      ("{\"kind\":\"uec\",\"shots\":16}", "344c5ba2d5a97e4b");
      ("{\"kind\":\"distill\",\"shots\":16}", "3245442b42eda244") ]

let test_pinned_bodies () =
  (* Full response bodies of the hash vectors: they guard the params
     rendering and the numbers, which the hashes alone do not cover. *)
  List.iter
    (fun (line, expect) ->
      Alcotest.(check string) line expect (Serve.compute_answer (parse_query line)))
    [ ( "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}",
        {|{"schema":"hetarch.serve/1","kind":"threshold","request":"7b1a24fa9b5a045b","task":"891a9346d071020f","params":{"distance":"3","seed":"1","shots":"16","t_data":"0.0001"},"shots":16,"errors":0,"rate":0.0,"wilson_lo":0.0,"wilson_hi":0.19361341827271994}|}
      );
      ( "{\"kind\":\"dse\"}",
        {|{"schema":"hetarch.serve/1","kind":"dse","request":"4c5ff39bcead6a4c","params":{"alpha":"1","count":"5","dt":"1.0000000000000001e-05","op":"load","serialized":"true","weight":"4"},"duration_s":3.9999999999999998e-07,"error":0.010687327169137006}|}
      );
      ( "{\"kind\":\"uec\",\"shots\":16}",
        {|{"schema":"hetarch.serve/1","kind":"uec","request":"344c5ba2d5a97e4b","task":"27cea5f1453654c1","params":{"arch":"het","code":"SC3","rounds":"3","seed":"1","shots":"16","ts":"0.050000000000000003"},"shots":16,"errors":3,"rate":0.1875,"wilson_lo":0.065914787735867647,"wilson_hi":0.4300935986845823}|}
      );
      ( "{\"kind\":\"distill\",\"shots\":16}",
        {|{"schema":"hetarch.serve/1","kind":"distill","request":"3245442b42eda244","task":"5dddd4be658781c7","params":{"arch":"het","horizon":"0.0001","min_delivered":"1","rate_hz":"1000000","seed":"1","shots":"16"},"shots":16,"errors":0,"rate":0.0,"wilson_lo":0.0,"wilson_hi":0.19361341827271994}|}
      ) ]

let test_normalization () =
  let h line = (parse_query line).Serve.hash in
  Alcotest.(check string) "field order is irrelevant"
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}")
    (h "{\"kind\":\"threshold\",\"seed\":1,\"shots\":16}");
  Alcotest.(check string) "explicit defaults hash like omitted ones"
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}")
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1,\"distance\":3,\"t_data\":1e-4}");
  Alcotest.(check string) "number spelling is canonicalized"
    (h "{\"kind\":\"uec\",\"ts\":0.05}")
    (h "{\"kind\":\"uec\",\"ts\":5e-2}");
  Alcotest.(check bool) "different parameters, different identity" false
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}"
    = h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":2}")

(* ------------------------------------------- deterministic answers *)

let test_answer_bytes_jobs_invariant () =
  let q = parse_query "{\"kind\":\"threshold\",\"shots\":512,\"seed\":9}" in
  let saved = Parallel.jobs () in
  Parallel.set_jobs 1;
  let one = Serve.compute_answer q in
  Parallel.set_jobs 2;
  let two = Serve.compute_answer q in
  Parallel.set_jobs saved;
  Alcotest.(check string) "byte-identical at --jobs 1 and 2" one two;
  (* warm tier returns exactly the cached bytes *)
  Serve.cache_response q one;
  (match Serve.warm_answer q with
  | Some body -> Alcotest.(check string) "warm answer is byte-identical" one body
  | None -> Alcotest.fail "cached response not found in warm tier");
  Alcotest.(check string) "answer() serves the warm bytes" one (Serve.answer q)

let test_answer_matches_campaign_stream () =
  (* The serve answer must be byte-comparable with what a collect campaign
     would record for batch 0 of the same task at the same seed. *)
  let q = parse_query "{\"kind\":\"threshold\",\"shots\":256,\"seed\":5}" in
  let task =
    Surface_circuit.collect_task (Surface_circuit.default ~distance:3)
  in
  let expect =
    Collect.Task.sample task
      (Collect.batch_rng ~seed:5 ~id:(Collect.Task.id task) ~index:0)
      256
  in
  let body = Obs.Json.parse (Serve.compute_answer q) in
  Alcotest.(check int) "errors equal the campaign batch" expect
    (Obs.Json.to_int (Option.get (Obs.Json.member "errors" body)));
  Alcotest.(check string) "task id matches the campaign task"
    (Collect.Task.id task)
    (match Obs.Json.member "task" body with
    | Some (Obs.Json.String s) -> s
    | _ -> "")

let test_campaign_ids () =
  (* Ledger compatibility: the `collect all` task ids, in order, and each is
     the task a serve request with the same fields answers. *)
  let pinned =
    [ ({|"distance":3|}, "891a9346d071020f");
      ({|"distance":5|}, "e36a89931a827cd9");
      ({|"distance":7|}, "24dc8a6d9329a371");
      ({|"distance":3,"t_data":5e-4|}, "a26939afeabbdbff");
      ({|"distance":5,"t_data":5e-4|}, "b57fe9188c4be95f");
      ({|"distance":7,"t_data":5e-4|}, "6caa7edd24ec9622");
      ({|"code":"SHOR"|}, "b5ea156429f1eef4");
      ({|"code":"SHOR","arch":"hom"|}, "7ec767f7234e9ff6");
      ({|"code":"ST"|}, "93551e068e455a06");
      ({|"code":"ST","arch":"hom"|}, "f51f4d005e63621f");
      ({|"code":"17QCC"|}, "598067c5c7f82110");
      ({|"code":"17QCC","arch":"hom"|}, "c458f712ab1d2b0a");
      ("", "5dddd4be658781c7");
      ({|"arch":"hom"|}, "2791c46205b724f8") ]
  in
  Alcotest.(check (list string)) "collect all task ids" (List.map snd pinned)
    (List.map Collect.Task.id (Serve.campaign "all"));
  List.iteri
    (fun i (fields, id) ->
      let kind = if i < 6 then "threshold" else if i < 12 then "uec" else "distill" in
      let line =
        Printf.sprintf {|{"kind":"%s","shots":1%s}|} kind
          (if fields = "" then "" else "," ^ fields)
      in
      let body = Obs.Json.parse (Serve.compute_answer (parse_query line)) in
      Alcotest.(check (option string)) line (Some id)
        (match Obs.Json.member "task" body with
        | Some (Obs.Json.String s) -> Some s
        | _ -> None))
    pinned;
  Alcotest.check_raises "unknown campaign" Not_found (fun () ->
      ignore (Serve.campaign "nope"))

(* ------------------------------------------------- live daemon tests *)

let with_tmp_dir f =
  let dir = Filename.temp_file "hetarch_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let hetarch_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

let spawn_daemon ?(obs_dir = None) ~socket () =
  let argv =
    [| hetarch_bin; "serve"; "--socket"; socket |]
  in
  let argv =
    match obs_dir with
    | None -> argv
    | Some d -> Array.append argv [| "--obs-dir"; d |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process hetarch_bin argv Unix.stdin devnull devnull)
  in
  (* wait until the daemon answers rather than sleeping *)
  let pong =
    Serve.request ~retry_for:10. (Serve.Unix_path socket) "{\"kind\":\"ping\"}"
  in
  Alcotest.(check bool) "daemon answers ping" true
    (match Obs.Json.member "ok" (Obs.Json.parse pong) with
    | Some (Obs.Json.Bool true) -> true
    | _ -> false);
  pid

let connect_unix socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Response lines from one connection.  Bytes past the first newline stay
   buffered for the next call: pipelined responses often arrive in one
   read, and dropping the tail would leave the next read blocked forever. *)
let line_reader fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec next () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed before a response line"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            next ())
  in
  next

let recv_line fd = line_reader fd ()

let test_split_reads_and_pipelining () =
  with_tmp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let pid = spawn_daemon ~socket () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          (* one request delivered byte-dribbled across many writes *)
          let fd = connect_unix socket in
          let line = "{\"kind\":\"threshold\",\"shots\":64,\"seed\":3}\n" in
          String.iter
            (fun ch ->
              send_all fd (String.make 1 ch);
              if ch = ',' then ignore (Unix.select [] [] [] 0.01))
            line;
          let split_resp = recv_line fd in
          Unix.close fd;
          (* the same request in one piece, plus pipelined control traffic
             on a single connection *)
          let fd = connect_unix socket in
          send_all fd (line ^ "{\"kind\":\"ping\"}\n");
          let recv = line_reader fd in
          let whole_resp = recv () in
          let pong = recv () in
          Unix.close fd;
          Alcotest.(check string)
            "split delivery and whole delivery answer byte-identically"
            whole_resp split_resp;
          Alcotest.(check bool) "pipelined ping answered" true
            (match Obs.Json.member "ok" (Obs.Json.parse pong) with
            | Some (Obs.Json.Bool true) -> true
            | _ -> false);
          (* an over-long line without a newline is answered 413 and the
             connection closed — the daemon neither crashes nor hangs *)
          let fd = connect_unix socket in
          send_all fd (String.make (Serve.max_request_bytes + 1024) 'j');
          let resp = recv_line fd in
          (match Obs.Json.member "error" (Obs.Json.parse resp) with
          | Some e ->
              Alcotest.(check int) "oversized stream -> 413" 413
                (Obs.Json.to_int (Option.get (Obs.Json.member "code" e)))
          | None -> Alcotest.fail "expected an error response");
          Unix.close fd;
          (* daemon survives all of the above *)
          let pong =
            Serve.request (Serve.Unix_path socket) "{\"kind\":\"ping\"}"
          in
          Alcotest.(check bool) "daemon still alive" true
            (String.length pong > 0)))

let count_final_records path =
  Obs.fold_jsonl path
    (fun acc j ->
      match Obs.Json.member "final" j with
      | Some (Obs.Json.Bool true) -> acc + 1
      | _ -> acc)
    0

let test_sigterm_finalizes_once () =
  with_tmp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let obs = Filename.concat dir "obs" in
      let pid = spawn_daemon ~obs_dir:(Some obs) ~socket () in
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "daemon exited %d on SIGTERM" c
      | _ -> Alcotest.fail "daemon killed by signal instead of exiting");
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
      (* the registry holds exactly one snapshot for the run *)
      let index = Filename.concat obs "index.jsonl" in
      let entries = Obs.fold_jsonl index (fun n _ -> n + 1) 0 in
      Alcotest.(check int) "one registry entry" 1 entries;
      (* and the telemetry stream closed with exactly one final record *)
      let tdir = Filename.concat obs "telemetry" in
      let streams = Sys.readdir tdir in
      Alcotest.(check int) "one telemetry stream" 1 (Array.length streams);
      Alcotest.(check int) "exactly one final telemetry record" 1
        (count_final_records (Filename.concat tdir streams.(0))))

let () =
  Alcotest.run "serve"
    [ ( "codec",
        [ Alcotest.test_case "structured errors" `Quick test_codec_errors;
          Alcotest.test_case "pinned request-hash vectors" `Quick
            test_pinned_hashes;
          Alcotest.test_case "pinned response bodies" `Quick test_pinned_bodies;
          Alcotest.test_case "normalization" `Quick test_normalization ] );
      ( "answers",
        [ Alcotest.test_case "byte identity across --jobs and tiers" `Quick
            test_answer_bytes_jobs_invariant;
          Alcotest.test_case "matches campaign batch stream" `Quick
            test_answer_matches_campaign_stream;
          Alcotest.test_case "pinned campaign task ids" `Quick test_campaign_ids ] );
      ( "daemon",
        [ Alcotest.test_case "split reads, pipelining, oversized" `Quick
            test_split_reads_and_pipelining;
          Alcotest.test_case "SIGTERM finalizes exactly once" `Quick
            test_sigterm_finalizes_once ] ) ]
