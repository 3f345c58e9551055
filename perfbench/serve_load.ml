(* serve-mixed: the real `hetarch serve` daemon on a Unix socket with a
   fresh --cache-dir, driven in a closed loop over two connections from
   this process alone (one thread, select).

   Set-up (repeated [Measure.setup_reps] times, each on a fresh store): a
   priming daemon computes the hot set — one query of every kind — and the
   disk block, writes them to the store and exits; the measured daemon
   then starts on that store and answers a ping.

   The timed phase runs a fixed script of [script_cycles] cycles in
   passes.  Every pass has a daemon of its own, started on the primed
   store, so every pass reads the hot set and its share of the disk block
   from the store: warm-disk round trips are a fixed share of each pass.
   Each cycle:
   - a warm burst: [burst] round trips on each connection: the first
     touches of [disk_per_cycle] disk-block keys (store reads), one repeat
     of the previous cycle's cold key, and hot-set repeats (the first
     touch of each hot key in a pass reads the store, later ones hit
     memory);
   - one cold request (threshold, d = 5, fresh seed) on A, and 2 ms later
     one warm request on B, which waits behind the cold compute;
   - every fourth cycle, one fresh duplicate pair sent at once on both
     connections, which coalesces onto one compute. *)

let now_s = Measure.now_s

(* 2 x 24 burst round trips plus one blocked request per cycle: blocked
   requests are 1/49 of the warm tier, so warm p99 falls mid-way through
   the head-of-line wait distribution rather than on its edge.  One warm
   round trip in twelve is a store read. *)
let burst = 24
let disk_per_cycle = 4
let script_cycles = 100
let disk_block = disk_per_cycle * script_cycles

(* The load is a fixed number of script passes, so runs are compared on
   equal work.  A pass takes about [pass_nominal_s] on a 2.1 GHz Xeon, so
   a run's timed phase lasts about --seconds there. *)
let pass_nominal_s = 1.6
let passes_for ~seconds = max Measure.min_passes (int_of_float (Float.ceil (seconds /. pass_nominal_s)))
let request_timeout = 30.

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let rec connect ~deadline path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when now_s () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.005;
      connect ~deadline path
  | exception e ->
      Unix.close fd;
      raise e

(* Send one request line; false when the daemon has gone.  (SIGPIPE is
   ignored, so a write to a closed socket fails with EPIPE.) *)
let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring c.fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false
  in
  go 0

let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let chunk = Bytes.create 65536

(* One response line from each connection, with its arrival time; [None]
   for a connection that closes or stays silent for [request_timeout]. *)
let await conns =
  let n = Array.length conns in
  let deadline = now_s () +. request_timeout in
  let got = Array.make n None and closed = Array.make n false in
  let take i =
    if got.(i) = None then
      Option.iter (fun l -> got.(i) <- Some (l, now_s ())) (take_line conns.(i))
  in
  Array.iteri (fun i _ -> take i) conns;
  let rec loop () =
    let waiting = List.filter (fun i -> got.(i) = None && not closed.(i)) (List.init n Fun.id) in
    let left = deadline -. now_s () in
    if waiting <> [] && left > 0. then begin
      let ready, _, _ =
        try Unix.select (List.map (fun i -> conns.(i).fd) waiting) [] [] left
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun i ->
          let c = conns.(i) in
          if List.mem c.fd ready then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> closed.(i) <- true
            | r ->
                Buffer.add_subbytes c.buf chunk 0 r;
                take i
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed.(i) <- true)
        waiting;
      loop ()
    end
  in
  loop ();
  got

(* Send on each connection in turn, [gap] seconds apart, then wait for
   every reply: (body, round-trip seconds) per request, [None] at the
   request timeout when no reply came. *)
let exchange ?(gap = 0.) sends =
  let stamped =
    List.mapi
      (fun i (c, line) ->
        if i > 0 && gap > 0. then Unix.sleepf gap;
        let t = now_s () in
        (c, t, send c line))
      sends
  in
  let replies =
    await (Array.of_list (List.filter_map (fun (c, _, ok) -> if ok then Some c else None) stamped))
  in
  let k = ref 0 in
  List.map
    (fun (_, t, ok) ->
      let r = if ok then (incr k; replies.(!k - 1)) else None in
      match r with Some (body, t') -> (Some body, t' -. t) | None -> (None, request_timeout))
    stamped

let roundtrip c line =
  match exchange [ (c, line) ] with
  | [ (Some body, _) ] -> body
  | _ -> failwith ("daemon gave no reply to " ^ line)

(* ------------------------------------------------------------- daemons *)

type daemon = { pid : int; ctl : conn; sock : string; store : string; metrics : string }

let start_daemon ~hetarch ~dir ~name ~store =
  let sock = Filename.concat dir (name ^ ".sock") in
  let metrics = Filename.concat dir (name ^ ".json") in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Proc.spawn ~stdout:log ~stderr:log hetarch
      [ "serve"; "--socket"; sock; "--cache-dir"; store; "--jobs"; "1"; "--metrics"; metrics ]
  in
  Unix.close log;
  let ctl = connect ~deadline:(now_s () +. request_timeout) sock in
  if roundtrip ctl "{\"kind\":\"ping\"}" <> "{\"schema\":\"hetarch.serve/1\",\"kind\":\"ping\",\"ok\":true}"
  then failwith "daemon did not answer ping";
  { pid; ctl; sock; store; metrics }

let stop_daemon d =
  ignore (roundtrip d.ctl "{\"kind\":\"shutdown\"}");
  Unix.close d.ctl.fd;
  if not (Proc.wait_ok ~timeout:20. d.pid) then failwith "daemon did not exit cleanly"

(* The daemon's top heap, from the manifest it writes on exit. *)
let peak_heap_mb d =
  let doc = Obs.Json.parse (In_channel.with_open_bin d.metrics In_channel.input_all) in
  match Option.bind (Obs.Json.member "process" doc) (Obs.Json.member "top_heap_words") with
  | Some w -> Measure.words_to_mb (Obs.Json.to_int w)
  | None -> failwith "daemon manifest has no process.top_heap_words"

(* One set-up: prime a fresh store with the hot set and the disk block,
   then start the measured daemon on it.  Returns the daemon and the
   priming bodies. *)
let setup_once ~hetarch ~dir ~priming_lines i =
  let store = Filename.concat dir (Printf.sprintf "store%d" i) in
  let p =
    Spans.span "serve.prime" (fun () ->
        let p = start_daemon ~hetarch ~dir ~name:(Printf.sprintf "prime%d" i) ~store in
        let bodies = List.map (fun line -> (line, roundtrip p.ctl line)) priming_lines in
        stop_daemon p;
        bodies)
  in
  let d =
    Spans.span "serve.start" (fun () ->
        start_daemon ~hetarch ~dir ~name:(Printf.sprintf "measured%d" i) ~store)
  in
  (d, p)

(* ----------------------------------------------------------- the load *)

type tier = Warm | Hol | Cold | Pair

type outcome = {
  setups : float list;
  pass_s : float;  (** one script pass from its cycles' best times *)
  cycles : int;
  warm : float list list;
      (** warm-tier round trips (burst + blocked), seconds, per pass *)
  cold : float list list;  (** cold round trips per pass *)
  burst_rtt : float list;  (** warm round trips with no compute in flight *)
  hol : float list;
  responses : (tier * string * string) list;  (** tier, request line, body *)
  priming : (string * string) list;
  stats : Obs.Json.t list;  (** each pass daemon's stats *)
  peak_heap_mb : float;  (** the largest pass daemon's top heap *)
  store_bytes : int;
  lost : int;  (** requests with no reply: timed out, or connection dropped *)
  aborted : string option;  (** why the script stopped early *)
  mismatches : string list;
}

exception Lost

let run ~hetarch ~seed ~seconds =
  let dir = Lazy.force Proc.run_dir in
  let hot = Inputs.hot_set ~seed in
  let hot_a = Array.of_list hot in
  let priming_lines = hot @ List.init disk_block (Inputs.disk_line ~seed) in
  let t_setup = now_s () in
  let d0, priming = setup_once ~hetarch ~dir ~priming_lines 0 in
  let setups = ref [ now_s () -. t_setup ] in
  (* Further set-ups on fresh stores run between passes, with no daemon
     under load, so they spread over the run. *)
  let mismatches = ref [] in
  let setup_again () =
    let i = List.length !setups in
    let t0 = now_s () in
    let d', p = setup_once ~hetarch ~dir ~priming_lines i in
    setups := (now_s () -. t0) :: !setups;
    stop_daemon d';
    (* a fresh store must prime to the same bytes *)
    if p <> priming then mismatches := "priming differs between stores" :: !mismatches
  in
  let store = d0.store in
  let store_bytes0 = Proc.tree_bytes store in
  let warm = ref [] and burst_rtt = ref [] and hol = ref [] and cold = ref [] in
  let warm_passes = ref [] and cold_passes = ref [] in
  let responses = ref [] in
  let expected = Hashtbl.create 1024 in
  List.iter (fun (line, body) -> Hashtbl.replace expected line body) priming;
  (* Same request, same bytes: every later answer must match the first. *)
  let note tier line body =
    responses := (tier, line, body) :: !responses;
    match Hashtbl.find_opt expected line with
    | Some e when not (String.equal e body) ->
        mismatches := Printf.sprintf "tier identity: %s" line :: !mismatches
    | Some _ -> ()
    | None -> Hashtbl.replace expected line body
  in
  (* A refused request, or one with no reply, is a failed operation at
     the request timeout, so it misses every latency limit.  A missing
     reply ends the script once its exchange is recorded: a late reply
     would answer the wrong request. *)
  let lost = ref 0 and missing = ref false in
  let take tier line (reply, dt) =
    match reply with
    | Some body ->
        note tier line body;
        if String.starts_with ~prefix:"{\"schema\":\"hetarch.serve/1\",\"error\"" body
        then request_timeout
        else dt
    | None ->
        incr lost;
        missing := true;
        request_timeout
  in
  let settle () = if !missing then raise Lost in
  let cycle ~a ~b g =
    let i = g mod script_cycles in
    Spans.span "serve.warm_burst" (fun () ->
        for r = 0 to burst - 1 do
          let line j =
            if j = 0 && i > 0 then Inputs.cold_line ~seed (g - 1)
            else if j >= 1 && j <= disk_per_cycle then
              Inputs.disk_line ~seed ((i * disk_per_cycle) + j - 1)
            else hot_a.(((g * 2 * burst) + j) mod Array.length hot_a)
          in
          let la = line (2 * r) and lb = line ((2 * r) + 1) in
          List.iter2
            (fun l reply ->
              let dt = take Warm l reply in
              warm := dt :: !warm;
              burst_rtt := dt :: !burst_rtt)
            [ la; lb ]
            (exchange [ (a, la); (b, lb) ]);
          settle ()
        done);
    Spans.span "serve.cold" (fun () ->
        let lc = Inputs.cold_line ~seed g and lw = hot_a.(g mod Array.length hot_a) in
        match exchange ~gap:0.002 [ (a, lc); (b, lw) ] with
        | [ rc; rw ] ->
            cold := take Cold lc rc :: !cold;
            let dw = take Hol lw rw in
            hol := dw :: !hol;
            warm := dw :: !warm;
            settle ()
        | _ -> assert false);
    if g mod 4 = 3 then
      Spans.span "serve.pair" (fun () ->
          let lp = Inputs.pair_line ~seed (g / 4) in
          List.iter (fun r -> ignore (take Pair lp r)) (exchange [ (a, lp); (b, lp) ]);
          settle ())
  in
  (* Each cycle position is timed every pass and the pass time sums each
     position's best time, as the experiment workloads do with their
     points. *)
  let best = Array.make script_cycles infinity in
  let target = passes_for ~seconds in
  let stats = ref [] and heaps = ref [] and cycles = ref 0 in
  let end_pass () =
    warm_passes := !warm :: !warm_passes;
    cold_passes := !cold :: !cold_passes;
    warm := [];
    cold := []
  in
  let rec passes p d =
    let b = connect ~deadline:(now_s () +. request_timeout) d.sock in
    for i = 0 to script_cycles - 1 do
      let tc = now_s () in
      cycle ~a:d.ctl ~b ((p * script_cycles) + i);
      best.(i) <- Float.min best.(i) (now_s () -. tc);
      incr cycles
    done;
    end_pass ();
    Unix.close b.fd;
    stats := Obs.Json.parse (roundtrip d.ctl "{\"kind\":\"stats\"}") :: !stats;
    stop_daemon d;
    heaps := peak_heap_mb d :: !heaps;
    if List.length !setups < Measure.setup_reps then setup_again ();
    if p + 1 < target then
      passes (p + 1)
        (start_daemon ~hetarch ~dir ~name:(Printf.sprintf "pass%d" (p + 1)) ~store)
  in
  let aborted =
    match passes 0 d0 with
    | () ->
        while List.length !setups < Measure.setup_reps do setup_again () done;
        None
    | exception e ->
        (* the partial pass still counts its failed requests *)
        end_pass ();
        Proc.kill_all ();
        Some
          (match e with
          | Lost ->
              Printf.sprintf "%d requests got no reply (%g s timeout or dropped connection)"
                !lost request_timeout
          | e -> "serve load stopped: " ^ Printexc.to_string e)
  in
  { setups = List.rev !setups;
    pass_s = Array.fold_left (fun acc t -> if Float.is_finite t then acc +. t else acc) 0. best;
    cycles = !cycles;
    warm = !warm_passes;
    cold = !cold_passes;
    burst_rtt = !burst_rtt;
    hol = !hol;
    responses = List.rev !responses;
    priming;
    stats = !stats;
    peak_heap_mb = List.fold_left Float.max 0. !heaps;
    store_bytes = Proc.tree_bytes store - store_bytes0;
    lost = !lost;
    aborted;
    mismatches = List.rev !mismatches }

(* ------------------------------------------------------ verification *)

(* A daemon counter summed over the pass daemons. *)
let counter stats name =
  List.fold_left
    (fun acc doc ->
      match Option.bind (Obs.Json.member "counters" doc) (Obs.Json.member name) with
      | Some v -> acc + Obs.Json.to_int v
      | None -> failwith ("stats has no counter " ^ name))
    0 stats

(* Every body must answer its own request; hot bodies, a sample of the
   disk block and of cold bodies, and every other duplicate pair must equal
   the in-process answer; the warm tiers replayed in-process must return
   the same bytes; the daemon's counters must show exactly the computes
   and store reads the script implies.  Returns the failures and, when
   traced, the per-layer readings.

   Calls of a few microseconds (parse, warm answer, store find) are timed
   as one span around the whole batch, so the tracer's own cost per span
   stays out of the per-call figure. *)
let verify ~trace ~dir o =
  let fails = ref (Option.to_list o.aborted @ o.mismatches) in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let all = Array.of_list (List.map (fun (l, b) -> (Cold, l, b)) o.priming @ o.responses) in
  let parsed =
    Spans.span "serve.parse" (fun () ->
        Array.map (fun (_, line, _) -> Serve.parse_request line) all)
  in
  let queries = Hashtbl.create 1024 and bodies = Hashtbl.create 1024 in
  Array.iteri
    (fun i (_, line, body) ->
      let q =
        match parsed.(i) with
        | Ok (Serve.Query q) -> q
        | _ -> failwith ("generated request does not parse: " ^ line)
      in
      Hashtbl.replace queries line q;
      if not (Hashtbl.mem bodies line) then Hashtbl.replace bodies line body;
      match Verify.check_body q body with
      | Ok () -> ()
      | Error e -> fail "%s: %s" line e)
    all;
  let compute ?(timed = true) line =
    let q = Hashtbl.find queries line in
    let answer () = Serve.compute_answer q in
    let body =
      if timed then Spans.span ("serve.compute." ^ q.Serve.kind) answer else answer ()
    in
    match Verify.same_bytes ~what:line ~expected:body (Hashtbl.find bodies line) with
    | Ok () -> ()
    | Error e -> fail "in-process answer: %s" e
  in
  (* the disk block is checked untimed: its one-shot uec requests are not
     the cold population *)
  let hot = List.length o.priming - disk_block in
  List.iteri
    (fun i (line, _) ->
      if i < hot then compute line
      else if i mod 8 = 0 then compute ~timed:false line)
    o.priming;
  let distinct tier =
    List.sort_uniq compare
      (List.filter_map (fun (t, l, _) -> if t = tier then Some l else None) o.responses)
  in
  let colds = distinct Cold and pairs = distinct Pair in
  List.iteri (fun i l -> if i mod 8 = 0 then compute l) colds;
  List.iteri (fun i l -> if i mod 2 = 0 then compute l) pairs;
  (* the warm tier, replayed in-process *)
  Hashtbl.iter (fun line body -> Serve.cache_response (Hashtbl.find queries line) body) bodies;
  let warm =
    Array.of_list (List.filter (fun (t, _, _) -> t = Warm || t = Hol) o.responses)
  in
  let warm_qs = Array.map (fun (_, line, _) -> Hashtbl.find queries line) warm in
  let answers = Spans.span "serve.warm_answer" (fun () -> Array.map Serve.warm_answer warm_qs) in
  Array.iteri
    (fun i (_, line, body) ->
      match answers.(i) with
      | Some b when String.equal b body -> ()
      | _ -> fail "in-process warm answer differs: %s" line)
    warm;
  (* the daemon's write-back, replayed on a fresh store *)
  let st = Store.open_dir (Filename.concat dir "replay") in
  let keyed =
    Hashtbl.fold
      (fun line body acc ->
        (Store.key ~kind:"serve.response"
           ~fields:[ ("request", (Hashtbl.find queries line).Serve.hash) ], body)
        :: acc)
      bodies []
  in
  Spans.span "dse.store.put" (fun () -> List.iter (fun (k, body) -> Store.put st k body) keyed);
  let found = Spans.span "dse.store.find" (fun () -> List.map (fun (k, _) -> Store.find st k) keyed) in
  List.iter2
    (fun (_, body) f ->
      match f with
      | Some b when String.equal b body -> ()
      | _ -> fail "store replay lost a body")
    keyed found;
  let c = counter o.stats in
  let requests = c "serve.requests_total" in
  let expect name want =
    if c name <> want then fail "stats: %s = %d, expected %d" name (c name) want
  in
  (* every pass daemon reads each primed key from the store once *)
  if o.aborted = None then begin
    expect "serve.requests_total" (List.length o.responses);
    expect "serve.computed_total" (List.length colds + List.length pairs);
    expect "serve.warm_disk_hits_total" (List.length o.stats * List.length o.priming);
    expect "serve.rejected_total" 0;
    expect "serve.error_responses_total" 0
  end;
  let frac name = Spans.per_unit ~units:requests (float_of_int (c name)) in
  let layers =
    if not trace then []
    else
      let med xs = if xs = [] then 0. else Measure.median xs in
      let us_each name n = Spans.per_unit ~units:n (float_of_int (Spans.ns name) /. 1e3) in
      let parse_us = us_each "serve.parse" (Array.length all)
      and warm_us = us_each "serve.warm_answer" (Array.length warm) in
      let stored = List.length keyed in
      let compute kind =
        let span = "serve.compute." ^ kind in
        Measure.metric ("serve.compute.ms." ^ kind) "ms" (Spans.per_call_ms span)
          ~samples:(Spans.calls span)
      in
      Measure.
        [ metric "serve.parse.us_per_req" "us" parse_us ~samples:(Array.length all);
          metric "serve.warm_answer.us_per_req" "us" warm_us ~samples:(Array.length warm);
          metric "serve.rtt_overhead_us" "us"
            ((med o.burst_rtt *. 1e6) -. parse_us -. warm_us)
            ~samples:(List.length o.burst_rtt);
          metric "serve.hol_wait_ms" "ms"
            ((med o.hol -. med o.burst_rtt) *. 1e3)
            ~samples:(List.length o.hol);
          compute "threshold";
          compute "uec";
          compute "distill";
          compute "dse";
          metric "dse.store.put_us" "us" (us_each "dse.store.put" stored) ~samples:stored;
          metric "dse.store.find_us" "us" (us_each "dse.store.find" stored) ~samples:stored;
          metric "dse.store.bytes_written" "bytes" (float_of_int o.store_bytes);
          metric "serve.coalesced_frac" "frac" (frac "serve.coalesced_total") ~samples:requests;
          metric "serve.warm_mem_frac" "frac" (frac "serve.warm_memory_hits_total")
            ~samples:requests;
          metric "serve.warm_disk_frac" "frac" (frac "serve.warm_disk_hits_total")
            ~samples:requests;
          metric "serve.rejected_frac" "frac" (frac "serve.rejected_total") ~samples:requests ]
  in
  (List.rev !fails, layers)
