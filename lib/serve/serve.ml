(* Long-running estimation service: newline-delimited JSON over a socket.

   Single-threaded select loop by design: no locks, no background threads,
   no external dependencies.  Concurrency comes from two places — the
   kernel buffers requests that arrive while a computation is in flight
   (so the next drain coalesces duplicates onto the single-flight table),
   and each computation fans its shots across the Parallel domain pool.
   Responses carry deterministic content only (no timestamps, no serving
   metadata — that lives in counters, gauges, and spans), so identical
   requests receive byte-identical bodies from any tier: computed cold,
   coalesced, memory-warm, disk-warm, or recomputed at another --jobs. *)

let protocol_version = "hetarch.serve/1"
let max_request_bytes = 65536

(* What a query computes, built from its validated typed fields.  Thunks,
   not values: parsing sits on the warm path, which must not pay for a
   task description, its content hash, or a cell. *)
type job =
  | Sample of { task : unit -> Collect.Task.t; shots : int; seed : int }
  | Characterize of (unit -> Cell.t * Characterize.op)

type query = {
  kind : string;
  fields : (string * string) list;
  hash : string;
  job : job;
}

type control = Ping | Stats | Shutdown
type request = Query of query | Control of control
type error = { code : int; message : string }

exception Bad of error

let bad code fmt =
  Printf.ksprintf (fun message -> raise (Bad { code; message })) fmt

(* ------------------------------------------------------------------ *)
(* Request identity                                                   *)

let request_hash ~kind ~fields =
  Content_hash.of_components
    (protocol_version :: kind
    :: List.concat_map
         (fun (k, v) -> [ k; v ])
         (List.sort (fun (a, _) (b, _) -> compare a b) fields))

(* ------------------------------------------------------------------ *)
(* Field specs.  A field reads its JSON member (or its default),
   validates it, and yields the typed value plus its canonical rendering
   (ints as decimal, floats as %.17g — the same rendering Obs.Json uses —
   booleans as true/false).  Fields combine applicatively with let+/and+,
   so one declaration per kind gives the typed values, the identity
   fields, and the list of allowed names; spelling a default out,
   reordering fields, or writing 5e-2 for 0.05 never changes identity. *)

type members = (string * Obs.Json.t) list

(* [read members canon] returns the typed value and pushes the fields'
   canonical renderings onto [canon]. *)
type 'a spec = {
  names : string list;
  read : members -> (string * string) list ref -> 'a;
}

let ( let+ ) s f = { s with read = (fun members canon -> f (s.read members canon)) }

let ( and+ ) a b =
  { names = a.names @ b.names;
    read =
      (fun members canon ->
        let va = a.read members canon in
        (va, b.read members canon)) }

let field name ~default ~canon parse =
  { names = [ name ];
    read =
      (fun members acc ->
        let v =
          match List.assoc_opt name members with
          | None -> default
          | Some j -> parse j
        in
        acc := (name, canon v) :: !acc;
        v) }

let int name ~default ~lo ~hi =
  field name ~default ~canon:string_of_int (fun j ->
      match Obs.Json.to_int j with
      | i when i >= lo && i <= hi -> i
      | i -> bad 400 "%s: %d out of range [%d, %d]" name i lo hi
      | exception Failure _ -> bad 400 "%s: expected an integer" name)

let float name ~default ~lo ~hi =
  field name ~default ~canon:(Printf.sprintf "%.17g") (fun j ->
      match Obs.Json.to_float j with
      | f when Float.is_finite f && f >= lo && f <= hi -> f
      | f when Float.is_finite f -> bad 400 "%s: %g out of range [%g, %g]" name f lo hi
      | _ -> bad 400 "%s: expected a finite number" name
      | exception Failure _ -> bad 400 "%s: expected a number" name)

let bool name ~default =
  field name ~default ~canon:(fun b -> if b then "true" else "false") (function
    | Obs.Json.Bool b -> b
    | _ -> bad 400 "%s: expected a boolean" name)

let enum name ~default values =
  let+ s =
    field name ~default ~canon:Fun.id (function
      | Obs.Json.String s when List.mem_assoc s values -> s
      | Obs.Json.String s ->
          bad 400 "%s: unknown value %S (want one of %s)" name s
            (String.concat ", " (List.map fst values))
      | _ -> bad 400 "%s: expected a string" name)
  in
  List.assoc s values

(* A catalog code the lookup decoder can hold.  Every such name is at most
   5 characters ("17QCC", "REP30"), and checking that first keeps a name
   like "SC99999999" from building a huge code only to reject it. *)
let code_name name ~default =
  let code s =
    match if String.length s <= 5 then Codes.by_name s else raise Not_found with
    | (c : Code.t) when c.Code.n <= Decoder_lookup.max_qubits -> c
    | c ->
        bad 400 "%s: %S has %d qubits, more than the lookup decoder's %d" name s
          c.Code.n Decoder_lookup.max_qubits
    | exception (Not_found | Invalid_argument _) ->
        bad 400 "%s: unknown code name %S" name s
  in
  let+ _, c =
    field name ~default:(default, code default) ~canon:fst (function
      | Obs.Json.String s when s <> "" -> (s, code s)
      | _ -> bad 400 "%s: expected a non-empty string" name)
  in
  c

(* ------------------------------------------------------------------ *)
(* Query kinds, declared once: each is a spec of typed fields whose
   result is the kind's computation.  The request codec, the computation,
   and the `collect` campaigns all derive from this table — it is the one
   place to add a kind or a field. *)

(* Every sampling kind carries the campaign seed and a per-request shot
   budget (bounded — this is admission control's first line, long before
   the queue limit). *)
let sampling =
  let+ shots = int "shots" ~default:1024 ~lo:1 ~hi:1_000_000
  and+ seed = int "seed" ~default:1 ~lo:0 ~hi:max_int in
  (shots, seed)

let sample (shots, seed) task = Sample { task; shots; seed }
let het_hom = [ ("het", `Het); ("hom", `Hom) ]

let kinds : (string * job spec) list =
  [ ( "threshold",
      let+ distance = int "distance" ~default:3 ~lo:2 ~hi:25
      and+ t_data =
        float "t_data"
          ~default:(Surface_circuit.default ~distance:3).Surface_circuit.t_data
          ~lo:1e-9 ~hi:1.0
      and+ sampling = sampling in
      sample sampling (fun () ->
          Surface_circuit.collect_task
            { (Surface_circuit.default ~distance) with Surface_circuit.t_data }) );
    ( "uec",
      let+ code = code_name "code" ~default:"SC3"
      and+ rounds = int "rounds" ~default:3 ~lo:1 ~hi:1000
      and+ arch = enum "arch" ~default:"het" het_hom
      and+ ts = float "ts" ~default:50e-3 ~lo:1e-9 ~hi:1e3
      and+ sampling = sampling in
      sample sampling (fun () ->
          let arch = match arch with `Het -> Uec.Het { ts } | `Hom -> Uec.Hom in
          Uec.collect_task arch code ~rounds) );
    ( "distill",
      let+ arch = enum "arch" ~default:"het" het_hom
      and+ rate_hz = float "rate_hz" ~default:1e6 ~lo:1.0 ~hi:1e12
      and+ horizon = float "horizon" ~default:100e-6 ~lo:1e-9 ~hi:1.0
      and+ min_delivered = int "min_delivered" ~default:1 ~lo:1 ~hi:1000
      and+ sampling = sampling in
      sample sampling (fun () ->
          let config =
            match arch with
            | `Het -> Distill_module.heterogeneous ~rate_hz ()
            | `Hom -> Distill_module.homogeneous ~rate_hz ()
          in
          Distill_module.collect_task config ~horizon ~min_delivered) );
    ( "dse",
      let+ op =
        enum "op" ~default:"load"
          [ ("load", `Load);
            ("retention", `Retention);
            ("seq_cnots", `Seq_cnots);
            ("stabilizer", `Stabilizer) ]
      and+ alpha = float "alpha" ~default:1.0 ~lo:1e-3 ~hi:1e3
      and+ dt = float "dt" ~default:10e-6 ~lo:1e-12 ~hi:1.0
      and+ count = int "count" ~default:5 ~lo:1 ~hi:100
      and+ weight = int "weight" ~default:4 ~lo:2 ~hi:8
      and+ serialized = bool "serialized" ~default:true in
      Characterize
        (fun () ->
          let base = Device.multimode_resonator_3d in
          let storage =
            Device.with_coherence base ~t1:(alpha *. base.Device.t1)
              ~t2:(alpha *. base.Device.t2)
          in
          match op with
          | `Load -> (Cell.register ~storage (), Characterize.Load)
          | `Retention -> (Cell.register ~storage (), Characterize.Retention { dt })
          | `Seq_cnots -> (Cell.seqop ~storage (), Characterize.Seq_cnots { count })
          | `Stabilizer ->
              (Cell.usc ~storage (), Characterize.Stabilizer { weight; serialized })) ) ]

let check_names ~kind names members =
  List.iter
    (fun (k, _) ->
      if k <> "kind" && not (List.mem k names) then
        bad 400 "unknown field %S for kind %s" k kind)
    members

(* Decode a query's members against its kind's spec: field errors first,
   in declaration order, then unknown fields. *)
let decode ~kind spec members =
  let canon = ref [] in
  let job = spec.read members canon in
  check_names ~kind spec.names members;
  let fields = List.sort (fun (a, _) (b, _) -> compare a b) !canon in
  { kind; fields; hash = request_hash ~kind ~fields; job }

let parse_request line =
  try
    if String.length line > max_request_bytes then
      bad 413 "request exceeds %d bytes" max_request_bytes;
    let doc =
      try Obs.Json.parse line
      with Failure m -> bad 400 "malformed JSON: %s" m
    in
    let members =
      match doc with
      | Obs.Json.Obj ms -> ms
      | _ -> bad 400 "request must be a JSON object"
    in
    let kind =
      match List.assoc_opt "kind" members with
      | Some (Obs.Json.String k) -> k
      | Some _ -> bad 400 "kind must be a string"
      | None -> bad 400 "missing field \"kind\""
    in
    let control ctl =
      check_names ~kind [] members;
      Control ctl
    in
    Ok
      (match kind with
      | "ping" -> control Ping
      | "stats" -> control Stats
      | "shutdown" -> control Shutdown
      | k -> (
          match List.assoc_opt k kinds with
          | Some spec -> Query (decode ~kind spec members)
          | None -> bad 404 "unknown query kind %S" k))
  with Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Campaigns: `hetarch collect` runs grids of request fields through the
   same kinds, so every campaign task is a serve request with the rest of
   its fields at their defaults (and answers with the same task id).
   Kept small enough for CI yet large enough that adaptive stopping
   visibly saves shots: the cheap low-distance points hit --rel-ci early,
   the rare-event d=7 points run to --max-shots. *)

let campaigns =
  let open Obs.Json in
  [ ( "threshold",
      (* d = 3/5/7 surface-code memory at two data coherences *)
      List.concat_map
        (fun t ->
          List.map (fun d -> [ ("distance", Int d); ("t_data", Float t) ]) [ 3; 5; 7 ])
        [ 1e-4; 5e-4 ] );
    ( "uec",
      (* het (Ts = 50 ms) vs hom for the three small paper codes *)
      List.concat_map
        (fun c -> [ [ ("code", String c) ]; [ ("code", String c); ("arch", String "hom") ] ])
        [ "SHOR"; "ST"; "17QCC" ] );
    ( "distill",
      (* probability of delivering no target-fidelity pair in 100 us *)
      [ []; [ ("arch", String "hom") ] ] ) ]

let campaign name =
  let tasks kind =
    List.map
      (fun members ->
        match (decode ~kind (List.assoc kind kinds) members).job with
        | Sample { task; _ } -> task ()
        | Characterize _ -> invalid_arg "Serve.campaign: not a sampling kind")
      (List.assoc kind campaigns)
  in
  if name = "all" then List.concat_map (fun (kind, _) -> tasks kind) campaigns
  else tasks name
(* ------------------------------------------------------------------ *)
(* Response rendering                                                 *)

let error_body e =
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("error", Obj [ ("code", Int e.code); ("message", String e.message) ])
         ]))

let ok_body kind =
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String kind);
           ("ok", Bool true) ]))

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)

let requests_total = Obs.Counter.create "serve.requests_total"
let responses_total = Obs.Counter.create "serve.responses_total"
let coalesced_total = Obs.Counter.create "serve.coalesced_total"
let warm_memory_hits_total = Obs.Counter.create "serve.warm_memory_hits_total"
let warm_disk_hits_total = Obs.Counter.create "serve.warm_disk_hits_total"
let computed_total = Obs.Counter.create "serve.computed_total"
let rejected_total = Obs.Counter.create "serve.rejected_total"
let error_responses_total = Obs.Counter.create "serve.error_responses_total"
let queue_depth_gauge = Obs.Gauge.create "serve.queue_depth"
let connections_gauge = Obs.Gauge.create "serve.connections"

let stats_body () =
  let tasks_run, domains_spawned = Parallel.stats () in
  let queue_remaining, busy_domains = Parallel.queue_stats () in
  let c cnt = Obs.Json.Int (Obs.Counter.value cnt) in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String "stats");
           ( "counters",
             Obj
               [ ("serve.requests_total", c requests_total);
                 ("serve.responses_total", c responses_total);
                 ("serve.coalesced_total", c coalesced_total);
                 ("serve.warm_memory_hits_total", c warm_memory_hits_total);
                 ("serve.warm_disk_hits_total", c warm_disk_hits_total);
                 ("serve.computed_total", c computed_total);
                 ("serve.rejected_total", c rejected_total);
                 ("serve.error_responses_total", c error_responses_total) ] );
           ( "gauges",
             Obj
               [ ("serve.queue_depth", Float (Obs.Gauge.value queue_depth_gauge));
                 ("serve.connections", Float (Obs.Gauge.value connections_gauge))
               ] );
           ( "parallel",
             Obj
               [ ("jobs", Int (Parallel.jobs ()));
                 ("tasks_run", Int tasks_run);
                 ("domains_spawned", Int domains_spawned);
                 ("queue_remaining", Int queue_remaining);
                 ("busy_domains", Int busy_domains) ] ) ]))

(* ------------------------------------------------------------------ *)
(* Computation: a query's job -> deterministic response body          *)

let params_json q =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.String v)) q.fields)

let sampling_body q task ~shots ~seed =
  let errors =
    Collect.Task.sample task
      (Collect.batch_rng ~seed ~id:(Collect.Task.id task) ~index:0)
      shots
  in
  let lo, hi =
    Stats.wilson_interval ~successes:errors ~trials:shots ~z:Collect.wilson_z
  in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String q.kind);
           ("request", String q.hash);
           ("task", String (Collect.Task.id task));
           ("params", params_json q);
           ("shots", Int shots);
           ("errors", Int errors);
           ("rate", Float (float_of_int errors /. float_of_int shots));
           ("wilson_lo", Float lo);
           ("wilson_hi", Float hi) ]))

let dse_body q (cell, op) =
  let memo = Char_store.memo () in
  let perf = (Characterize.characterize_op ~memo cell op).Characterize.perf in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String q.kind);
           ("request", String q.hash);
           ("params", params_json q);
           ("duration_s", Float perf.Characterize.duration);
           ("error", Float perf.Characterize.error) ]))

let compute_answer q =
  match q.job with
  | Sample { task; shots; seed } -> sampling_body q (task ()) ~shots ~seed
  | Characterize cell_op -> dse_body q (cell_op ())

(* ------------------------------------------------------------------ *)
(* Warm response tiers: process memory, then the ambient persistent
   store.  The store key wraps the request hash under its own kind, so
   serve responses share a --cache-dir with characterizations without
   any possibility of collision, and Store's version tag makes entries
   from older code unreachable rather than wrong. *)

let memory : (string, string) Hashtbl.t = Hashtbl.create 64
let store_key q = Store.key ~kind:"serve.response" ~fields:[ ("request", q.hash) ]

let warm_answer q =
  match Hashtbl.find_opt memory q.hash with
  | Some body ->
      Obs.Counter.incr warm_memory_hits_total;
      Some body
  | None -> (
      match Char_store.store () with
      | None -> None
      | Some st -> (
          match Store.find st (store_key q) with
          | Some body ->
              Obs.Counter.incr warm_disk_hits_total;
              Hashtbl.replace memory q.hash body;
              Some body
          | None -> None))

let cache_response q body =
  Hashtbl.replace memory q.hash body;
  match Char_store.store () with
  | Some st -> Store.put st (store_key q) body
  | None -> ()

let answer q =
  match warm_answer q with
  | Some body -> body
  | None ->
      let body = compute_answer q in
      cache_response q body;
      body

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                    *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

type endpoint = Unix_path of string | Tcp of int

let connect_endpoint = function
  | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_UNIX path);
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)

let request ?(retry_for = 0.) endpoint line =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec connect () =
    match connect_endpoint endpoint with
    | fd -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        connect ()
  in
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (line ^ "\n");
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec read_line () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
        | 0 -> failwith "Serve.request: connection closed before a response"
        | n -> (
            Buffer.add_subbytes buf chunk 0 n;
            let s = Buffer.contents buf in
            match String.index_opt s '\n' with
            | Some i -> String.sub s 0 i
            | None -> read_line ())
      in
      read_line ())

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable alive : bool }

let stop = ref false

let compute_traced q =
  (* Child context keyed by the request hash: per-request spans nest under
     the daemon's root span and carry an identity fleet tooling can join
     against response bodies and store entries. *)
  let ctx = Obs.Context.child (Obs.Context.current ()) ~run_id:q.hash in
  Obs.Trace.with_span
    ~attrs:
      [ ("kind", q.kind);
        ("request", q.hash);
        ("ctx", Obs.Context.to_string ctx) ]
    "serve.request"
    (fun () -> compute_answer q)

let run ?(max_queue = 64) endpoint =
  stop := false;
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> stop := true))))
      [ Sys.sigint; Sys.sigterm ]
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let listen_fd, unix_path =
    match endpoint with
    | Unix_path path ->
        (try if Sys.file_exists path then Sys.remove path
         with Sys_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, Some path)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (try
           Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, None)
  in
  let conns = ref [] in
  let pending : (string, query * conn list ref) Hashtbl.t = Hashtbl.create 16 in
  let queue : string Queue.t = Queue.create () in
  let set_queue_gauge () =
    Obs.Gauge.set queue_depth_gauge (float_of_int (Queue.length queue))
  in
  let reply conn body =
    if conn.alive then (
      try
        write_all conn.fd (body ^ "\n");
        Obs.Counter.incr responses_total
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        conn.alive <- false)
  in
  let handle_request conn line =
    match parse_request line with
    | Error e ->
        Obs.Counter.incr error_responses_total;
        reply conn (error_body e)
    | Ok (Control Ping) -> reply conn (ok_body "ping")
    | Ok (Control Stats) -> reply conn (stats_body ())
    | Ok (Control Shutdown) ->
        reply conn (ok_body "shutdown");
        stop := true
    | Ok (Query q) -> (
        Obs.Counter.incr requests_total;
        match warm_answer q with
        | Some body -> reply conn body
        | None -> (
            match Hashtbl.find_opt pending q.hash with
            | Some (_, waiters) ->
                (* single-flight: attach to the in-flight computation *)
                Obs.Counter.incr coalesced_total;
                waiters := conn :: !waiters
            | None ->
                if Queue.length queue >= max_queue then (
                  Obs.Counter.incr rejected_total;
                  reply conn
                    (error_body
                       { code = 429;
                         message =
                           Printf.sprintf "queue full (%d pending)" max_queue
                       }))
                else (
                  Hashtbl.replace pending q.hash (q, ref [ conn ]);
                  Queue.push q.hash queue;
                  set_queue_gauge ())))
  in
  let drain_conn conn =
    let rec go () =
      let s = Buffer.contents conn.buf in
      match String.index_opt s '\n' with
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear conn.buf;
          Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
          let line =
            if line <> "" && line.[String.length line - 1] = '\r' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          if String.trim line <> "" then handle_request conn line;
          if conn.alive && not !stop then go ()
      | None ->
          if String.length s > max_request_bytes then (
            (* no newline in sight and the bound is blown: answer and close
               (there is no reliable way to resync the stream) *)
            Obs.Counter.incr error_responses_total;
            reply conn
              (error_body
                 { code = 413;
                   message =
                     Printf.sprintf "request exceeds %d bytes" max_request_bytes
                 });
            conn.alive <- false)
    in
    go ()
  in
  let read_chunk = Bytes.create 4096 in
  let read_conn conn =
    match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> conn.alive <- false
    | n ->
        Buffer.add_subbytes conn.buf read_chunk 0 n;
        drain_conn conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        conn.alive <- false
  in
  let accept_conn () =
    match Unix.accept listen_fd with
    | fd, _ -> conns := { fd; buf = Buffer.create 256; alive = true } :: !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let compute_one () =
    match Queue.pop queue with
    | exception Queue.Empty -> ()
    | h ->
        set_queue_gauge ();
        (match Hashtbl.find_opt pending h with
        | None -> ()
        | Some (q, waiters) ->
            (* A computation exception must not kill the daemon: waiters
               get a structured 500 and nothing is cached. *)
            let body =
              match compute_traced q with
              | body ->
                  Obs.Counter.incr computed_total;
                  cache_response q body;
                  body
              | exception e ->
                  Obs.Counter.incr error_responses_total;
                  error_body
                    { code = 500;
                      message = "internal error: " ^ Printexc.to_string e }
            in
            Hashtbl.remove pending h;
            List.iter (fun c -> reply c body) (List.rev !waiters))
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let finally () =
    (* Stragglers get a structured refusal, not a hung connection. *)
    Queue.clear queue;
    Hashtbl.iter
      (fun _ (_, waiters) ->
        List.iter
          (fun c -> reply c (error_body { code = 503; message = "shutting down" }))
          !waiters)
      pending;
    Hashtbl.reset pending;
    List.iter (fun c -> close_fd c.fd) !conns;
    conns := [];
    close_fd listen_fd;
    Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) unix_path;
    List.iter (fun (s, b) -> Sys.set_signal s b) previous;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  Fun.protect ~finally (fun () ->
      while not !stop do
        Obs.Telemetry.tick ();
        conns :=
          List.filter
            (fun c -> if c.alive then true else (close_fd c.fd; false))
            !conns;
        Obs.Gauge.set connections_gauge (float_of_int (List.length !conns));
        (* Exhaust readiness before computing: accept every backlogged
           connection and drain every readable one until select reports
           nothing, so all the requests that piled up during the previous
           computation land on the pending table (coalescing duplicates)
           before the next computation starts.  Zero timeout while work is
           queued — between computations we pump, never block. *)
        let rec pump timeout =
          match
            Unix.select
              (listen_fd
              :: List.filter_map
                   (fun c -> if c.alive then Some c.fd else None)
                   !conns)
              [] [] timeout
          with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | readable, _, _ ->
              List.iter
                (fun fd ->
                  if fd = listen_fd then accept_conn ()
                  else
                    match List.find_opt (fun c -> c.fd = fd) !conns with
                    | Some conn when conn.alive -> read_conn conn
                    | _ -> ())
                readable;
              if not !stop then pump 0.
        in
        pump (if Queue.is_empty queue then 0.2 else 0.);
        if (not !stop) && not (Queue.is_empty queue) then compute_one ()
      done)
