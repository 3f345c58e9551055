(* Child processes and the per-run work directory.  Every child gets an
   environment without HETARCH_* variables, so shot counts, job counts, run
   registries and trace parents come only from the command line; every
   child still alive when the benchmark exits is killed and reaped. *)

let env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 8 && String.sub kv 0 8 = "HETARCH_"))
       (Array.to_list (Unix.environment ())))

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let reap pid =
  ignore (waitpid_retry [] pid);
  Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    live;
  List.iter (fun pid -> try reap pid with Unix.Unix_error _ -> ())
    (List.of_seq (Hashtbl.to_seq_keys live))

let () = at_exit kill_all

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) Unix.stdin
      stdout stderr
  in
  Hashtbl.replace live pid ();
  pid

(* Wait up to [timeout] seconds for [pid]; kill it past that.  Returns
   true on a normal zero exit. *)
let wait_ok ?(timeout = 170.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid;
        false
    | _, status ->
        Hashtbl.remove live pid;
        status = Unix.WEXITED 0
  in
  poll ()

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* Run [prog args] to completion and return its stdout, or [Error]. *)
let capture ?timeout prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w prog args in
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  if wait_ok ?timeout pid then Ok out
  else Error (Printf.sprintf "%s %s failed" prog (String.concat " " args))

(* Work space for one run, relative to the checkout root so Unix socket
   paths stay short whatever the checkout's own path is. *)
let run_root = ".perfbench_runs"

let run_dir =
  lazy
    (let d = Filename.concat run_root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let cleanup () =
  kill_all ();
  if Lazy.is_val run_dir then begin
    (try remove_tree (Lazy.force run_dir) with Unix.Unix_error _ | Sys_error _ -> ());
    (* the shared root goes once no other run uses it *)
    try Unix.rmdir run_root with Unix.Unix_error _ -> ()
  end

let rec tree_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc e -> acc + tree_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
